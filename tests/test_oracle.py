import math
import warnings

import numpy as np
import pytest

from flradapt import adaptive, functionals, oracle, sequences, simulate
from flradapt.estimator import Moments
from flradapt.functionals import Custom, DerivativeEval, LocalAverage, PointEval
from flradapt.oracle import (
    RateDescriptor,
    minimax_dimension,
    rate_exponent,
    risk_curve,
    theoretical_penalty_curve,
)
from flradapt.sequences import Regime, SequenceModel
from flradapt.simulate import Covariance

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)
PE = SequenceModel(regime=Regime.PE, p=1.0, a=0.5)
EP = SequenceModel(regime=Regime.EP, p=0.5, a=1.0)

PE_2 = SequenceModel(regime=Regime.PE, p=2.0, a=1.0)
EP_2 = SequenceModel(regime=Regime.EP, p=2.0, a=1.0)

E1 = Custom(coeffs=(1.0,))


def brute_force_risk(model, spec, m, x, horizon=2_000_000):
    """Independent direct-summation evaluation of the risk functional."""
    from flradapt.functionals import coefficients

    ell = coefficients(spec, horizon)
    lb = sequences.log_beta_array(model, horizon)
    lg = sequences.log_gamma_array(model, horizon)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        tail = float(np.sum(np.where(ell == 0, 0, ell ** 2 * np.exp(-lb))[m:]))
        head = float(np.sum(np.where(ell == 0, 0, ell ** 2 * np.exp(-lg))[:m]))
    ratio = math.exp(lg[m - 1] - lb[m - 1])
    return max(tail, max(ratio, x) * head)


def tail_data_reference(model, spec):
    """One-shot tail fill: every term of the horizon in one array and one
    ``np.cumsum``; the blocked fill must reproduce it bit for bit."""
    support = functionals.coefficient_support(spec)
    if support is not None:
        ell2 = functionals.coefficients(spec, support) ** 2
        with np.errstate(under="ignore"):
            terms = np.where(
                ell2 == 0.0, 0.0,
                ell2 * np.exp(-sequences.log_beta_array(model, support)),
            )
        cum = np.cumsum(terms)
        return cum, float(cum[-1])
    exponential = model.regime is Regime.EP
    horizon = oracle.TAIL_HORIZON_EXP if exponential else oracle.TAIL_HORIZON_POLY
    ell2 = functionals.coefficients(spec, horizon) ** 2
    log_beta = sequences.log_beta_array(model, horizon)
    with np.errstate(under="ignore", invalid="ignore"):
        terms = np.where(ell2 == 0.0, 0.0, ell2 * np.exp(-log_beta))
    cum = np.cumsum(terms)
    if exponential:
        remainder = 2.0 * float(terms[-1])
    else:
        amp, power = functionals.mean_square_density(spec)
        decay = 2.0 * model.p - 2.0 * power
        if decay <= 1.0:
            raise oracle.DivergentTailError("diverges")
        edge = horizon + 0.5
        remainder = amp * edge ** (1.0 - decay) / (decay - 1.0)
    return cum, float(cum[-1] + remainder)


# smooth enough (p = 2) that the first derivative has a convergent tail too
TAIL_MODELS = [
    SequenceModel(regime=Regime.PP, p=2.0, a=1.0),
    SequenceModel(regime=Regime.PE, p=2.0, a=0.5),
    SequenceModel(regime=Regime.EP, p=0.5, a=1.0),
]
TAIL_SPECS = [
    PointEval(t0=0.3),
    DerivativeEval(t0=0.3, q=1),
    LocalAverage(b=0.2),
    Custom(coeffs=tuple(np.linspace(-1.0, 1.0, 20_001))),
]


class TestBlockedTailSums:
    # 1000 leaves a partial last block on the exponential horizon 65,536 and
    # on the custom support 20,001; the default block does on 10^6
    @pytest.mark.parametrize("block", [None, 1000])
    @pytest.mark.parametrize("model", TAIL_MODELS)
    @pytest.mark.parametrize("spec", TAIL_SPECS)
    def test_matches_one_shot_fill(self, monkeypatch, model, spec, block):
        if block is not None:
            monkeypatch.setattr(oracle, "TAIL_BLOCK", block)
        horizon, total = oracle._tail_total.__wrapped__(model, spec)
        want_cum, want_total = tail_data_reference(model, spec)
        assert horizon == len(want_cum)
        assert total == want_total
        # prefixes that end inside, at and just past a block boundary, and
        # at the horizon, each summed block by block from the first term
        b = oracle.TAIL_BLOCK
        for stop in (1, b - 1, b, b + 1, 3 * b + 7, horizon - 1, horizon):
            if stop <= horizon:
                assert oracle._running_sum(model, spec, stop)[0] == want_cum[stop - 1], stop

    @pytest.mark.parametrize("model", TAIL_MODELS)
    def test_tail_values_match_one_shot_fill(self, model):
        spec = PointEval(t0=0.3)
        cum, total = tail_data_reference(model, spec)
        for m in (0, 1, 8191, 8192, 8193, 50_000, len(cum) - 1, len(cum), len(cum) + 5):
            want = total if m == 0 else max(total - float(cum[min(m, len(cum)) - 1]), 0.0)
            assert oracle.ell_weight_tail(model, spec, m) == want, m

    def test_divergent_tail_raises(self):
        model = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)
        with pytest.raises(oracle.DivergentTailError):
            tail_data_reference(model, DerivativeEval(t0=0.3, q=1))
        with pytest.raises(oracle.DivergentTailError):
            oracle._tail_total.__wrapped__(model, DerivativeEval(t0=0.3, q=1))

    def test_cold_fill_allocates_little_beyond_its_result(self):
        # 10^6 terms are never held at once: the fill peaks at the 64 KiB
        # temporaries of one block's evaluation (about nine of them)
        import tracemalloc

        tracemalloc.start()
        try:
            horizon, _ = oracle._tail_total.__wrapped__(PP, PointEval(t0=0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert horizon == oracle.TAIL_HORIZON_POLY
        assert peak <= 10 * oracle.TAIL_BLOCK * 8

    @pytest.mark.parametrize("model", TAIL_MODELS)
    @pytest.mark.parametrize("spec", TAIL_SPECS)
    def test_risk_curve_tail_is_ell_weight_tail(self, monkeypatch, model, spec):
        m_max = 64
        want = np.array([oracle.ell_weight_tail(model, spec, m)
                         for m in range(1, m_max + 1)])
        # a zero head sum leaves the curve at its tail term
        monkeypatch.setattr(functionals, "coefficients",
                            lambda spec, m: np.zeros(m))
        got = risk_curve(model, spec, 0.5, m_max)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("b", [1e-9, 1e-300])
    def test_narrow_average_tail_is_point_evaluations(self, b):
        # far below b = 1 / horizon a local average's coefficients are those
        # of evaluation at 0, and its remainder past the horizon may not
        # exceed the point-evaluation bound (at 1e-300, (pi b)^2 underflows)
        _, total = oracle._tail_total.__wrapped__(PP, LocalAverage(b=b))
        _, point = oracle._tail_total.__wrapped__(PP, PointEval(t0=0.0))
        assert total == pytest.approx(point, rel=1e-6)

    @pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("cap", [2e6, 4.5e8])
    def test_capped_remainder_integrates_the_capped_envelope(self, p, cap):
        from scipy.integrate import quad

        # the integrand min(1, (cap / j)^2) j^(-2p) dj, in u = log j
        def envelope(u):
            return min(1.0, (cap / math.exp(u)) ** 2) * math.exp((1.0 - 2.0 * p) * u)

        edge = oracle.TAIL_HORIZON_POLY + 0.5
        lo, mid = math.log(edge), math.log(cap)
        head, _ = quad(envelope, lo, mid, epsrel=1e-12)
        tail, _ = quad(envelope, mid, mid + 100.0, epsrel=1e-12)
        assert oracle._capped_remainder(edge, cap, p) == pytest.approx(head + tail, rel=1e-9)


class TestRiskTerm:
    def test_unit_coordinate_at_full_accuracy(self):
        assert risk_curve(PP, E1, 1.0, 1)[-1] == 1.0

    def test_supported_functional_has_zero_tail(self):
        spec = Custom(coeffs=(0.5, -0.5))
        x = 0.9
        got = risk_curve(PP, spec, x, 2)[-1]
        head = 0.25 / 1.0 + 0.25 / 0.25
        ratio = (2.0 ** -2.0) / (2.0 ** 2.0)
        assert got == pytest.approx(max(ratio, x) * head, rel=1e-14)

    def test_tail_vanishes_past_custom_support(self):
        spec = Custom(coeffs=(0.5, -0.5, 0.25))
        assert oracle.ell_weight_tail(PP, spec, 2) == pytest.approx(0.0625 / 9.0, rel=1e-15)
        for m in (3, 4, 1000):
            assert oracle.ell_weight_tail(PP, spec, m) == 0.0

    def test_tail_term_nonincreasing_in_m(self):
        spec = PointEval(t0=0.3)
        tails = [oracle.ell_weight_tail(PP, spec, m) for m in range(1, 30)]
        assert all(b <= a for a, b in zip(tails, tails[1:]))

    def test_matches_brute_force_summation(self):
        spec = PointEval(t0=0.3)
        for m in (1, 3, 7, 15):
            for x in (1e-4, 1e-2, 1.0):
                got = risk_curve(PP, spec, x, m)[-1]
                want = brute_force_risk(PP, spec, m, x)
                assert got == pytest.approx(want, rel=2e-5)

    def test_out_of_range_x_rejected(self):
        with pytest.raises(ValueError):
            risk_curve(PP, E1, 0.0, 1)
        with pytest.raises(ValueError):
            risk_curve(PP, E1, 1.5, 1)

    def test_past_horizon_rejected_without_finite_support(self):
        with pytest.raises(ValueError, match="exceeds the tail horizon"):
            risk_curve(EP, PointEval(t0=0.3), 0.5, oracle.TAIL_HORIZON_EXP + 1)
        # a finite support ends the tail, so any m_max is allowed
        curve = risk_curve(EP, Custom(coeffs=(0.5, -0.5, 0.25)), 0.5,
                           oracle.TAIL_HORIZON_EXP + 1)
        assert len(curve) == oracle.TAIL_HORIZON_EXP + 1

    def test_divergent_tail_reported(self):
        with pytest.raises(oracle.DivergentTailError):
            risk_curve(PP, DerivativeEval(t0=0.3, q=1), 0.5, 3)

    def test_floor_invariant(self):
        spec = PointEval(t0=0.3)
        for x in (1e-3, 0.1):
            curve = risk_curve(PP, spec, x, 20)
            assert np.all(curve >= x * 1.0 - 1e-15)


class TestMinimaxDimension:
    def test_unit_coordinate_curve(self):
        # for mass on the first coordinate the head sum is constant, so the
        # curve is max(m^(-2p-2a), x): flat minimizer 1 at x = 1, and the
        # first m with m^(-4) <= x otherwise (direct-evaluation oracle)
        m_star, r_star = minimax_dimension(PP, E1, 1.0, m_search=32)
        assert m_star == 1 and r_star == 1.0
        m_star, r_star = minimax_dimension(PP, E1, 1e-3, m_search=32)
        assert m_star == 6
        assert r_star == pytest.approx(1e-3, rel=1e-12)

    def test_enumeration_against_brute_force(self):
        spec = PointEval(t0=0.3)
        risks = [brute_force_risk(PP, spec, m, 1.0) for m in range(1, 33)]
        want = int(np.argmin(risks)) + 1
        got, _ = minimax_dimension(PP, spec, 1.0, m_search=32)
        assert got == want

    def test_pp_point_eval_order(self):
        n = 10 ** 4
        m_star, _ = minimax_dimension(PP, PointEval(t0=0.3), 1.0 / n)
        target = n ** 0.25
        assert target / 2 <= m_star <= target * 2

    def test_boundary_minimizer_warns(self):
        with pytest.warns(RuntimeWarning):
            minimax_dimension(PP, PointEval(t0=0.3), 1e-4, m_search=3)

    def test_risk_level_monotone_in_x(self):
        spec = PointEval(t0=0.3)
        _, r1 = minimax_dimension(PP, spec, 1e-4, m_search=64)
        _, r2 = minimax_dimension(PP, spec, 1e-3, m_search=64)
        _, r3 = minimax_dimension(PP, spec, 1e-2, m_search=64)
        assert r1 <= r2 <= r3


def population_ingredients(spec, slope, sigma, m, theta=0.0):
    """sigma_m^2 and V_m of the population penalty at dimension m."""
    cov = Covariance(PP, len(slope), theta)
    sig_y2, quad, v = oracle._population_quantities(cov, spec, slope, sigma, m)
    return 2.0 * (sig_y2 + float(quad[m - 1])), float(v[m - 1])


class TestTheoreticalPenalty:
    def test_zero_slope(self):
        slope = np.zeros(16)
        sigma_m_sq, _ = population_ingredients(E1, slope, 1.3, 4)
        assert sigma_m_sq == pytest.approx(2 * 1.3 ** 2, rel=1e-14)

    def test_diagonal_quadratic_form_identity(self):
        slope = simulate.make_slope(PP, 32)
        spec = PointEval(t0=0.3)
        gam = sequences.gamma_array(PP, 32)
        for m in (1, 5, 12):
            sigma_m_sq, _ = population_ingredients(spec, slope, 1.0, m)
            direct = float(np.sum(gam[:m] * slope[:m] ** 2))
            sig_y2 = 1.0 + float(np.sum(gam * slope ** 2))
            assert sigma_m_sq == pytest.approx(2 * (sig_y2 + direct), rel=1e-12)

    def test_unit_coordinate_v_term(self):
        slope = simulate.make_slope(PP, 16)
        for m in (1, 4, 9):
            _, v_m = population_ingredients(E1, slope, 1.0, m)
            assert v_m == 1.0

    def test_curve_entry_is_population_penalty(self):
        slope = simulate.make_slope(PP, 32)
        spec = PointEval(t0=0.3)
        curve = theoretical_penalty_curve(Covariance(PP, 32), spec, slope, sigma=1.0,
                                          n=500, m_max=12)
        for m in (1, 5, 12):
            sigma_m_sq, v_m = population_ingredients(spec, slope, 1.0, m)
            p_m = 100.0 * sigma_m_sq * v_m * (1.0 + math.log(500)) / 500
            assert curve[m - 1] == pytest.approx(p_m, rel=1e-14)

    def test_unit_coordinate_penalty(self):
        slope = np.zeros(16)
        curve = theoretical_penalty_curve(Covariance(PP, 16), E1, slope, sigma=1.0,
                                          n=100, m_max=4)
        # sigma_m^2 = 2 and V_m = 1 at every m
        expected = 100.0 * 2.0 * (1.0 + math.log(100)) / 100
        np.testing.assert_allclose(curve, expected, rtol=1e-14)

    def test_penalty_curve_nondecreasing(self):
        slope = simulate.make_slope(PP, 32)
        curve = theoretical_penalty_curve(
            Covariance(PP, 32), PointEval(t0=0.3), slope, sigma=1.0, n=500, m_max=12
        )
        assert np.all(np.diff(curve) >= 0)

    def test_rotated_construction_matches_direct_algebra(self, dense):
        cov = Covariance(PP, 16, theta=0.5)
        slope = simulate.make_slope(PP, 16)
        spec = PointEval(t0=0.3)
        sigma_m_sq, _ = population_ingredients(spec, slope, 1.0, 4, theta=0.5)
        mat = dense(cov)
        g = mat @ slope
        quad = float(g[:4] @ np.linalg.solve(mat[:4, :4], g[:4]))
        sig_y2 = 1.0 + float(slope @ g)
        assert sigma_m_sq == pytest.approx(2 * (sig_y2 + quad), rel=1e-12)

    def test_steep_rotated_weights_give_exact_population_v(self):
        # the 700-digit ratios of the quadratic-form test in test_simulate.py,
        # from the same closed form; a solve over the whole leading block
        # read 0.539, 0.539, 8.8e-3, 5.9e-21, 6.5e-6
        pe = SequenceModel(regime=Regime.PE, p=1.0, a=1.0)
        spec = PointEval(t0=0.3)
        slope = simulate.make_slope(pe, 26)
        _, _, v = oracle._population_quantities(
            Covariance(pe, 26, 0.3), spec, slope, 1.0, 26)
        ell = functionals.coefficients(spec, 26)
        v_gamma = np.cumsum(ell ** 2 / sequences.gamma_array(pe, 26))
        at = np.array([20, 21, 22, 24, 26]) - 1
        np.testing.assert_allclose((v / v_gamma)[at],
                                   [1.529, 1.529, 0.913, 1.697, 1.369], rtol=1e-3)

    def test_mismatched_covariance_rejected(self):
        slope = simulate.make_slope(PP, 16)
        with pytest.raises(ValueError):
            theoretical_penalty_curve(Covariance(PP, 8, 0.0), E1, slope, sigma=1.0,
                                      n=100, m_max=2)


class TestRateExponent:
    def test_pp_point_minimax(self):
        desc = rate_exponent(PP, PointEval(t0=0.3), "minimax")
        assert desc == RateDescriptor(-0.25, 0.0)

    def test_pp_point_adaptive(self):
        desc = rate_exponent(PP, PointEval(t0=0.3), "adaptive")
        assert desc == RateDescriptor(-0.25, 0.25)

    def test_pe_point_same_in_both_modes(self):
        want = RateDescriptor(0.0, -(2 * 1.0 - 1) / (2 * 0.5))
        assert rate_exponent(PE, PointEval(t0=0.3), "minimax") == want
        assert rate_exponent(PE, PointEval(t0=0.3), "adaptive") == want

    # pe and ep with p = 2, a = 1: the labels of ``flradapt rates``
    @pytest.mark.parametrize("model, minimax, adaptive", [
        (PP, RateDescriptor(-(2 + 1) / 4, 0.0), RateDescriptor(-0.75, 0.75)),
        (PE_2, RateDescriptor(0.0, -2.5), RateDescriptor(0.0, -2.5)),
        (EP_2, RateDescriptor(-1.0, 0.25), RateDescriptor(-1.0, 1.25)),
    ], ids=["pp", "pe", "ep"])
    def test_local_average(self, model, minimax, adaptive):
        assert rate_exponent(model, LocalAverage(b=0.5), "minimax") == minimax
        assert rate_exponent(model, LocalAverage(b=0.5), "adaptive") == adaptive

    @pytest.mark.parametrize("model, minimax, adaptive", [
        (SequenceModel(regime=Regime.PP, p=2.0, a=1.0),
         RateDescriptor(-(4 - 2 - 1) / 6, 0.0), RateDescriptor(-1 / 6, 1 / 6)),
        (PE_2, RateDescriptor(0.0, -0.5), RateDescriptor(0.0, -0.5)),
        (EP_2, RateDescriptor(-1.0, 1.25), RateDescriptor(-1.0, 2.25)),
    ], ids=["pp", "pe", "ep"])
    def test_derivative(self, model, minimax, adaptive):
        assert rate_exponent(model, DerivativeEval(t0=0.3, q=1), "minimax") == minimax
        assert rate_exponent(model, DerivativeEval(t0=0.3, q=1), "adaptive") == adaptive

    def test_ep_point_eval(self):
        desc = rate_exponent(EP, PointEval(t0=0.3), "minimax")
        assert desc == RateDescriptor(-1.0, (2 * 1.0 + 1) / (2 * 0.5))
        desc = rate_exponent(EP, PointEval(t0=0.3), "adaptive")
        assert desc == RateDescriptor(-1.0, (2 * 0.5 + 2 * 1.0 + 1) / (2 * 0.5))

    def test_out_of_regime_rejected_with_named_condition(self):
        small_p = SequenceModel(regime=Regime.PP, p=0.4, a=1.5)
        with pytest.raises(oracle.RegimeConditionError, match="p > 1/2"):
            rate_exponent(small_p, PointEval(t0=0.3), "minimax")
        with pytest.raises(oracle.RegimeConditionError, match="q < p - 1/2"):
            rate_exponent(PP, DerivativeEval(t0=0.3, q=1), "minimax")
        tight = SequenceModel(regime=Regime.PP, p=0.6, a=0.6)
        with pytest.raises(oracle.RegimeConditionError, match="p \\+ a"):
            rate_exponent(tight, PointEval(t0=0.3), "minimax")

    def test_custom_functional_has_no_closed_form(self):
        with pytest.raises(oracle.RegimeConditionError):
            rate_exponent(PP, E1, "minimax")

    @pytest.mark.parametrize("model, spec", [
        (SequenceModel(regime=Regime.PP, p=0.5, a=1.0), PointEval(t0=0.3)),
        (PP, E1),
    ], ids=["out_of_regime", "custom"])
    def test_unknown_mode_is_named_before_the_regime_check(self, model, spec):
        with pytest.raises(ValueError, match="got 'bogus'") as err:
            rate_exponent(model, spec, "bogus")
        assert not isinstance(err.value, oracle.RegimeConditionError)

    def test_descriptor_evaluation(self):
        desc = RateDescriptor(-0.25, 0.25)
        assert "n^(-0.25)" in desc.label()


class TestSideCondition:
    def test_ratio_is_small_in_regime(self):
        n = 10 ** 4
        m, _ = minimax_dimension(PP, PointEval(t0=0.3), (1.0 + math.log(n)) / n)
        ratio = oracle.side_condition_ratio(PP, PointEval(t0=0.3), n, m)
        assert 0.0 < ratio < 1.0

    def test_ratio_at_explicit_dimension(self):
        n, m = 10 ** 4, 5
        spec = PointEval(t0=0.3)
        got = oracle.side_condition_ratio(PP, spec, n, m)
        mass = math.fsum(c * c for c in functionals.coefficients(spec, m).tolist())
        want = mass * m ** 2 / (n / (1 + math.log(n)))
        assert got == pytest.approx(want, rel=1e-12)


def penalty_curve_reference(model, spec, slope, sigma, n, m_max, cov=None):
    """The population penalty as computed when it took the model and an
    optional covariance, the diagonal one of the slope's truncation when
    none was given."""
    if cov is None:
        cov = Covariance(model, len(slope), 0.0)
    g = cov.apply(slope)
    sig_y2 = sigma ** 2 + float(slope @ g)
    u_g = cov.leading_factor_solve(g[:m_max])
    u_ell = cov.leading_factor_solve(functionals.coefficients(spec, m_max))
    quad = np.cumsum(u_g * u_g)
    v = np.maximum.accumulate(np.cumsum(u_ell * u_ell))
    factor = adaptive.THEORETICAL_PENALTY_CONSTANT * (1.0 + math.log(n)) / n
    return factor * 2.0 * (sig_y2 + quad) * v


PE_STEEP = SequenceModel(regime=Regime.PE, p=1.0, a=1.0)


# (model, dim, theta, m_max) of every covariance this file hands the
# population penalty; theta = 0 with the default dimension is the
# covariance the model-taking signature built when given none
@pytest.mark.parametrize("model, dim, theta, m_max", [
    (PP, 32, 0.0, 12), (PP, 16, 0.0, 4), (PP, 16, 0.5, 4), (PE_STEEP, 26, 0.3, 26),
])
def test_penalty_curve_keeps_its_values(model, dim, theta, m_max):
    cov = Covariance(model, dim, theta)
    slope = simulate.make_slope(model, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sequences.UnderflowWarning)
        for spec in (PointEval(t0=0.3), E1):
            got = theoretical_penalty_curve(cov, spec, slope, 1.3, 500, m_max)
            want = penalty_curve_reference(model, spec, slope, 1.3, 500, m_max,
                                           None if theta == 0.0 else cov)
            assert np.array_equal(got, want)


# the estimator's penalty on moments that equal the population's is seven
# times the population penalty: one rule, and the constants 700 and 100
@pytest.mark.parametrize("n, m_max", [(500, 4), (8000, 9), (10 ** 6, 31)])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("spec", [PointEval(t0=0.3), LocalAverage(b=0.2)])
@pytest.mark.parametrize("model", [PP, SequenceModel(regime=Regime.PP, p=2.0, a=1.0), EP])
def test_population_penalty_is_the_estimators_rule(dense, model, spec, theta, n, m_max):
    sigma = 1.3
    cov = Covariance(model, simulate.default_truncation(n), theta)
    slope = simulate.make_slope(model, cov.dim)
    mat = dense(cov)
    g = mat @ slope
    mom = Moments(ghat=g[:m_max], gammahat=mat[:m_max, :m_max],
                  sigma2_y_hat=sigma ** 2 + float(slope @ g), n=n)
    got = adaptive.penalties(mom, spec, n, m_max)
    want = theoretical_penalty_curve(cov, spec, slope, sigma, n, m_max)
    np.testing.assert_allclose(got, 7.0 * want, rtol=1e-12)
