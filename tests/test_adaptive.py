import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flradapt import adaptive, estimator, functionals, simulate
from flradapt.adaptive import (
    cap_m_ell,
    cap_m_hat,
    check_selection_bound,
    contrasts,
    penalties,
    select,
)
from flradapt.estimator import Moments
from flradapt.functionals import Custom, PointEval
from flradapt.sequences import Regime, SequenceModel

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)


def injected(gammahat, ghat, n, s2=1.0):
    return Moments(ghat=np.asarray(ghat, float),
                   gammahat=np.asarray(gammahat, float),
                   sigma2_y_hat=s2, n=n)


def sim_data(n=1000, seed=3, model=PP, mixing=0.0):
    cov = simulate.Covariance(model, simulate.default_truncation(n), mixing)
    return simulate.draw_dataset(cov, simulate.make_slope(model, cov.dim), n, 1.0, seed)


class TestCapMEll:
    def test_point_eval_small_sample(self):
        assert cap_m_ell(PointEval(t0=0.0), 16) == 2

    @pytest.mark.parametrize("n", [16, 81, 4096, 10 ** 4])
    def test_unit_mass_reaches_fourth_root(self, n):
        from flradapt._util import floor_fourth_root
        assert cap_m_ell(Custom(coeffs=(1.0,)), n) == floor_fourth_root(n)

    def test_degenerate_mass_warns_and_returns_one(self):
        with pytest.warns(adaptive.DegenerateFunctionalWarning):
            assert cap_m_ell(Custom(coeffs=(10.0, 10.0, 10.0)), 99) == 1

    @pytest.mark.parametrize("n, message", [
        (2500.5, "n must be an integer, got 2500.5"),
        (2500.0, "n must be an integer, got 2500.0"),
        (True, "n must be an integer, got True"),
        (0, "n must be >= 1, got 0"),
    ])
    def test_non_integer_sample_size_refused(self, n, message):
        # before, 2500.5 capped like 2500 and True shared n = 1's cache entry
        with pytest.raises(ValueError, match=message):
            cap_m_ell(PointEval(t0=0.3), n)

    def test_integral_sample_size_of_any_integer_type_accepted(self):
        assert cap_m_ell(PointEval(t0=0.3), np.int64(2500)) == cap_m_ell(PointEval(t0=0.3), 2500)


def cap_from_moments(mom, spec, n):
    """Random dimension bound read off injected moments: inverse norms of
    every leading block up to the deterministic cap, then ``cap_m_hat``."""
    m_ell = min(cap_m_ell(spec, n), mom.dim)
    inv_norms = [estimator.galerkin_estimate(mom, m)[0]
                 for m in range(1, m_ell + 1)]
    return cap_m_hat(inv_norms, functionals.gram_prefix(spec, m_ell), n, m_ell)


class TestCapMHat:
    def test_empty_trigger_set_returns_cap(self):
        mom = injected(np.eye(2), [0.5, 0.5], n=20)
        assert cap_from_moments(mom, Custom(coeffs=(1.0, 1.0, 1.0)), 20) == 2

    def test_trigger_at_two_gives_one(self):
        n = 100
        mom = injected(np.diag([1.0, 1e-9]), [0.5, 0.5], n=n)
        assert cap_from_moments(mom, Custom(coeffs=(1.0, 1.0, 1.0)), n) == 1

    def test_singular_block_counts_as_infinite_norm(self):
        n = 100
        mom = injected(np.outer([1, 0], [1, 0]), [0.5, 0.5], n=n)
        assert cap_from_moments(mom, Custom(coeffs=(1.0, 1.0)), n) == 1

    def test_singular_block_ends_set_whatever_the_mass(self):
        assert cap_m_hat([1.0, math.inf, 1.0], [0.0, 0.0, 1.0], 100, 3) == 1

    def test_agrees_with_pipeline_on_simulated_draws(self):
        for seed in range(3):
            data = sim_data(n=900, seed=seed)
            spec = PointEval(t0=0.3)
            result = adaptive.adaptive_estimate(data, spec)
            mom = estimator.empirical_moments(data, result.m_ell_cap)
            assert cap_from_moments(mom, spec, data.n) == result.m_hat_cap


class TestPenalties:
    def test_constant_block_example(self):
        n = math.e - 1.0
        mom = injected(np.eye(3), [0.0, 0.0, 0.0], n=10, s2=1.0)
        pen = penalties(mom, Custom(coeffs=(1.0,)), n, 3)
        want = 700.0 * 2.0 * 1.0 * (1.0 + math.log(n)) / n
        np.testing.assert_allclose(pen, want, rtol=1e-14)

    def test_response_scale_quadruples_noise_term(self):
        mom1 = injected(np.eye(2), [0.0, 0.0], n=50, s2=1.0)
        mom4 = injected(np.eye(2), [0.0, 0.0], n=50, s2=4.0)
        spec = Custom(coeffs=(1.0, 1.0))
        np.testing.assert_allclose(
            penalties(mom4, spec, 50, 2), 4.0 * penalties(mom1, spec, 50, 2),
            rtol=1e-15,
        )

    def test_nondecreasing_on_simulated_draws(self):
        for seed in range(5):
            data = sim_data(n=600, seed=seed)
            result = adaptive.adaptive_estimate(data, PointEval(t0=0.3))
            assert np.all(np.diff(result.penalties) >= 0)

    def test_singular_block_is_signalled(self):
        mom = injected(np.outer([1, 0], [1, 0]), [1.0, 0.0], n=50)
        with pytest.raises(adaptive.AdaptiveEstimationError):
            penalties(mom, Custom(coeffs=(1.0, 1.0)), 50, 2)


def contrasts_reference(estimates, penalties) -> np.ndarray:
    """The per-m loop that ``contrasts`` replaces by one broadcast."""
    est = np.asarray(estimates, dtype=np.float64)
    pen = np.asarray(penalties, dtype=np.float64)
    out = np.empty(len(est))
    for m in range(len(est)):
        out[m] = np.max((est[m:] - est[m]) ** 2 - pen[m:])
    return out


# finite estimates, many of them drawn from a small pool so that ties and
# repeated values are common; |x| <= 1e150 keeps every squared gap finite
ESTIMATE = st.floats(-1e150, 1e150, allow_nan=False)
PENALTY = st.floats(0.0, 1e300, allow_nan=False)


@st.composite
def contrast_inputs(draw):
    size = draw(st.integers(1, 100))
    if draw(st.booleans()):
        pool = draw(st.lists(ESTIMATE, min_size=1, max_size=4))
        est = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    else:
        est = draw(st.lists(ESTIMATE, min_size=size, max_size=size))
    pen = sorted(draw(st.lists(PENALTY, min_size=size, max_size=size)))
    return np.array(est), np.array(pen)


class TestContrastsAndSelect:
    @given(contrast_inputs())
    @settings(max_examples=300, deadline=None)
    def test_broadcast_matches_reference_bit_for_bit(self, inputs):
        est, pen = inputs
        got = contrasts(est, pen)
        want = contrasts_reference(est, pen)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_constant_estimates(self):
        pen = np.array([0.5, 1.0, 2.0])
        kap = contrasts(np.array([3.0, 3.0, 3.0]), pen)
        np.testing.assert_array_equal(kap, -pen)

    def test_singleton_window(self):
        np.testing.assert_array_equal(
            contrasts(np.array([1.7]), np.array([0.4])), [-0.4]
        )

    def test_two_point_example(self):
        kap = contrasts(np.array([0.0, 3.0]), np.array([1.0, 2.0]))
        np.testing.assert_array_equal(kap, [7.0, -2.0])

    def test_select_smallest_minimizer(self):
        assert select(np.array([5.0, 3.0, 3.0]), np.zeros(3)) == 2
        assert select(np.array([2.0]), np.array([0.0])) == 1
        assert select(np.array([2.0, 7.0]), np.zeros(2)) == 1

    @pytest.mark.parametrize("kap, pen", [
        ([math.nan, 1.0], [0.0, 0.0]),
        ([1.0, 2.0], [0.0, math.inf]),
        ([-math.inf, 1.0], [0.0, 0.0]),
    ])
    def test_select_refuses_a_non_finite_objective(self, kap, pen):
        # argmin takes a NaN for the minimum: [nan, 1.0] selected m = 1
        with pytest.raises(ValueError, match="must be finite"):
            select(np.array(kap), np.array(pen))

    def test_window_lower_bound(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=8)
        pen = np.sort(rng.uniform(0, 1, 8))
        kap = contrasts(est, pen)
        assert np.all(kap >= -pen)

    @given(st.integers(min_value=1, max_value=12), st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_objective_floor_is_attained(self, m, seed):
        # contrast + penalty is >= 0 with value 0 at the top dimension, so the
        # selection always exists and never exceeds the window
        rng = np.random.default_rng(seed)
        est = rng.normal(size=m)
        pen = np.sort(rng.uniform(0, 1, m))
        kap = contrasts(est, pen)
        obj = kap + pen
        assert np.all(obj >= 0)
        assert obj[-1] == 0.0
        assert 1 <= select(kap, pen) <= m


class TestDecide:
    def test_bits_of_the_pipeline_and_one_penalty_call(self):
        # the collinear draw ends the candidate set below m_ell, so the
        # penalties stop at m_hat_cap there
        spec = PointEval(t0=0.3)
        draws = [sim_data(n=900, seed=seed) for seed in range(3)] + [collinear_data()]
        for data in draws:
            want = adaptive.adaptive_estimate(data, spec)
            mom = estimator.empirical_moments(data, want.m_ell_cap)
            calls = []

            def penalty(k):
                calls.append(k)
                return penalties(mom, spec, data.n, k)

            est_all = want.diagnostics["estimates_all"]
            inv_norms = want.diagnostics["inv_spectral_norms"]
            got = adaptive.decide(data.n, spec, est_all, inv_norms, penalty, {})
            assert calls == [want.m_hat_cap]
            assert (got.m_ell_cap, got.m_hat_cap, got.selected) == \
                (want.m_ell_cap, want.m_hat_cap, want.selected)
            for name in ("value", "penalties", "contrasts", "estimates"):
                assert np.float64(getattr(got, name)).tobytes() == \
                    np.float64(getattr(want, name)).tobytes(), name
            assert list(got.diagnostics) == ["estimates_all", "inv_spectral_norms"]
        assert want.m_hat_cap < want.m_ell_cap

    def test_singular_first_block_raises_before_any_penalty(self):
        calls = []
        with pytest.raises(adaptive.AdaptiveEstimationError, match="no invertible"):
            adaptive.decide(100, Custom(coeffs=(1.0, 1.0)), np.zeros(2),
                            np.array([math.inf, 1.0]), calls.append, {})
        assert calls == []

    @pytest.mark.parametrize("n, inv_norms, message", [
        (True, [1.0, 1.0], "n must be an integer, got True"),
        (500.5, [1.0, 1.0], "n must be an integer, got 500.5"),
        (1, [1.0, 1.0], "n must be >= 2, got 1"),
        (500, [1.0], "length of est_all, 2, got 1"),
        (500, [1.0, 1.0, 1.0], "length of est_all, 2, got 3"),
    ])
    def test_invalid_n_or_forms_raise_before_any_penalty(self, n, inv_norms, message):
        calls = []
        with pytest.raises(ValueError, match=message):
            adaptive.decide(n, Custom(coeffs=(1.0, 1.0)), np.zeros(2),
                            np.array(inv_norms), calls.append, {})
        assert calls == []

    def test_diagnostics_keep_their_order(self):
        # the cap at n = 10^4 exceeds the data's three columns: the clip
        # comes first, the moments' own entry last
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10 ** 4, 3))
        data = simulate.Dataset(y=x @ [1.0, 0.5, 0.25] + rng.standard_normal(10 ** 4), x=x)
        result = adaptive.adaptive_estimate(data, PointEval(t0=0.3))
        assert list(result.diagnostics) == ["m_ell_clipped_to_data", "estimates_all",
                                            "inv_spectral_norms", "sigma2_y_hat"]


def collinear_data():
    """16 draws whose first two columns coincide: the block at m = 2 is
    singular."""
    rng = np.random.default_rng(9)
    col = rng.standard_normal(16)
    x = np.column_stack([col, col, rng.standard_normal(16)])
    y = col + 0.1 * rng.standard_normal(16)
    return simulate.Dataset(y=y, x=x)


class TestAdaptiveEstimate:
    def test_zero_response_gives_zero_value(self):
        rng = np.random.default_rng(8)
        data = simulate.Dataset(y=np.zeros(64), x=rng.standard_normal((64, 16)))
        result = adaptive.adaptive_estimate(data, PointEval(t0=0.3))
        assert result.value == 0.0
        assert np.all(result.estimates == 0.0)

    def test_collinear_columns_collapse_candidate_set(self):
        result = adaptive.adaptive_estimate(collinear_data(), Custom(coeffs=(1.0, 1.0)))
        assert result.m_hat_cap == 1
        assert result.selected == 1
        assert result.value == result.estimates[0]

    def test_singular_block_without_mass_ends_candidate_set(self):
        # zero coefficient mass at the singular block: the bound must not
        # hinge on inf * 0, and no second pass over the penalties is needed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = adaptive.adaptive_estimate(collinear_data(),
                                                Custom(coeffs=(0.0, 0.0, 1.0)))
        assert result.m_hat_cap == 1
        assert "penalty_truncated_at" not in result.diagnostics

    @pytest.mark.parametrize("scale", [0.0, 1e-5])
    def test_thresholded_dimension_estimates_positive_zero(self, scale):
        # a second column of zero or tiny variance thresholds every m >= 2,
        # singular or with inverse norm above n; with negative coefficients
        # a dot product with zeros would give -0.0
        rng = np.random.default_rng(6)
        x = rng.standard_normal((256, 4))
        x[:, 1] *= scale
        data = simulate.Dataset(y=x @ [1.0, 2.0, -1.0, 0.5] + rng.standard_normal(256), x=x)
        result = adaptive.adaptive_estimate(data, Custom(coeffs=(-1.0, -0.5, -0.25, -0.125)))
        assert result.m_ell_cap == 4
        assert np.all(result.diagnostics["inv_spectral_norms"][1:] > data.n)
        assert result.diagnostics["estimates_all"][0] != 0.0
        for value in result.diagnostics["estimates_all"][1:]:
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_singular_first_block_raises(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.zeros(16), rng.standard_normal((16, 2))])
        data = simulate.Dataset(y=rng.standard_normal(16), x=x)
        with pytest.raises(adaptive.AdaptiveEstimationError,
                           match="no invertible moment block"):
            adaptive.adaptive_estimate(data, PointEval(t0=0.3))

    def test_cap_chain_on_simulated_draws(self):
        from flradapt._util import floor_fourth_root
        for seed in range(4):
            n = 700 + 137 * seed
            data = sim_data(n=n, seed=seed)
            result = adaptive.adaptive_estimate(data, PointEval(t0=0.3))
            assert 1 <= result.selected <= result.m_hat_cap
            assert result.m_hat_cap <= result.m_ell_cap <= floor_fourth_root(n)

    def test_response_scaling_equivariance(self):
        # doubling y (a power of two) scales estimates exactly and cannot
        # move the selected dimension
        data = sim_data(n=800, seed=12)
        spec = PointEval(t0=0.3)
        base = adaptive.adaptive_estimate(data, spec)
        doubled = adaptive.adaptive_estimate(
            simulate.Dataset(y=2.0 * data.y, x=data.x), spec
        )
        assert doubled.selected == base.selected
        np.testing.assert_array_equal(doubled.estimates, 2.0 * base.estimates)
        np.testing.assert_array_equal(doubled.penalties, 4.0 * base.penalties)
        assert doubled.value == 2.0 * base.value

    def test_top_contrast_equals_negated_penalty(self):
        data = sim_data(n=900, seed=21)
        result = adaptive.adaptive_estimate(data, PointEval(t0=0.3))
        assert result.contrasts[-1] == -result.penalties[-1]

    def test_needs_two_observations(self):
        data = simulate.Dataset(y=np.ones(1), x=np.ones((1, 4)))
        with pytest.raises(ValueError):
            adaptive.adaptive_estimate(data, PointEval(t0=0.3))

    def test_record_round_trips_through_json(self):
        # standard JSON: a duplicated column's singular blocks have infinite
        # inverse norms, which the record writes as null, not Infinity
        import json

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        base = sim_data(n=300, seed=2)
        x = base.x.copy()
        x[:, 2] = x[:, 1]
        for data in (sim_data(n=600, seed=2), simulate.Dataset(y=base.y, x=x)):
            result = adaptive.adaptive_estimate(data, PointEval(t0=0.3))
            back = json.loads(json.dumps(result.to_record()), parse_constant=refuse)
            assert back["selected"] == result.selected
            assert back["value"] == result.value
            assert len(back["penalties"]) == result.m_hat_cap
        norms = result.diagnostics["inv_spectral_norms"]
        assert back["diagnostics"]["inv_spectral_norms"] == [
            v if math.isfinite(v) else None for v in norms.tolist()]
        assert None in back["diagnostics"]["inv_spectral_norms"]


class TestSelectionBound:
    def test_zero_errors_pass(self):
        est = np.full(5, 2.5)
        pen = np.linspace(0.1, 0.5, 5)
        out = check_selection_bound(est, pen, est, 2.5)
        assert out.passed and out.lhs == 0.0

    def test_single_model_reduction(self):
        est, pen, approx, target = [1.3], [0.2], [0.9], 0.4
        out = check_selection_bound(est, pen, approx, target)
        lhs = (1.3 - 0.4) ** 2
        rhs = (7 * 0.2 + 78 * (0.9 - 0.4) ** 2
               + 42 * max((1.3 - 0.9) ** 2 - 0.2 / 6, 0.0))
        assert out.passed == (lhs <= rhs)
        assert out.selected == 1

    def test_nonmonotone_penalties_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            check_selection_bound([0.0, 0.0], [1.0, 0.5], [0.0, 0.0], 0.0)
        # a non-finite input can make both sides NaN or infinite, and then
        # no m fails
        valid = ([100.0, 5.0], [0.1, 0.2], [0.0, 0.0], 0.0)
        for pos in range(4):
            for bad in (math.nan, math.inf, -math.inf):
                args = list(valid)
                args[pos] = bad if pos == 3 else [args[pos][0], bad]
                with pytest.raises(ValueError, match="finite"):
                    check_selection_bound(*args)

    @given(st.integers(0, 10 ** 9))
    @settings(max_examples=80, deadline=None)
    def test_random_instance_property(self, seed):
        # covers criterion 1's space (m <= 20, values on [-10, 10],
        # penalties on [0, 1]) and penalties up to 2
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 21))
        out = check_selection_bound(
            rng.uniform(-10, 10, m), np.sort(rng.uniform(0, 2, m)),
            rng.uniform(-10, 10, m), float(rng.uniform(-10, 10)),
        )
        assert out.passed, (out.witness, out.lhs, out.rhs_at_witness)

    def test_bound_holds_on_estimator_output(self):
        # diagonal covariance: the dimension-k approximant of the target is
        # exactly <l_{1:k}, phi_{1:k}>, so the bound is checkable per draw
        spec = PointEval(t0=0.3)
        checked = violations = 0
        for n in (256, 1024, 4096):
            cov = simulate.Covariance(PP, simulate.default_truncation(n))
            slope = simulate.make_slope(PP, cov.dim)
            target = simulate.true_value(spec, slope)
            for rep in range(10):
                data = simulate.draw_dataset(cov, slope, n, 1.0, 500 + rep)
                result = adaptive.adaptive_estimate(data, spec)
                m = result.m_hat_cap
                approx = np.cumsum(functionals.coefficients(spec, m) * slope[:m])
                out = check_selection_bound(result.estimates, result.penalties,
                                            approx, target)
                checked += 1
                violations += not out.passed
        assert checked == 30 and violations == 0
