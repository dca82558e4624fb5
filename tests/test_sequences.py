import math
import warnings

import numpy as np
import pytest

from flradapt import oracle, sequences
from flradapt.functionals import DerivativeEval, PointEval
from flradapt.sequences import Regime, SequenceModel, gamma_array, log_beta_array


PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)
PE = SequenceModel(regime=Regime.PE, p=1.0, a=0.5)
EP = SequenceModel(regime=Regime.EP, p=0.5, a=1.0)

WINDOW = 10 ** 6


class TestWeightFormulas:
    def test_pp_beta_is_polynomial(self):
        assert log_beta_array(PP, 3)[2] == 2.0 * math.log(3.0)

    def test_ep_beta_exponential(self):
        assert log_beta_array(EP, 4)[3] == 3.0

    def test_pp_gamma_is_polynomial(self):
        assert gamma_array(PP, 4)[3] == 1.0 / 16.0

    def test_pe_gamma_exponential(self):
        assert gamma_array(PE, 3)[2] == pytest.approx(math.exp(-2.0), rel=1e-15)

    @pytest.mark.parametrize("weights", [gamma_array, sequences.log_gamma_array,
                                         log_beta_array])
    @pytest.mark.parametrize("j_max", [6.5, True, np.float64(8.0)])
    def test_count_must_be_an_integer(self, weights, j_max):
        # 6.5 built 7 weights before
        with pytest.raises(ValueError, match="j_max must be an integer"):
            weights(PP, j_max)

    @pytest.mark.parametrize("model", [PP, PE, EP])
    def test_first_weights_are_one(self, model):
        assert log_beta_array(model, 1)[0] == 0.0
        assert gamma_array(model, 1)[0] == 1.0

    @pytest.mark.parametrize("model", [PP, PE, EP])
    def test_monotonicity_on_window(self, model):
        lb = log_beta_array(model, 1000)
        lg = sequences.log_gamma_array(model, 1000)
        assert np.all(np.diff(lb) >= 0)
        assert np.all(np.diff(lg) <= 0)

    def test_deterministic(self):
        betas = [log_beta_array(PE, 17) for _ in range(5)]
        gammas = [gamma_array(PE, 17) for _ in range(5)]
        assert all(np.array_equal(b, betas[0]) for b in betas)
        assert all(np.array_equal(g, gammas[0]) for g in gammas)

    def test_pp_product_cancels_when_p_equals_a(self):
        # with p = a the two logs are +-2 p log j, so they cancel exactly
        total = log_beta_array(PP, 199) + sequences.log_gamma_array(PP, 199)
        assert np.all(total == 0.0)

    def test_bounds(self):
        # every index of the window 1..10^6: log beta >= 0, so beta >= 1,
        # and 0 < gamma <= 1 after clamping
        for model in (PP, PE, EP):
            assert np.all(log_beta_array(model, WINDOW) >= 0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sequences.UnderflowWarning)
                g = gamma_array(model, WINDOW)
            assert np.all((0.0 < g) & (g <= 1.0))


class TestSaturationAndUnderflow:
    def test_pe_underflow_flagged_and_clamped(self):
        with pytest.warns(sequences.UnderflowWarning):
            g = gamma_array(PE, 1000)
        assert g[-1] == sequences.MIN_NORMAL

    def test_array_values_match_closed_forms(self):
        lb = log_beta_array(EP, 50)
        assert lb[3] == 4.0 ** (2.0 * EP.p) - 1.0
        # log space holds weights far past the double range: beta_{10^6} = e^(10^6 - 1)
        assert log_beta_array(EP, 10 ** 6)[-1] == 10 ** 6 - 1.0
        ga = gamma_array(PP, 50)
        assert ga[7] == 8.0 ** (-2.0 * PP.a)


class TestModelValidation:
    def test_pp_needs_a_above_half(self):
        with pytest.raises(ValueError):
            SequenceModel(regime=Regime.PP, p=1.0, a=0.5)

    def test_pe_accepts_small_a(self):
        SequenceModel(regime=Regime.PE, p=1.0, a=0.25)

    def test_ep_needs_a_above_half_and_positive_p(self):
        with pytest.raises(ValueError):
            SequenceModel(regime=Regime.EP, p=0.5, a=0.4)
        with pytest.raises(ValueError):
            SequenceModel(regime=Regime.EP, p=0.0, a=1.0)

    def test_radius_and_link_constant(self):
        with pytest.raises(ValueError):
            SequenceModel(regime=Regime.PP, p=1.0, a=1.0, r=0.0)

    def test_regime_coercion_from_string(self):
        m = SequenceModel(regime="pp", p=1.0, a=1.0)
        assert m.regime is Regime.PP


class TestAssumptionChecks:
    """The standing summability assumptions: ``SequenceModel`` admits only
    summable eigenvalue weights, and the tail total behind
    ``oracle.risk_curve`` (so ``oracle.minimax_dimension`` and ``flradapt
    rates``) and ``oracle.ell_weight_tail`` raises ``DivergentTailError``
    when sum_j l_j^2 / beta_j diverges."""

    def test_constant_coefficients_converge_under_pp(self):
        # point evaluation: l_j^2 averages 1, so the terms are of order j^-2
        tail = oracle.ell_weight_tail(PP, PointEval(t0=0.3), 0)
        assert math.isfinite(tail)
        assert 1.0 < tail < 1.0 + 2.0 * (math.pi ** 2 / 6)

    def test_eigenvalue_sum_converges_under_pp(self):
        # partial sum of j^-2 approaches pi^2/6
        assert float(np.sum(gamma_array(PP, 10 ** 4))) == pytest.approx(
            math.pi ** 2 / 6, abs=2e-4)

    def test_growing_coefficients_flagged_divergent(self):
        # first derivative: l_j^2 grows like j^2 against beta_j = j^0.2
        model = SequenceModel(regime=Regime.PP, p=0.1, a=1.0)
        with pytest.raises(oracle.DivergentTailError):
            oracle.ell_weight_tail(model, DerivativeEval(t0=0.3, q=1), 1)

    def test_boundary_harmonic_case_not_certified(self):
        # terms ~ 1/j: l_j^2 averages 1 against beta_j = j
        model = SequenceModel(regime=Regime.PP, p=0.5, a=1.0)
        with pytest.raises(oracle.DivergentTailError):
            oracle.ell_weight_tail(model, PointEval(t0=0.3), 1)

    def test_exponential_terms_hit_cauchy_cut(self):
        # exponential regularity weights outgrow any polynomial coefficient
        # growth; the terms underflow long before the horizon
        tail = oracle.ell_weight_tail(EP, DerivativeEval(t0=0.3, q=3), 0)
        assert math.isfinite(tail) and tail > 0.0
