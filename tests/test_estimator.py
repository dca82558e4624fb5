import math

import numpy as np
import pytest

from flradapt import functionals, sequences, simulate
from flradapt.estimator import (
    SINGULARITY_RTOL,
    Moments,
    empirical_moments,
    galerkin_estimate,
    solve_block,
)
from flradapt.functionals import DerivativeEval, LocalAverage, PointEval
from flradapt.sequences import Regime, SequenceModel

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)


def sim_data(n=2000, seed=5, model=PP):
    cov = simulate.Covariance(model, simulate.default_truncation(n))
    return simulate.draw_dataset(cov, simulate.make_slope(model, cov.dim), n, 1.0, seed)


def injected_moments(gammahat, ghat, n=10 ** 6, s2=1.0):
    return Moments(ghat=np.asarray(ghat, float),
                   gammahat=np.asarray(gammahat, float),
                   sigma2_y_hat=s2, n=n)


def plug_in(spec, mom, m):
    """Functional value of the thresholded solve at m, as the adaptive
    estimator forms it: exactly 0.0 when thresholded."""
    _, coeffs = galerkin_estimate(mom, m)
    if coeffs is None:
        return 0.0
    return float(functionals.coefficients(spec, m) @ coeffs)


class TestEmpiricalMoments:
    def test_single_sample(self):
        data = simulate.Dataset(y=np.array([2.0]),
                                x=np.array([[1.0, 0.0, 0.0]]))
        mom = empirical_moments(data, 3)
        np.testing.assert_array_equal(mom.ghat, [2.0, 0.0, 0.0])
        np.testing.assert_array_equal(mom.gammahat,
                                      np.outer([1, 0, 0], [1, 0, 0]))
        assert mom.sigma2_y_hat == 4.0

    def test_gram_matrix_is_psd(self):
        mom = empirical_moments(sim_data(), 8)
        assert np.linalg.eigvalsh(mom.gammahat)[0] > -1e-10

    def test_truncation_nesting(self):
        # recomputation at a smaller M agrees up to BLAS rounding
        data = sim_data()
        big = empirical_moments(data, 8)
        small = empirical_moments(data, 3)
        np.testing.assert_allclose(big.gammahat[:3, :3], small.gammahat,
                                   rtol=1e-13)
        np.testing.assert_allclose(big.ghat[:3], small.ghat, rtol=1e-13)

    def test_dimension_beyond_data_rejected(self):
        data = sim_data()
        with pytest.raises(ValueError):
            empirical_moments(data, data.dim + 1)

    def test_diagonal_entry_concentrates(self):
        n = 10 ** 5
        data = sim_data(n, seed=29)
        mom = empirical_moments(data, 8)
        for j in (1, 3, 8):
            lam = j ** -2.0
            se = lam * math.sqrt(2.0 / n)
            assert abs(mom.gammahat[j - 1, j - 1] - lam) < 3 * se

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            injected_moments([[1.0, 0.5], [0.4, 1.0]], [0.0, 0.0])


class TestMomentsOwnTheirArrays:
    def test_changing_the_callers_arrays_leaves_the_estimate(self):
        # g[0, 1] = 0.9 makes g an asymmetric matrix that Moments refuses;
        # a Moments sharing g would solve with eigh's lower triangle
        ghat, g = np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
        mom = Moments(ghat, g, 1.0, 100)
        inv_norm, coeffs = galerkin_estimate(mom, 2)
        g[0, 1] = 0.9
        ghat[0] = -3.0
        again_norm, again = galerkin_estimate(mom, 2)
        assert again_norm == inv_norm and np.array_equal(again, coeffs)
        np.testing.assert_allclose(coeffs, np.linalg.solve([[2.0, 0.5], [0.5, 1.0]],
                                                           [1.0, 2.0]), atol=1e-14)

    def test_arrays_are_read_only(self):
        mom = Moments(np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]), 1.0, 100)
        with pytest.raises(ValueError):
            mom.gammahat[0, 1] = 0.9
        with pytest.raises(ValueError):
            mom.ghat[0] = 0.0


class TestMomentsRefuseInvalidInput:
    @pytest.mark.parametrize("change, message", [
        ({"sigma2_y_hat": math.nan}, "sigma2_y_hat must be finite"),
        ({"sigma2_y_hat": math.inf}, "sigma2_y_hat must be finite"),
        ({"sigma2_y_hat": -1.0}, "sigma2_y_hat must be finite and non-negative"),
        ({"ghat": [math.inf, 0.0]}, "entries must all be finite"),
        ({"ghat": [0.0, math.nan]}, "entries must all be finite"),
        # a NaN in the upper triangle alone: eigvalsh reads the lower one
        ({"gammahat": [[2.0, math.nan], [0.5, 1.0]]}, "entries must all be finite"),
        ({"gammahat": [[math.nan, 0.5], [0.5, 1.0]]}, "entries must all be finite"),
        ({"gammahat": [[2.0, math.inf], [math.inf, 1.0]]}, "entries must all be finite"),
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"n": 2.5}, "n must be an integer, got 2.5"),
        ({"n": True}, "n must be an integer, got True"),
        # a column or a scalar is no ghat: a column solved to a 2 x 2 array
        # of "coefficients" whose penalties failed with a TypeError
        ({"ghat": [[1.0], [2.0]]}, "ghat must be 1-d"),
        ({"ghat": 1.0, "gammahat": [[1.0]]}, "ghat must be 1-d"),
    ])
    def test_invalid_moments_rejected(self, change, message):
        kwargs = dict(ghat=[1.0, 2.0], gammahat=[[2.0, 0.5], [0.5, 1.0]],
                      sigma2_y_hat=1.0, n=100)
        kwargs.update(change)
        with pytest.raises(ValueError, match=message):
            Moments(**kwargs)

    def test_integral_sample_size_of_any_integer_type_accepted(self):
        mom = Moments(np.ones(1), np.ones((1, 1)), 1.0, np.int64(100))
        assert mom.n == 100 and type(mom.n) is int


TWO = injected_moments(np.eye(2), [1.0, 2.0], n=100)


class TestDimensionsAreIntegers:
    # before, 2.5 failed in slicing with a TypeError and True solved at m = 1
    @pytest.mark.parametrize("call, message", [
        (lambda: galerkin_estimate(TWO, 2.5), "m must be an integer, got 2.5"),
        (lambda: galerkin_estimate(TWO, 2.0), "m must be an integer, got 2.0"),
        (lambda: solve_block(TWO, True, np.ones(2)), "m must be an integer, got True"),
        (lambda: solve_block(TWO, 0, np.ones(2)), "m must be >= 1, got 0"),
        (lambda: empirical_moments(sim_data(n=64), 2.5), "M must be an integer, got 2.5"),
        (lambda: empirical_moments(sim_data(n=64), True), "M must be an integer, got True"),
    ], ids=["galerkin-2.5", "galerkin-2.0", "solve-True", "solve-0", "moments-2.5",
            "moments-True"])
    def test_non_integer_dimension_refused(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_integral_dimension_of_any_integer_type_accepted(self):
        data = sim_data(n=64)
        assert np.array_equal(empirical_moments(data, np.int64(3)).gammahat,
                              empirical_moments(data, 3).gammahat)
        assert np.array_equal(galerkin_estimate(TWO, np.int32(2))[1],
                              galerkin_estimate(TWO, 2)[1])


class TestSpectralNormInverse:
    # the inverse norm the threshold rule reads, on the leading full block
    @staticmethod
    def inv_norm(mat):
        mat = np.asarray(mat, float)
        inv_norm, _ = galerkin_estimate(injected_moments(mat, np.zeros(len(mat))),
                                        len(mat))
        return inv_norm

    def test_identity(self):
        assert self.inv_norm(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert self.inv_norm(np.diag([4.0, 1 / 9])) == pytest.approx(9.0, rel=1e-15)

    def test_rank_one_is_singular(self):
        assert self.inv_norm(np.outer([1.0, 0.0], [1.0, 0.0])) == math.inf

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError):
            self.inv_norm([[1.0, 1.0], [0.0, 1.0]])


class TestGalerkinEstimate:
    def test_identity_solve_returns_ghat(self):
        mom = injected_moments(np.eye(4), [1.0, -2.0, 0.5, 3.0])
        _, coeffs = galerkin_estimate(mom, 4)
        assert coeffs is not None
        np.testing.assert_allclose(coeffs, mom.ghat, rtol=1e-14)

    def test_singular_block_thresholds_to_zero(self):
        mom = injected_moments(np.outer([1, 0], [1, 0]), [1.0, 1.0])
        inv_norm, coeffs = galerkin_estimate(mom, 2)
        assert coeffs is None
        assert inv_norm == math.inf

    def test_inverse_norm_above_sample_size_thresholds(self):
        n = 100
        mom = injected_moments(np.diag([1.0, 1.0 / (2 * n)]), [1.0, 1.0], n=n)
        inv_norm, coeffs = galerkin_estimate(mom, 2)
        assert coeffs is None
        assert inv_norm == pytest.approx(2 * n, rel=1e-12)

    def test_residual_accuracy_on_simulated_draws(self):
        data = sim_data(n=5000, seed=31)
        mom = empirical_moments(data, 8)
        for m in range(1, 9):
            _, coeffs = galerkin_estimate(mom, m)
            assert coeffs is not None
            resid = mom.gammahat[:m, :m] @ coeffs - mom.ghat[:m]
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(mom.ghat[:m])

    def test_nestedness(self):
        # the solve at m reads only the leading m x m block and first m
        # entries: truncating the moment arrays changes nothing, bit for bit
        data = sim_data(seed=37)
        mom = empirical_moments(data, 8)
        small = Moments(ghat=mom.ghat[:3].copy(),
                        gammahat=mom.gammahat[:3, :3].copy(),
                        sigma2_y_hat=mom.sigma2_y_hat, n=mom.n)
        np.testing.assert_array_equal(galerkin_estimate(mom, 3)[1],
                                      galerkin_estimate(small, 3)[1])

    def test_monotone_quadratic_form(self):
        data = sim_data(n=5000, seed=41)
        mom = empirical_moments(data, 8)
        quad = []
        for m in range(1, 9):
            _, coeffs = galerkin_estimate(mom, m)
            assert coeffs is not None
            quad.append(float(mom.ghat[:m] @ coeffs))
        assert all(b >= a - 1e-12 for a, b in zip(quad, quad[1:]))


    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("side, singular", [(1 + 1e-6, False), (1 - 1e-6, True)])
    def test_singularity_agrees_with_solve_block(self, m, side, singular):
        # lambda_min just above or below SINGULARITY_RTOL * trace / m; a
        # diagonal block gives eigh its eigenvalues exactly
        head = [1.0, 0.5][:m - 1]
        boundary = SINGULARITY_RTOL * sum(head) / (m - SINGULARITY_RTOL)
        mom = injected_moments(np.diag(head + [side * boundary]), np.ones(m))
        inv_norm, coeffs = galerkin_estimate(mom, m)
        assert math.isinf(inv_norm) is singular
        assert (solve_block(mom, m, mom.ghat) is None) is singular
        assert coeffs is None


class TestPlugIn:
    def test_thresholded_fit_gives_zero(self):
        mom = injected_moments(np.outer([1, 0], [1, 0]), [1.0, 1.0])
        assert plug_in(PointEval(t0=0.3), mom, 2) == 0.0

    def test_first_coordinate(self):
        mom = injected_moments(np.eye(1), [1.0])
        assert plug_in(PointEval(t0=0.0), mom, 1) == 1.0

    def test_diagonal_solve_recovers_linear_combination(self):
        gam = np.array([1.0, 0.25, 1 / 9, 0.0625])
        c = np.array([0.3, -1.2, 0.7, 0.05])
        mom = injected_moments(np.diag(gam), gam * c)
        spec = PointEval(t0=0.3)
        want = float(functionals.coefficients(spec, 4) @ c)
        assert plug_in(spec, mom, 4) == pytest.approx(
            want, rel=1e-13
        )

    @pytest.mark.parametrize(
        "spec",
        [PointEval(t0=0.3), DerivativeEval(t0=0.3, q=1), LocalAverage(b=0.5)],
    )
    def test_population_diagonal_injection_all_families(self, spec):
        # injecting the population moments must reproduce the truncated
        # functional value coordinate by coordinate
        J = 32
        gam = sequences.gamma_array(PP, J)
        slope = simulate.make_slope(PP, J)
        mom = injected_moments(np.diag(gam), gam * slope, n=10 ** 9)
        for m in (1, 5, 17, 32):
            want = float(functionals.coefficients(spec, m) @ slope[:m])
            got = plug_in(spec, mom, m)
            assert abs(got - want) < 1e-10
