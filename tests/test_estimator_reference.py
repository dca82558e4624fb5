"""The estimator against a reference copy of its earlier form.

The reference below is the estimator as it stood before its per-replicate
fixed costs were cut: it measures the asymmetry of every moment matrix,
recomputes the deterministic cap on every call, forms the mean square with
``(y ** 2).mean()`` and the contrasts with one out-of-place broadcast.  The
library must give the same bits on every path: value, selection, caps,
penalties, contrasts, every estimate, every inverse norm and the mean
square of the responses.
"""
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flradapt import adaptive, estimator, functionals, simulate
from flradapt._util import floor_fourth_root
from flradapt.adaptive import DegenerateFunctionalWarning
from flradapt.estimator import SINGULARITY_RTOL, Moments
from flradapt.functionals import Custom, DerivativeEval, LocalAverage, PointEval
from flradapt.sequences import Regime, SequenceModel

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0, r=2.0)


@dataclass(eq=False)
class ReferenceMoments:
    ghat: np.ndarray
    gammahat: np.ndarray
    sigma2_y_hat: float
    n: int

    def __post_init__(self):
        self.ghat = np.asarray(self.ghat, dtype=np.float64)
        self.gammahat = np.asarray(self.gammahat, dtype=np.float64)
        gam = self.gammahat
        m = len(self.ghat)
        if gam.shape != (m, m):
            raise ValueError("gammahat must be square and match ghat")
        asym = np.abs(gam - gam.T).max()
        scale = max(np.abs(gam).max(), 1e-300)
        if asym > 1e-12 * scale:
            raise ValueError(f"gammahat asymmetric beyond tolerance ({asym:.3g})")
        if m:
            w = np.linalg.eigvalsh(gam)
            if w[0] < -1e-10 * max(gam.trace(), 0.0):
                raise ValueError("gammahat is not positive semi-definite")
        if self.sigma2_y_hat < 0:
            raise ValueError("sigma2_y_hat must be non-negative")

    @property
    def dim(self) -> int:
        return len(self.ghat)


def reference_empirical_moments(data, M):
    if not (1 <= M <= data.dim):
        raise ValueError(f"M must lie in 1..{data.dim}, got {M}")
    xm = data.x[:, :M]
    gam = xm.T @ xm / data.n
    gam = (gam + gam.T) / 2.0
    ghat = xm.T @ data.y / data.n
    s2 = float((data.y ** 2).mean())
    return ReferenceMoments(ghat=ghat, gammahat=gam, sigma2_y_hat=s2, n=data.n)


def reference_eigen(mom, m):
    if not (1 <= m <= mom.dim):
        raise ValueError(f"m must lie in 1..{mom.dim}, got {m}")
    block = mom.gammahat[:m, :m]
    w, v = np.linalg.eigh(block)
    if not w[0] > SINGULARITY_RTOL * max(float(block.trace()), 0.0) / m:
        return None
    return w, v


def reference_galerkin_estimate(mom, m):
    eig = reference_eigen(mom, m)
    if eig is None:
        return math.inf, None
    w, v = eig
    inv_norm = 1.0 / float(w[0])
    if inv_norm > mom.n:
        return inv_norm, None
    return inv_norm, v @ ((v.T @ mom.ghat[:m]) / w)


def reference_solve_block(mom, m, rhs):
    eig = reference_eigen(mom, m)
    if eig is None:
        return None
    w, v = eig
    return v @ ((v.T @ np.asarray(rhs, dtype=np.float64)[:m]) / w)


def reference_cap_m_ell(spec, n):
    m4 = floor_fourth_root(n)
    prefix = functionals.gram_prefix(spec, m4)
    admissible = np.nonzero(prefix <= n)[0]
    if len(admissible) == 0:
        return 1
    return int(admissible[-1]) + 1


def reference_penalties(mom, spec, n, m_max, solve=reference_solve_block):
    ell = functionals.coefficients(spec, m_max)
    quad_g = np.empty(m_max)
    quad_ell = np.empty(m_max)
    for m in range(1, m_max + 1):
        sol_g = solve(mom, m, mom.ghat)
        if sol_g is None:
            raise adaptive.AdaptiveEstimationError(f"singular at {m}")
        sol_ell = solve(mom, m, ell)
        quad_g[m - 1] = float(mom.ghat[:m] @ sol_g)
        quad_ell[m - 1] = float(ell[:m] @ sol_ell)
    quad_g = np.maximum.accumulate(quad_g)
    quad_ell = np.maximum.accumulate(quad_ell)
    factor = adaptive.PENALTY_CONSTANT * (1.0 + math.log(n)) / n
    return factor * (2.0 * mom.sigma2_y_hat + 2.0 * quad_g) * quad_ell


def reference_contrasts(est, pen):
    terms = (est[None, :] - est[:, None]) ** 2 - pen[None, :]
    terms[np.tri(len(est), k=-1, dtype=bool)] = -np.inf
    return terms.max(axis=1)


def reference_forms(mom, spec, m_ell):
    """Estimates and inverse norms at m = 1..m_ell."""
    ell = functionals.coefficients(spec, m_ell)
    inv_norms = np.empty(m_ell)
    est_all = np.empty(m_ell)
    for m in range(1, m_ell + 1):
        inv_norms[m - 1], coeffs = reference_galerkin_estimate(mom, m)
        est_all[m - 1] = 0.0 if coeffs is None else float(ell[:m] @ coeffs)
    return est_all, inv_norms


def reference_decision(mom, spec, n, est_all, inv_norms) -> dict:
    m_ell = len(est_all)
    if math.isinf(inv_norms[0]):
        raise adaptive.AdaptiveEstimationError("no invertible moment block")
    m_hat = adaptive.cap_m_hat(inv_norms, functionals.gram_prefix(spec, m_ell), n, m_ell)
    pen = reference_penalties(mom, spec, n, m_hat)
    est = est_all[:m_hat]
    kap = reference_contrasts(est, pen)
    chosen = adaptive.select(kap, pen)
    return {
        "m_ell_cap": m_ell, "m_hat_cap": m_hat, "selected": chosen,
        "value": float(est[chosen - 1]), "penalties": pen, "contrasts": kap,
        "estimates": est,
    }


def reference_adaptive_estimate(data, spec) -> dict:
    n = data.n
    m_ell = min(reference_cap_m_ell(spec, n), data.dim)
    mom = reference_empirical_moments(data, m_ell)
    est_all, inv_norms = reference_forms(mom, spec, m_ell)
    return {
        **reference_decision(mom, spec, n, est_all, inv_norms),
        "estimates_all": est_all, "inv_spectral_norms": inv_norms,
        "sigma2_y_hat": mom.sigma2_y_hat,
    }


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_result(data, spec):
    want = reference_adaptive_estimate(data, spec)
    got = adaptive.adaptive_estimate(data, spec)
    assert (got.m_ell_cap, got.m_hat_cap, got.selected) == \
        (want["m_ell_cap"], want["m_hat_cap"], want["selected"])
    assert type(got.value) is float and bits(got.value) == bits(want["value"])
    for name in ("penalties", "contrasts", "estimates"):
        assert bits(getattr(got, name)) == bits(want[name]), name
    for name in ("estimates_all", "inv_spectral_norms", "sigma2_y_hat"):
        assert bits(got.diagnostics[name]) == bits(want[name]), name
    assert type(got.diagnostics["sigma2_y_hat"]) is float
    return got


SPECS = [PointEval(t0=0.3), DerivativeEval(t0=0.3, q=1), LocalAverage(b=0.2),
         Custom(coeffs=(1.0, -0.5, 0.25, 2.0))]


@pytest.mark.parametrize("mixing", [0.0, 0.3])
@pytest.mark.parametrize("n", [16, 17, 32, 64, 128, 256, 500, 1000, 2000])
def test_simulated_draws_match_the_reference(n, mixing, narrow):
    # all J columns, and the narrowest a study keeps
    cov = simulate.Covariance(PP, simulate.default_truncation(n), mixing)
    slope = simulate.make_slope(PP, cov.dim)
    width = max(adaptive.cap_m_ell(PointEval(t0=0.3), n), 4)
    for seed in range(3):
        for data in (simulate.draw_dataset(cov, slope, n, 1.0, seed),
                     narrow(cov, slope, n, 1.0, seed, width)):
            for spec in SPECS:
                assert_same_result(data, spec)


@pytest.mark.parametrize("scale", [1e-3, 1e-5])
def test_thresholded_dimension_matches_the_reference(scale):
    # a tiny second column: the inverse norm exceeds n from m = 2 on
    rng = np.random.default_rng(6)
    x = rng.standard_normal((256, 4))
    x[:, 1] *= scale
    data = simulate.Dataset(y=x @ [1.0, 2.0, -1.0, 0.5] + rng.standard_normal(256), x=x)
    got = assert_same_result(data, Custom(coeffs=(1.0, 0.01, 0.01, 0.01)))
    assert np.all(got.diagnostics["inv_spectral_norms"][1:] > data.n)
    assert np.all(got.diagnostics["estimates_all"][1:] == 0.0)


def test_singular_block_matches_the_reference():
    # a duplicated column makes every block from m = 3 on singular
    rng = np.random.default_rng(9)
    x = rng.standard_normal((256, 4))
    x[:, 2] = x[:, 0]
    data = simulate.Dataset(y=x @ [1.0, 0.5, 0.5, 0.25] + rng.standard_normal(256), x=x)
    got = assert_same_result(data, Custom(coeffs=(1.0, 1.0, 1.0, 1.0)))
    assert np.all(np.isinf(got.diagnostics["inv_spectral_norms"][2:]))
    assert got.m_hat_cap == 2


@st.composite
def moment_inputs(draw):
    """A moment matrix, exactly symmetric as empirical_moments makes it, of
    rank up to its size, with a right-hand side and a sample size."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 8))
    entries = st.floats(-1e3, 1e3, allow_nan=False, width=64)
    a = np.array(draw(st.lists(entries, min_size=m * k, max_size=m * k))).reshape(k, m)
    gam = a.T @ a / k
    gam = (gam + gam.T) / 2.0
    ghat = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    n = draw(st.integers(2, 10 ** 6))
    return gam, ghat, n


def construct(cls, gam, ghat, n):
    try:
        return cls(ghat=ghat, gammahat=gam, sigma2_y_hat=1.0, n=n)
    except ValueError as err:
        return type(err)


@given(moment_inputs())
@settings(max_examples=300, deadline=None)
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def test_generated_moments_match_the_reference(inputs):
    gam, ghat, n = inputs
    mom = construct(Moments, gam, ghat, n)
    ref = construct(ReferenceMoments, gam, ghat, n)
    if not isinstance(ref, ReferenceMoments):
        assert mom is ref
        return
    for m in range(1, len(ghat) + 1):
        got_norm, got = estimator.galerkin_estimate(mom, m)
        want_norm, want = reference_galerkin_estimate(ref, m)
        assert bits(got_norm) == bits(want_norm)
        assert (got is None) == (want is None)
        if got is not None:
            assert bits(got) == bits(want)
        got = estimator.solve_block(mom, m, ghat)
        want = reference_solve_block(ref, m, ghat)
        assert (got is None) == (want is None)
        if got is not None:
            assert bits(got) == bits(want)
    spec = Custom(coeffs=(1.0, -1.0, 0.5))
    try:
        want = reference_penalties(ref, spec, n, len(ghat))
    except adaptive.AdaptiveEstimationError:
        with pytest.raises(adaptive.AdaptiveEstimationError):
            adaptive.penalties(mom, spec, n, len(ghat))
    else:
        assert bits(adaptive.penalties(mom, spec, n, len(ghat))) == bits(want)


@given(moment_inputs())
@settings(max_examples=300, deadline=None)
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def test_decide_on_reference_forms_gives_the_reference_decision(inputs):
    # singular first blocks, later singular blocks and thresholded invertible
    # ones (27, 91 and 13 of one run's 300 examples), and objectives that
    # overflow to non-finite sums, which both refuse
    gam, ghat, n = inputs
    ref = construct(ReferenceMoments, gam, ghat, n)
    if not isinstance(ref, ReferenceMoments):
        return
    spec = Custom(coeffs=(1.0, -1.0, 0.5))
    est_all, inv_norms = reference_forms(ref, spec, len(ghat))
    calls = []

    def penalty(k):
        calls.append(k)
        return reference_penalties(ref, spec, n, k)

    try:
        want = reference_decision(ref, spec, n, est_all, inv_norms)
    except (adaptive.AdaptiveEstimationError, ValueError) as err:
        with pytest.raises(type(err)):
            adaptive.decide(n, spec, est_all, inv_norms, penalty, {})
        return
    got = adaptive.decide(n, spec, est_all, inv_norms, penalty, {})
    assert calls == [want["m_hat_cap"]]
    assert (got.m_ell_cap, got.m_hat_cap, got.selected) == \
        (want["m_ell_cap"], want["m_hat_cap"], want["selected"])
    assert bits(got.value) == bits(want["value"])
    for name in ("penalties", "contrasts", "estimates"):
        assert bits(getattr(got, name)) == bits(want[name]), name


def dense_solve_block(mom, m, rhs):
    return np.linalg.solve(mom.gammahat[:m, :m], np.asarray(rhs, dtype=np.float64)[:m])


def dense_forms(mom, spec, m_ell):
    """Estimates and inverse norms at m = 1..m_ell from LU solves and the
    spectral norm of the explicit inverse, thresholded above n."""
    ell = functionals.coefficients(spec, m_ell)
    inv_norms = np.empty(m_ell)
    est_all = np.empty(m_ell)
    for m in range(1, m_ell + 1):
        inv_norms[m - 1] = np.linalg.norm(np.linalg.inv(mom.gammahat[:m, :m]), 2)
        coeffs = dense_solve_block(mom, m, mom.ghat)
        est_all[m - 1] = 0.0 if inv_norms[m - 1] > mom.n else float(ell[:m] @ coeffs)
    return est_all, inv_norms


@pytest.mark.parametrize("scale", [1.0, 1e-4])
def test_decide_on_dense_forms_agrees_with_the_library(scale):
    # the shipped penalty selects m = 1 on every draw here; a ten-thousandth
    # of it selects up to m = 4 (44 of 96 draws above 1), so the choice is
    # compared away from m = 1 too; no draw selected differently
    flips = []
    for n in (64, 256, 1000, 4000):
        for mixing in (0.0, 0.3):
            cov = simulate.Covariance(PP, simulate.default_truncation(n), mixing)
            slope = simulate.make_slope(PP, cov.dim)
            for seed, spec in itertools.product(range(3), SPECS):
                data = simulate.draw_dataset(cov, slope, n, 1.0, seed)
                result = adaptive.adaptive_estimate(data, spec)
                m_ell, forms = result.m_ell_cap, result.diagnostics
                mom = estimator.empirical_moments(data, m_ell)
                got = adaptive.decide(
                    n, spec, forms["estimates_all"], forms["inv_spectral_norms"],
                    lambda k: scale * adaptive.penalties(mom, spec, n, k), {})
                dense = adaptive.decide(
                    n, spec, *dense_forms(mom, spec, m_ell),
                    lambda k: scale * reference_penalties(mom, spec, n, k, dense_solve_block),
                    {})
                assert dense.m_hat_cap == got.m_hat_cap
                for name in ("estimates", "penalties"):
                    np.testing.assert_allclose(getattr(dense, name), getattr(got, name),
                                               rtol=1e-12, err_msg=name)
                # a contrast is a difference of its terms: 1e-12 of the largest
                terms = max(got.penalties.max(), np.ptp(got.estimates) ** 2)
                np.testing.assert_allclose(dense.contrasts, got.contrasts, rtol=0,
                                           atol=1e-12 * terms)
                objective = np.sort(got.contrasts + got.penalties)
                tie = len(objective) > 1 and objective[1] - objective[0] <= 1e-9 * terms
                if dense.selected != got.selected and not tie:
                    flips.append((n, mixing, seed, spec, dense.selected, got.selected))
    assert flips == []


@pytest.mark.parametrize("offset, refused", [
    (1.001e-12, True), (1e-11, True), (0.999e-12, False), (1e-13, False),
])
def test_asymmetry_tolerance_is_kept(offset, refused):
    # relative to the largest entry, 4.0: an off-diagonal pair that differs
    # by more than 1e-12 of it is refused, by less is accepted
    gam = np.array([[4.0, 1.0], [1.0 + 4.0 * offset, 2.0]])
    for cls in (Moments, ReferenceMoments):
        if refused:
            with pytest.raises(ValueError, match="asymmetric beyond tolerance"):
                cls(ghat=np.ones(2), gammahat=gam, sigma2_y_hat=1.0, n=100)
        else:
            cls(ghat=np.ones(2), gammahat=gam, sigma2_y_hat=1.0, n=100)


def test_empty_moments_are_refused():
    for cls in (Moments, ReferenceMoments):
        with pytest.raises(ValueError):
            cls(ghat=np.zeros(0), gammahat=np.zeros((0, 0)), sigma2_y_hat=1.0, n=10)


def test_accepted_asymmetric_moments_solve_like_the_reference():
    gam = np.array([[4.0, 1.0], [1.0 + 1e-12, 2.0]])
    mom = Moments(ghat=np.ones(2), gammahat=gam, sigma2_y_hat=1.0, n=100)
    ref = ReferenceMoments(ghat=np.ones(2), gammahat=gam, sigma2_y_hat=1.0, n=100)
    for m in (1, 2):
        assert bits(estimator.galerkin_estimate(mom, m)[1]) == \
            bits(reference_galerkin_estimate(ref, m)[1])


def test_memoized_cap_warns_on_every_degenerate_call():
    spec = Custom(coeffs=(10.0, 10.0))
    for _ in range(3):
        with pytest.warns(DegenerateFunctionalWarning):
            assert adaptive.cap_m_ell(spec, 50) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert adaptive.cap_m_ell(spec, 100) == 1
        assert adaptive.cap_m_ell(PointEval(t0=0.3), 256) == reference_cap_m_ell(
            PointEval(t0=0.3), 256)
