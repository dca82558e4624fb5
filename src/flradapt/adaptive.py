"""Fully data-driven dimension selection by penalized contrast.

A source of moments gives its forms at m = 1..m_ell, the estimates, the
inverse norms of the moment blocks and a penalty curve (:func:`adaptive_estimate`
for rows), and :func:`decide` selects on them: the candidates run up to a random
bound, the contrast of m is the largest penalized squared difference between its
estimate and those above it, and the choice minimizes contrast plus penalty, ties
to the smallest index.  A deterministic inequality bounds the selected estimate's
error by any candidate's penalty, approximation error and excess fluctuation.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import estimator, functionals
from ._util import check_int, finite_or_null, floor_fourth_root

# constant of the population penalty, oracle.theoretical_penalty_curve
THEORETICAL_PENALTY_CONSTANT = 100.0
# multiplicative constant of the stochastic penalty, 700: 7 times the
# population constant, as the theory prescribes
PENALTY_CONSTANT = 7.0 * THEORETICAL_PENALTY_CONSTANT


class DegenerateFunctionalWarning(RuntimeWarning):
    """Even the one-dimensional coefficient mass exceeds the sample size."""


class AdaptiveEstimationError(RuntimeError):
    """Estimation could not produce a usable candidate set."""


@dataclass(eq=False)
class AdaptiveResult:
    """Everything the selection produced, plus diagnostics for studies."""

    m_ell_cap: int
    m_hat_cap: int
    penalties: np.ndarray
    contrasts: np.ndarray
    selected: int
    estimates: np.ndarray
    value: float
    diagnostics: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        """JSON-ready dictionary (arrays become lists, NaN and infinities
        None)."""
        return finite_or_null({
            "m_ell_cap": int(self.m_ell_cap),
            "m_hat_cap": int(self.m_hat_cap),
            "selected": int(self.selected),
            "value": float(self.value),
            "estimates": self.estimates.tolist(),
            "penalties": self.penalties.tolist(),
            "contrasts": self.contrasts.tolist(),
            "diagnostics": {key: val.tolist() if isinstance(val, np.ndarray) else val
                            for key, val in self.diagnostics.items()},
        })


def cap_m_ell(spec, n: int) -> int:
    """Deterministic dimension cap: the largest m <= floor(n^(1/4)) whose
    cumulative squared coefficient mass stays within the sample size.

    Falls back to 1 (with :class:`DegenerateFunctionalWarning`) when even the
    first coefficient violates the mass constraint.
    """
    cap = _admissible_cap(spec, check_int(n, "n", 1))
    if cap == 0:
        warnings.warn(
            "functional coefficient mass exceeds n already at m = 1",
            DegenerateFunctionalWarning,
            stacklevel=2,
        )
        return 1
    return cap


@functools.lru_cache(maxsize=256)
def _admissible_cap(spec, n: int) -> int:
    """The cap of :func:`cap_m_ell`, or 0 when no dimension is admissible;
    kept per (spec, n), so the warning stays with the caller."""
    prefix = functionals.gram_prefix(spec, floor_fourth_root(n))
    admissible = np.nonzero(prefix <= n)[0]
    return int(admissible[-1]) + 1 if len(admissible) else 0


def cap_m_hat(inv_norms, gram_prefix, n: int, m_ell: int) -> int:
    """Random dimension bound: one below the first m >= 2 at which the moment
    block is singular or the inverse-norm times coefficient-mass product
    exceeds n / (1 + log n); equal to the deterministic cap ``m_ell`` when no
    such m exists.

    ``inv_norms[m - 1]`` is the spectral norm of the inverse moment block at
    dimension m (infinite when singular) and ``gram_prefix[m - 1]`` the
    coefficient mass up to m.  A singular block ends the candidate set
    whatever the mass, so every candidate has an invertible block; the block
    at m = 1 is :func:`decide`'s to check.
    """
    threshold = n / (1.0 + math.log(n))
    for m in range(2, m_ell + 1):
        norm = inv_norms[m - 1]
        if math.isinf(norm) or norm * gram_prefix[m - 1] > threshold:
            return m - 1
    return m_ell


def penalty_curve(kappa: float, var_y: float, quad_g, quad_ell, n: int) -> np.ndarray:
    """The one penalty rule of the estimator and the population, p_m =
    kappa (1 + log n) / n (2 var_y + 2 max_{k<=m} G_k) max_{k<=m} V_k for
    m = 1..len(quad_g), G_k = ``quad_g[k - 1]`` = g_k' Gamma_k^-1 g_k and
    V_k = ``quad_ell[k - 1]`` = l_k' Gamma_k^-1 l_k; the running maxima make
    it non-decreasing exactly, in floating point too."""
    quad_g = np.maximum.accumulate(quad_g)
    quad_ell = np.maximum.accumulate(quad_ell)
    return kappa * (1.0 + math.log(n)) / n * (2.0 * var_y + 2.0 * quad_g) * quad_ell


def penalties(mom: estimator.Moments, spec, n, m_max: int) -> np.ndarray:
    """Stochastic penalties p_1..p_{m_max}: :func:`penalty_curve` with
    PENALTY_CONSTANT on mean(y^2) and the forms g_hat_m' Gamma_hat_m^-1
    g_hat_m and l_m' Gamma_hat_m^-1 l_m.  The population penalty,
    :func:`oracle.theoretical_penalty_curve`, is the same rule on the
    population moments with THEORETICAL_PENALTY_CONSTANT, a seventh of it.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    ell = functionals.coefficients(spec, m_max)
    quad_g = np.empty(m_max)
    quad_ell = np.empty(m_max)
    for m in range(1, m_max + 1):
        sol_g = estimator.solve_block(mom, m, mom.ghat)
        if sol_g is None:
            raise AdaptiveEstimationError(
                f"moment block at dimension {m} is numerically singular; "
                f"penalties are unavailable past {m - 1}"
            )
        sol_ell = estimator.solve_block(mom, m, ell)
        quad_g[m - 1] = float(mom.ghat[:m] @ sol_g)
        quad_ell[m - 1] = float(ell[:m] @ sol_ell)
    return penalty_curve(PENALTY_CONSTANT, mom.sigma2_y_hat, quad_g, quad_ell, n)


@functools.lru_cache(maxsize=64)
def _below_diagonal(size: int) -> np.ndarray:
    """Read-only mask of the entries (m, k) with k < m of a size x size matrix."""
    mask = np.tri(size, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def contrasts(estimates, penalties) -> np.ndarray:
    """kappa_m = max over k in [m, M] of (estimate_k - estimate_m)^2 - p_k.

    Row m of one (M, M) broadcast holds the terms for every k; the entries
    k < m are set to -inf before the row maxima are taken.
    """
    est = np.asarray(estimates, dtype=np.float64)
    pen = np.asarray(penalties, dtype=np.float64)
    if est.shape != pen.shape or est.ndim != 1 or len(est) == 0:
        raise ValueError("estimates and penalties must be equal-length 1-d")
    terms = est - est[:, None]
    terms *= terms
    terms -= pen
    terms[_below_diagonal(len(est))] = -np.inf
    return np.maximum.reduce(terms, axis=1)


def select(contrasts, penalties) -> int:
    """Smallest index (1-based) minimizing contrast plus penalty."""
    kap = np.asarray(contrasts, dtype=np.float64)
    pen = np.asarray(penalties, dtype=np.float64)
    if kap.shape != pen.shape or kap.ndim != 1 or len(kap) == 0:
        raise ValueError("contrasts and penalties must be equal-length 1-d")
    total = kap + pen
    if not np.isfinite(total).all():
        raise ValueError("contrasts plus penalties must be finite")
    return int(total.argmin()) + 1


def decide(n: int, spec, est_all, inv_norms, penalty, diagnostics: dict) -> AdaptiveResult:
    """The selection on one source's forms at m = 1..m_ell = len(est_all):
    the random bound m_hat of :func:`cap_m_hat` on ``inv_norms`` (infinite
    where singular), one call ``penalty(m_hat)`` for p_1..p_m_hat, and the
    contrasts and choice on ``est_all[:m_hat]``.  The result's diagnostics
    are ``diagnostics`` then both forms.  An n that is not an integer of at
    least 2 or forms of two lengths raise ValueError, and a singular block at
    m = 1 raises :class:`AdaptiveEstimationError`, before any penalty."""
    n = check_int(n, "n", 2)
    if len(inv_norms) != len(est_all):
        raise ValueError(f"inv_norms must have the length of est_all, {len(est_all)}, "
                         f"got {len(inv_norms)}")
    if math.isinf(inv_norms[0]):
        raise AdaptiveEstimationError("no invertible moment block at any dimension")
    m_ell = len(est_all)
    m_hat = cap_m_hat(inv_norms, functionals.gram_prefix(spec, m_ell), n, m_ell)
    pen = penalty(m_hat)
    est = est_all[:m_hat]
    kap = contrasts(est, pen)
    chosen = select(kap, pen)
    return AdaptiveResult(
        m_ell_cap=m_ell, m_hat_cap=m_hat, penalties=pen, contrasts=kap, selected=chosen,
        estimates=est, value=float(est[chosen - 1]),
        diagnostics={**diagnostics, "estimates_all": est_all, "inv_spectral_norms": inv_norms},
    )


def adaptive_estimate(data, spec) -> AdaptiveResult:
    """The full data-driven pipeline on one dataset: the row source's forms,
    then :func:`decide` with :func:`penalties`.  The forms are the moments up
    to the deterministic cap and, at each dimension up to it, the thresholded
    estimate and the inverse spectral norm; deterministic given the data."""
    n = data.n
    if n < 2:
        raise ValueError("need at least two observations")
    diagnostics: dict = {}
    m_ell = cap_m_ell(spec, n)
    if m_ell > data.dim:
        diagnostics["m_ell_clipped_to_data"] = data.dim
        m_ell = data.dim
    mom = estimator.empirical_moments(data, m_ell)
    ell = functionals.coefficients(spec, m_ell)
    inv_norms = np.empty(m_ell)
    est_all = np.empty(m_ell)
    for m in range(1, m_ell + 1):
        inv_norms[m - 1], coeffs = estimator.galerkin_estimate(mom, m)
        # a thresholded dimension estimates exactly +0.0
        est_all[m - 1] = 0.0 if coeffs is None else float(ell[:m] @ coeffs)
    result = decide(n, spec, est_all, inv_norms, lambda k: penalties(mom, spec, n, k),
                    diagnostics)
    result.diagnostics["sigma2_y_hat"] = mom.sigma2_y_hat
    return result


@dataclass(frozen=True)
class SelectionBoundCheck:
    """Outcome of the deterministic selection error bound on one instance."""

    passed: bool
    selected: int
    witness: Optional[int]
    lhs: float
    rhs_at_witness: Optional[float]


def check_selection_bound(estimates, penalties, approx_values, target) -> SelectionBoundCheck:
    """Verify the deterministic error bound of the selection rule.

    Given estimates, non-decreasing penalties, the functional values of the
    approximating sequence, and the target value, the selected estimate must
    satisfy, for every m,

        (selected_estimate - target)^2
            <= 7 p_m + 78 b_m^2
               + 42 max_{k >= m} ((estimate_k - approx_k)^2 - p_k / 6)_+

    with b_m the largest approximation error at dimensions >= m.  Both sides
    are evaluated by direct enumeration; the first violating m is reported.
    Non-finite or decreasing inputs raise ValueError.
    """
    est = np.asarray(estimates, dtype=np.float64)
    pen = np.asarray(penalties, dtype=np.float64)
    approx = np.asarray(approx_values, dtype=np.float64)
    if not (est.shape == pen.shape == approx.shape) or est.ndim != 1 or not len(est):
        raise ValueError("inputs must be equal-length 1-d arrays")
    target = float(target)
    # a NaN makes both sides NaN, and NaN compares as no violation
    if not (np.isfinite(est).all() and np.isfinite(pen).all()
            and np.isfinite(approx).all() and math.isfinite(target)):
        raise ValueError("inputs must be finite")
    if np.any(np.diff(pen) < 0):
        raise ValueError("penalties must be non-decreasing")
    kap = contrasts(est, pen)
    chosen = select(kap, pen)
    lhs = (est[chosen - 1] - target) ** 2
    # suffix maxima, trailing window [m, M]
    b = np.maximum.accumulate(np.abs(approx - target)[::-1])[::-1]
    excess = np.maximum((est - approx) ** 2 - pen / 6.0, 0.0)
    excess = np.maximum.accumulate(excess[::-1])[::-1]
    rhs = 7.0 * pen + 78.0 * b ** 2 + 42.0 * excess
    violations = np.nonzero(lhs > rhs)[0]
    if len(violations):
        w = int(violations[0])
        return SelectionBoundCheck(False, chosen, w + 1, float(lhs), float(rhs[w]))
    return SelectionBoundCheck(True, chosen, None, float(lhs), None)
