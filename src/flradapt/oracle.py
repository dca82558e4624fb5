"""Theoretical quantities: risk curves, optimal dimensions, closed-form rate
orders and theoretical penalties.

The central object is the risk functional

    R_m[x] = max( sum_{j>m} l_j^2 / beta_j,
                  max(gamma_m / beta_m, x) * sum_{j<=m} l_j^2 / gamma_j )

whose minimum over m describes the attainable mean squared error order at
accuracy level x (x = 1/n for the best non-adaptive dimension, and
x = (1+log n)/n for the data-driven one).
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adaptive, functionals, sequences

# horizons for explicit tail summation; exponential regularity weights
# terminate by underflow long before the cap
TAIL_HORIZON_POLY = 1_000_000
TAIL_HORIZON_EXP = 65_536
# indices per block of a running tail sum: each temporary of the fill takes
# 64 KiB, however long the sum
TAIL_BLOCK = 8192


class DivergentTailError(ValueError):
    """The coefficient tail sum diverges for the regime in force."""


class RegimeConditionError(ValueError):
    """Rate formulas require a parameter condition that does not hold."""


def _tail_terms(model, spec, lo: int, hi: int) -> np.ndarray:
    """The terms l_j^2 / beta_j for j = lo+1..hi, exactly 0 where l_j = 0."""
    j = np.arange(lo + 1, hi + 1)
    ell2 = functionals.coefficients_at(spec, lo, hi) ** 2
    with np.errstate(under="ignore", invalid="ignore"):
        return np.where(ell2 == 0.0, 0.0,
                        ell2 * np.exp(-sequences.log_beta_at(model, j)))


def _running_sum(model, spec, stop: int) -> tuple:
    """The sum of the terms 1..stop and the last term.

    The terms are added TAIL_BLOCK at a time, each block continued from the
    sum of the blocks before it, so the sum has the bits of the last entry
    of one ``np.cumsum`` over all terms.
    """
    total = last = 0.0
    for lo in range(0, stop, TAIL_BLOCK):
        terms = _tail_terms(model, spec, lo, min(lo + TAIL_BLOCK, stop))
        last = float(terms[-1])
        terms[0] += total
        total = float(np.cumsum(terms)[-1])
    return total, last


@functools.lru_cache(maxsize=32)
def _tail_total(model, spec) -> tuple:
    """The summation horizon and the completed total of l_j^2 / beta_j.

    For polynomial regularity weights the sum runs to TAIL_HORIZON_POLY and
    the total adds a midpoint-rule integral of the mean-square envelope past
    it, accurate to a relative O(1/horizon); exponential weights make the
    remainder past TAIL_HORIZON_EXP vanish by underflow (a crude
    doubled-last-term bound covers the cut).  A finitely supported
    functional sums to its support and has no remainder.  The total is the
    one number kept per (model, spec); prefix sums are taken on demand.
    """
    support = functionals.coefficient_support(spec)
    exponential = model.regime is sequences.Regime.EP
    remainder = 0.0
    if support is not None:
        horizon = support
    elif exponential:
        horizon = TAIL_HORIZON_EXP
    else:
        horizon = TAIL_HORIZON_POLY
        amp, power = functionals.mean_square_density(spec)
        decay = 2.0 * model.p - 2.0 * power
        if decay <= 1.0:
            raise DivergentTailError(
                f"tail sum of l_j^2/beta_j diverges: needs p - s > 1/2, "
                f"got p = {model.p}, coefficient growth power s = {power}"
            )
        edge = horizon + 0.5
        remainder = amp * edge ** (1.0 - decay) / (decay - 1.0)
    total, last = _running_sum(model, spec, horizon)
    if exponential and support is None:
        remainder = 2.0 * last
    return horizon, total + remainder


def ell_weight_tail(model, spec, m: int) -> float:
    """sum_{j > m} l_j^2 / beta_j, to about 1e-6 relative accuracy."""
    if m < 0:
        raise ValueError("m must be >= 0")
    horizon, total = _tail_total(model, spec)
    return max(total - _running_sum(model, spec, min(m, horizon))[0], 0.0)


def risk_curve(model, spec, x: float, m_max: int) -> np.ndarray:
    """R_1[x]..R_{m_max}[x]; entries overflow to +inf where the head sum
    exceeds the double range (such dimensions can never be minimizers)."""
    if not (0.0 < x <= 1.0):
        raise ValueError(f"x must lie in (0, 1], got {x}")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    horizon, total = _tail_total(model, spec)
    if functionals.coefficient_support(spec) is None and m_max > horizon:
        raise ValueError(f"m_max = {m_max} exceeds the tail horizon {horizon}")
    # past a finite support the terms are 0 and the tail stays 0
    tail = np.maximum(total - np.cumsum(_tail_terms(model, spec, 0, m_max)), 0.0)
    ell2 = functionals.coefficients(spec, m_max) ** 2
    log_gamma = sequences.log_gamma_array(model, m_max)
    log_beta = sequences.log_beta_array(model, m_max)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        inv_gamma = np.exp(-log_gamma)
        head = np.cumsum(np.where(ell2 == 0.0, 0.0, ell2 * inv_gamma))
        ratio = np.exp(log_gamma - log_beta)
    return np.maximum(tail, np.maximum(ratio, x) * head)


def default_search_bound(model, n: float) -> int:
    """Search range bracketing the optimal dimension with margin."""
    log_n = max(math.log(max(n, 2.0)), 1.0)
    if model.regime is sequences.Regime.PP:
        return max(64, math.ceil(4.0 * n ** (1.0 / (2.0 * model.p + 2.0 * model.a))))
    if model.regime is sequences.Regime.PE:
        return math.ceil(log_n ** (1.0 / (2.0 * model.a))) + 16
    return math.ceil(log_n ** (1.0 / (2.0 * model.p))) + 16


def minimax_dimension(model, spec, x: float,
                      m_search: Optional[int] = None) -> tuple[int, float]:
    """Smallest minimizer of R_m[x] over 1..m_search and its value; warns
    when the minimizer sits on the search boundary."""
    if m_search is None:
        m_search = default_search_bound(model, 1.0 / x)
    risks = risk_curve(model, spec, x, m_search)
    idx = int(np.argmin(risks))
    if idx == m_search - 1 and m_search > 1:
        warnings.warn(
            f"risk minimizer sits on the search boundary m = {m_search}",
            RuntimeWarning,
            stacklevel=2,
        )
    return idx + 1, float(risks[idx])


def side_condition_ratio(model, spec, n: int, m: int) -> float:
    """Finite-n diagnostic for the asymptotic negligibility condition on the
    coefficient mass: gamma_m^-1 * sum_{j<=m} l_j^2 relative to n/(1+log n),
    evaluated at dimension m (the adaptive dimension in studies).

    The condition itself is asymptotic (the ratio should vanish as n grows)
    and cannot be verified at a single n; small values are consistent with it.
    """
    mass = float(functionals.gram_prefix(spec, m)[-1])
    inv_gamma = math.exp(-sequences.log_gamma_array(model, m)[-1])
    return (mass * inv_gamma) / (n / (1.0 + math.log(n)))


def _population_quantities(cov, spec, slope, sigma, m_max):
    """Var(y) and the quadratic forms g_m' Gamma_m^-1 g_m and
    l_m' Gamma_m^-1 l_m for m = 1..m_max, with g = Gamma slope
    (``cov.apply``); each form is ``cumsum(u * u)`` of u = L^-1 v
    (``cov.leading_factor_solve``)."""
    J = len(slope)
    if m_max > J:
        raise ValueError(f"m_max = {m_max} exceeds slope truncation {J}")
    if cov.dim != J:
        raise ValueError(f"covariance dim {cov.dim} differs from slope truncation {J}")
    g = cov.apply(slope)
    sig_y2 = sigma ** 2 + float(slope @ g)
    u_g = cov.leading_factor_solve(g[:m_max])
    u_ell = cov.leading_factor_solve(functionals.coefficients(spec, m_max))
    return sig_y2, np.cumsum(u_g * u_g), np.cumsum(u_ell * u_ell)


def theoretical_penalty_curve(cov, spec, slope, sigma: float, n: int,
                              m_max: int) -> np.ndarray:
    """Population penalties for m = 1..m_max: the estimator's rule,
    :func:`adaptive.penalty_curve`, with
    ``adaptive.THEORETICAL_PENALTY_CONSTANT`` (one seventh of
    ``adaptive.PENALTY_CONSTANT``) and each sample moment replaced by its
    population value, for the diagonal or rotated-diagonal covariance
    ``cov`` and the slope coefficients ``slope``."""
    sig_y2, quad_g, quad_ell = _population_quantities(cov, spec, slope, sigma, m_max)
    return adaptive.penalty_curve(adaptive.THEORETICAL_PENALTY_CONSTANT,
                                  sig_y2, quad_g, quad_ell, n)


@dataclass(frozen=True)
class RateDescriptor:
    """Closed-form order n^e * (log n)^f."""

    n_exponent: float
    log_exponent: float = 0.0

    def label(self) -> str:
        parts = []
        if self.n_exponent:
            parts.append(f"n^({self.n_exponent:g})")
        if self.log_exponent:
            parts.append(f"(log n)^({self.log_exponent:g})")
        return " * ".join(parts) if parts else "1"


def _require(condition: bool, description: str) -> None:
    if not condition:
        raise RegimeConditionError(f"rate formula requires {description}")


def rate_exponent(model, spec, mode: str) -> RateDescriptor:
    """Closed-form order of the attainable risk for one functional family.

    ``mode`` is "minimax" (best non-adaptive dimension, accuracy level 1/n)
    or "adaptive" (data-driven dimension, accuracy level (1+log n)/n).
    """
    if mode not in ("minimax", "adaptive"):
        raise ValueError(f"mode must be 'minimax' or 'adaptive', got {mode!r}")
    if isinstance(spec, functionals.Custom):
        raise RegimeConditionError(
            "closed-form rate orders exist only for point evaluation, "
            "derivative evaluation, and local averages"
        )
    # squared coefficients of order j^(-2s): minus the envelope's growth power
    s = -functionals.mean_square_density(spec)[1]
    p, a = model.p, model.a
    regime = model.regime
    if isinstance(spec, functionals.PointEval):
        if regime in (sequences.Regime.PP, sequences.Regime.PE):
            _require(p > 0.5, "p > 1/2 (point evaluation, polynomial regularity)")
        if regime is sequences.Regime.PP:
            _require(p + a >= 1.5, "p + a >= 3/2 (point evaluation, pp)")
    elif isinstance(spec, functionals.DerivativeEval):
        if regime in (sequences.Regime.PP, sequences.Regime.PE):
            _require(spec.q < p - 0.5, "q < p - 1/2 (derivative, polynomial regularity)")
        if regime is sequences.Regime.PP:
            _require(p + a >= 1.5, "p + a >= 3/2 (derivative, pp)")
    elif isinstance(spec, functionals.LocalAverage):
        if regime is sequences.Regime.PP:
            _require(p + a > 1.5, "p + a > 3/2 (local average, pp)")
    # s <= 1 for the three families and pp and ep need a > 1/2, so s - a < 1/2:
    # the orders of s - a >= 1/2 never arise
    if regime is sequences.Regime.PE:
        return RateDescriptor(0.0, -(2 * p + 2 * s - 1) / (2 * a))
    if regime is sequences.Regime.PP:
        e = (2 * p + 2 * s - 1) / (2 * p + 2 * a)
        return RateDescriptor(-e, 0.0 if mode == "minimax" else e)
    if mode == "minimax":
        return RateDescriptor(-1.0, (2 * a - 2 * s + 1) / (2 * p))
    return RateDescriptor(-1.0, (2 * p + 2 * a - 2 * s + 1) / (2 * p))
