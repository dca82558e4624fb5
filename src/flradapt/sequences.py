"""Weight sequences of the three decay regimes and their standing checks.

Two positive weight sequences drive everything downstream: ``beta`` grows
with the index and encodes the smoothness of the unknown slope, ``gamma``
decays and encodes the eigenvalue decay of the regressor covariance.  Three
regimes pair polynomial and exponential behaviour:

* ``pp`` -- beta_j = j^(2p), gamma_j = j^(-2a)         (a > 1/2)
* ``pe`` -- beta_j = j^(2p), gamma_j = exp(-j^(2a)+1)  (a > 0)
* ``ep`` -- beta_j = exp(j^(2p)-1), gamma_j = j^(-2a)  (a > 1/2)

All regimes satisfy beta_1 = gamma_1 = 1.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

# smallest positive normal double, returned on underflow together with a flag
MIN_NORMAL = float(np.finfo(np.float64).tiny)


class Regime(str, Enum):
    PP = "pp"
    PE = "pe"
    EP = "ep"


class SaturationError(OverflowError):
    """A weight exceeds the double-precision range; use the log-space API."""


class UnderflowWarning(RuntimeWarning):
    """A weight underflowed and was clamped to the smallest positive normal."""


@dataclass(frozen=True)
class SequenceModel:
    """One regime together with its parameters.

    Parameters
    ----------
    regime : Regime
        Which polynomial/exponential pairing is in force.
    p : float
        Smoothness exponent of the slope weights, p > 0.
    a : float
        Decay exponent of the covariance eigenvalue weights.  Regimes with
        polynomial eigenvalue decay (pp, ep) need a > 1/2 for summability,
        the exponential regime (pe) needs a > 0.
    r : float
        Radius of the slope ellipsoid, r > 0.

    The link constant between the covariance and the eigenvalue weights is
    not a model parameter: ``simulate.Covariance.effective_d`` computes it
    from the covariance construction.
    """

    regime: Regime
    p: float
    a: float
    r: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "regime", Regime(self.regime))
        if not (math.isfinite(self.p) and self.p > 0):
            raise ValueError(f"p must be a positive real, got {self.p}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be a positive real, got {self.a}")
        if self.regime in (Regime.PP, Regime.EP) and not self.a > 0.5:
            raise ValueError(
                f"regime {self.regime.value} needs a > 1/2 for a summable "
                f"eigenvalue sequence, got a={self.a}"
            )
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be a positive real, got {self.r}")


def log_beta_array(model, j_max: int) -> np.ndarray:
    """log beta_j for j = 1..j_max."""
    j = np.arange(1, j_max + 1, dtype=np.float64)
    if model.regime is Regime.EP:
        return j ** (2.0 * model.p) - 1.0
    return 2.0 * model.p * np.log(j)


def log_gamma_array(model, j_max: int) -> np.ndarray:
    """log gamma_j for j = 1..j_max."""
    j = np.arange(1, j_max + 1, dtype=np.float64)
    if model.regime is Regime.PE:
        return -(j ** (2.0 * model.a) - 1.0)
    return -2.0 * model.a * np.log(j)


def gamma_array(model, j_max: int) -> np.ndarray:
    """gamma_1..gamma_{j_max}, clamped below at the smallest positive normal."""
    j = np.arange(1, j_max + 1, dtype=np.float64)
    if model.regime is Regime.PE:
        with np.errstate(under="ignore"):
            out = np.exp(-(j ** (2.0 * model.a) - 1.0))
    else:
        out = j ** (-2.0 * model.a)
    if np.any(out < MIN_NORMAL):
        warnings.warn(
            "gamma underflowed at large indices; clamped to smallest "
            "positive normal",
            UnderflowWarning,
            stacklevel=2,
        )
        out = np.maximum(out, MIN_NORMAL)
    return out


def beta_array(model, j_max: int) -> np.ndarray:
    """beta_1..beta_{j_max}; raises :class:`SaturationError` on overflow."""
    lb = log_beta_array(model, j_max)
    j = np.arange(1, j_max + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = np.exp(lb) if model.regime is Regime.EP else j ** (2.0 * model.p)
    if not np.all(np.isfinite(out)):
        raise SaturationError(
            f"beta_{j_max} exceeds double range; use log_beta_array"
        )
    return out


@dataclass(frozen=True)
class AssumptionReport:
    """Numeric diagnostics for the standing summability assumptions."""

    beta_first_is_one: bool
    gamma_first_is_one: bool
    beta_nondecreasing: bool
    gamma_nonincreasing: bool
    functional_sum_convergent: bool
    eigenvalue_sum_convergent: bool
    functional_partial_sum: float
    eigenvalue_partial_sum: float

    @property
    def ok(self) -> bool:
        return (
            self.beta_first_is_one
            and self.gamma_first_is_one
            and self.beta_nondecreasing
            and self.gamma_nonincreasing
            and self.functional_sum_convergent
            and self.eigenvalue_sum_convergent
        )


# Partial-sum increments below this (relative to the accumulated sum) count as
# numerically Cauchy; polynomial-rate sums are instead judged by dyadic block
# decay, since their raw increments shrink too slowly to hit any fixed cut.
CAUCHY_TOL = 1e-12
_BLOCK_DECAY = 0.95


def _numerically_convergent(terms: np.ndarray) -> bool:
    """Convergence diagnostic for a series of non-negative terms.

    Accepts either (a) a final increment below CAUCHY_TOL relative to the
    running total, or (b) geometric decay of the last few dyadic block sums
    (a condensation-style test that certifies sums like j^-2 from a finite
    window, where the raw increment criterion cannot).
    """
    terms = np.asarray(terms, dtype=np.float64)
    total = float(np.sum(terms))
    if terms[-1] <= CAUCHY_TOL * max(total, 1.0):
        return True
    n = len(terms)
    k_max = int(math.floor(math.log2(n)))
    if k_max < 4:
        return False
    blocks = []
    for k in range(k_max - 3, k_max + 1):
        lo, hi = 2 ** (k - 1), 2 ** k
        blocks.append(float(np.sum(terms[lo:hi])))
    return all(
        blocks[i + 1] <= _BLOCK_DECAY * blocks[i] for i in range(len(blocks) - 1)
    )


def check_assumption(model, ell, J: int) -> AssumptionReport:
    """Report-only check of the standing assumptions on (beta, gamma, ell).

    Parameters
    ----------
    model : SequenceModel
    ell : array_like
        Functional coefficients [l]_1..[l]_J in the fixed basis.
    J : int
        Horizon of the partial sums; J >= 1.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    ell = np.asarray(ell, dtype=np.float64)[:J]
    if len(ell) < J:
        raise ValueError(f"ell provides {len(ell)} coefficients, needs {J}")
    lb = log_beta_array(model, J)
    lg = log_gamma_array(model, J)
    with np.errstate(under="ignore", over="ignore"):
        gam = np.exp(lg)
        func_terms = np.where(ell == 0.0, 0.0, ell ** 2 * np.exp(-lb))
    return AssumptionReport(
        beta_first_is_one=(lb[0] == 0.0),
        gamma_first_is_one=(lg[0] == 0.0),
        beta_nondecreasing=bool(np.all(np.diff(lb) >= 0)),
        gamma_nonincreasing=bool(np.all(np.diff(lg) <= 0)),
        functional_sum_convergent=_numerically_convergent(func_terms),
        eigenvalue_sum_convergent=_numerically_convergent(gam),
        functional_partial_sum=float(np.sum(func_terms)),
        eigenvalue_partial_sum=float(np.sum(gam)),
    )
