"""Weight sequences of the three decay regimes.

Two positive weight sequences drive everything downstream: ``beta`` grows
with the index and encodes the smoothness of the unknown slope, ``gamma``
decays and encodes the eigenvalue decay of the regressor covariance.  Three
regimes pair polynomial and exponential behaviour:

* ``pp`` -- beta_j = j^(2p), gamma_j = j^(-2a)         (a > 1/2)
* ``pe`` -- beta_j = j^(2p), gamma_j = exp(-j^(2a)+1)  (a > 0)
* ``ep`` -- beta_j = exp(j^(2p)-1), gamma_j = j^(-2a)  (a > 1/2)

All regimes satisfy beta_1 = gamma_1 = 1, beta is non-decreasing and gamma
non-increasing by construction.  beta exists in log space only
(``log_beta_at``, ``log_beta_array``), because the exponential weights
overflow a double once j^(2p) passes about 709.  :class:`SequenceModel`
rejects parameters with a non-summable eigenvalue sequence, and
``oracle.risk_curve`` (so ``oracle.minimax_dimension`` and ``flradapt
rates``) raises ``DivergentTailError`` for a divergent functional tail.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._util import check_int

# smallest positive normal double, returned on underflow together with a flag
MIN_NORMAL = float(np.finfo(np.float64).tiny)


class Regime(str, Enum):
    PP = "pp"
    PE = "pe"
    EP = "ep"


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
    not a model parameter: it follows from the covariance construction,
    ``simulate.Covariance``.
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


def log_beta_at(model, j: np.ndarray) -> np.ndarray:
    """log beta_j at every index of the array ``j``."""
    j = np.asarray(j, dtype=np.float64)
    if model.regime is Regime.EP:
        return j ** (2.0 * model.p) - 1.0
    return 2.0 * model.p * np.log(j)


def log_beta_array(model, j_max: int) -> np.ndarray:
    """log beta_j for j = 1..j_max."""
    return log_beta_at(model, np.arange(1, check_int(j_max, "j_max", 1) + 1,
                                        dtype=np.float64))


def log_gamma_array(model, j_max: int) -> np.ndarray:
    """log gamma_j for j = 1..j_max."""
    j = np.arange(1, check_int(j_max, "j_max", 1) + 1, dtype=np.float64)
    if model.regime is Regime.PE:
        return -(j ** (2.0 * model.a) - 1.0)
    return -2.0 * model.a * np.log(j)


def gamma_array(model, j_max: int) -> np.ndarray:
    """gamma_1..gamma_{j_max}, clamped below at the smallest positive normal."""
    j = np.arange(1, check_int(j_max, "j_max", 1) + 1, dtype=np.float64)
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
