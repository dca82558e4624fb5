"""Linear functionals on [0, 1] expressed in the trigonometric basis.

The fixed orthonormal basis is psi_1 = 1, psi_{2k}(s) = sqrt(2) cos(2 pi k s),
psi_{2k+1}(s) = sqrt(2) sin(2 pi k s).  Each functional is represented by the
vector of its values on the basis functions; everything downstream works with
those coefficient vectors only.

``coefficients`` and ``gram_prefix`` are memoized per (spec, m) and return
read-only arrays.  Every spec stores its real parameters with signed zeros
mapped to +0.0, so equal specs have bitwise equal coefficients and the cache
key can be the spec itself.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# (spec, m) pairs kept per cache; a benchmark study touches fewer than ten
_CACHE_SIZE = 64


def _finite_unit(value: float, name: str, low: float, high: float):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not (low <= value <= high):
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")


def _unsigned(value):
    """``value`` with -0.0 mapped to +0.0 (x + 0.0 changes no other value)."""
    return value + 0.0


@dataclass(frozen=True)
class PointEval:
    """h -> h(t0)."""

    t0: float

    def __post_init__(self):
        _finite_unit(self.t0, "t0", 0.0, 1.0)
        object.__setattr__(self, "t0", _unsigned(self.t0))


@dataclass(frozen=True)
class DerivativeEval:
    """h -> h^(q)(t0), the q-th derivative at t0 (q = 0 is point evaluation)."""

    t0: float
    q: int

    def __post_init__(self):
        _finite_unit(self.t0, "t0", 0.0, 1.0)
        object.__setattr__(self, "t0", _unsigned(self.t0))
        # bool is an int subclass, and True == 1 would share q = 1's cache entry
        if not (isinstance(self.q, int) and not isinstance(self.q, bool)
                and self.q >= 0):
            raise ValueError(f"q must be a non-negative integer, got {self.q!r}")


@dataclass(frozen=True)
class LocalAverage:
    """h -> (1/b) * integral of h over [0, b].

    b is at least the smallest normal float: on the subnormal grid 2 pi k b
    rounds coarsely, and the coefficients miss sqrt(2) by up to 6 %."""

    b: float

    def __post_init__(self):
        _finite_unit(self.b, "b", sys.float_info.min, 1.0)


@dataclass(frozen=True)
class Custom:
    """Functional given directly by finitely many basis coefficients."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(_unsigned(float(c)) for c in self.coeffs)
        if len(coeffs) == 0:
            raise ValueError("Custom needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("Custom coefficients must all be finite")
        object.__setattr__(self, "coeffs", coeffs)


FunctionalSpec = PointEval | DerivativeEval | LocalAverage | Custom


def coefficients_at(spec: FunctionalSpec, lo: int, hi: int) -> np.ndarray:
    """Coefficients [l]_j at the block of indices j = lo+1..hi (0 <= lo < hi).

    Point evaluation gives the basis values psi_j(t0).  Derivatives use the
    phase-shift identities
    (d/ds)^q cos(w s) = w^q cos(w s + q pi/2),
    (d/ds)^q sin(w s) = w^q sin(w s + q pi/2).
    Local averages integrate each basis function over [0, b] in closed form
    and divide by b.  Each entry depends on its own index only, so any block
    gives the same bits as the corresponding slice of the prefix.  Even and
    odd indices alternate, so each branch is evaluated on every second entry
    only.
    """
    if isinstance(spec, Custom):
        out = np.zeros(hi - lo)
        given = spec.coeffs[lo:hi]
        out[:len(given)] = given
        return out
    k = np.arange(lo + 1, hi + 1) // 2
    out = np.empty(hi - lo)
    # the entries of even j (the cosines of point evaluation) and of odd j
    even, odd = slice((lo + 1) % 2, None, 2), slice(lo % 2, None, 2)
    if isinstance(spec, LocalAverage):
        wb = 2.0 * np.pi * k * spec.b
        # wb = 0 only at j = 1, overwritten below
        with np.errstate(divide="ignore", invalid="ignore"):
            out[even] = SQRT2 * np.sin(wb[even]) / wb[even]
            out[odd] = SQRT2 * (1.0 - np.cos(wb[odd])) / wb[odd]
        first = 1.0
    elif isinstance(spec, DerivativeEval) and spec.q > 0:
        w = 2.0 * np.pi * k
        arg = w * spec.t0 + spec.q * np.pi / 2.0
        amp = SQRT2 * w ** spec.q
        out[even] = amp[even] * np.cos(arg[even])
        out[odd] = amp[odd] * np.sin(arg[odd])
        first = 0.0
    elif isinstance(spec, (PointEval, DerivativeEval)):
        arg = 2.0 * np.pi * k * spec.t0
        out[even] = SQRT2 * np.cos(arg[even])
        out[odd] = SQRT2 * np.sin(arg[odd])
        first = 1.0
    else:
        raise TypeError(f"unknown functional spec {spec!r}")
    # psi_1 = 1 is constant: its average is 1 and its derivatives vanish
    if lo == 0:
        out[0] = first
    return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _check_dimension(m) -> None:
    # before any cache lookup: m = 3.0 equals, and hashes like, a cached 3
    if not (isinstance(m, (int, np.integer)) and m >= 1):
        raise ValueError(f"m must be a positive integer, got {m!r}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _coefficient_prefix(spec: FunctionalSpec, m: int) -> np.ndarray:
    return _read_only(coefficients_at(spec, 0, m))


def coefficients(spec: FunctionalSpec, m: int) -> np.ndarray:
    """Coefficient vector ([l]_1, ..., [l]_m) of the functional (read-only,
    shared between calls)."""
    _check_dimension(m)
    return _coefficient_prefix(spec, m)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _gram_prefix(spec: FunctionalSpec, m: int) -> np.ndarray:
    c = coefficients(spec, m)
    return _read_only(np.cumsum(c * c))


def gram_prefix(spec: FunctionalSpec, m: int) -> np.ndarray:
    """Cumulative sums of squared coefficients for dimensions 1..m, the
    coefficient mass at every dimension; non-decreasing, as a running sum of
    non-negative terms is (read-only, shared between calls)."""
    _check_dimension(m)
    return _gram_prefix(spec, m)


def coefficient_support(spec: FunctionalSpec):
    """Index past which all coefficients vanish, or None if unbounded."""
    if isinstance(spec, Custom):
        return len(spec.coeffs)
    return None


def mean_square_density(spec: FunctionalSpec) -> tuple[float, float]:
    """Envelope (amplitude A, power s) with mean [l]_j^2 <= A * j^(2 s).

    Used for integral remainder bounds of coefficient tail sums.  The values
    average the squared cos/sin pair at each frequency:

    * point evaluation: pairs sum to exactly 2 per two indices, so (1, 0);
    * q-th derivative: pair sum 2 (2 pi k)^(2q) at index ~2k, so (pi^(2q), q);
    * local average over [0, b]: pair sum 2 (2 - 2 cos(wb)) / (wb)^2 with
      w = 2 pi k, mean 4 / (wb)^2, giving (2 / (pi b)^2, -1).  The pair's
      own mean 4 sin^2(wb/2) / (wb)^2 is at most 1, the point-evaluation
      value, which this envelope exceeds below j = sqrt(2) / (pi b); the
      amplitude is inf once (pi b)^2 underflows to 0.
    """
    if isinstance(spec, PointEval):
        return 1.0, 0.0
    if isinstance(spec, DerivativeEval):
        return math.pi ** (2 * spec.q), float(spec.q)
    if isinstance(spec, LocalAverage):
        scale = (math.pi * spec.b) ** 2
        return (2.0 / scale if scale else math.inf), -1.0
    if isinstance(spec, Custom):
        return 0.0, 0.0
    raise TypeError(f"unknown functional spec {spec!r}")

