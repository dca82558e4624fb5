"""Empirical moments and the thresholded projection estimator.

For a fixed dimension m the slope estimate solves the m x m empirical normal
equations; the solve is abandoned when the moment matrix is numerically
singular or the spectral norm of its inverse exceeds the sample size.  One
rule, ``_eigen``, decomposes the leading block and decides singularity;
``galerkin_estimate`` reads the threshold decision and the solution off that
one decomposition, so the two can never disagree, and ``solve_block``, which
the penalties call twice per dimension, applies the same rule again on every
call, so a candidate dimension costs three decompositions in all.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_int

# numerically singular iff lambda_min <= SINGULARITY_RTOL * trace / m
SINGULARITY_RTOL = 1e-12


@dataclass(eq=False)
class Moments:
    """Sample moments of (y, x) up to a maximal dimension M.

    ``ghat`` and ``gammahat`` are read-only copies of the arrays given, so
    the checks made here hold for as long as the moments live.
    """

    ghat: np.ndarray
    gammahat: np.ndarray
    sigma2_y_hat: float
    n: int

    def __post_init__(self):
        ghat = np.asarray(self.ghat, dtype=np.float64)
        gam = np.asarray(self.gammahat, dtype=np.float64)
        m = ghat.size
        if ghat.ndim != 1 or gam.shape != (m, m):
            raise ValueError("ghat must be 1-d and gammahat square to match it")
        if not m:
            raise ValueError("moments need at least one dimension")
        if not (math.isfinite(self.sigma2_y_hat) and self.sigma2_y_hat >= 0):
            raise ValueError("sigma2_y_hat must be finite and non-negative")
        self.n = check_int(self.n, "n", 1)
        # arrays over immutable bytes are read-only copies, and the bytes of
        # gammahat are needed anyway: a matrix bitwise equal to its
        # transpose, as empirical_moments makes, has no asymmetry to measure;
        # one buffer holds both arrays, so one pass checks every entry
        raw = gam.tobytes()
        both = np.frombuffer(raw + ghat.tobytes())
        if not np.isfinite(both).all():
            raise ValueError("ghat and gammahat entries must all be finite")
        self.gammahat = both[:m * m].reshape(m, m)
        self.ghat = both[m * m:].reshape(ghat.shape)
        if raw != gam.T.tobytes():
            asym = np.abs(gam - gam.T).max()
            scale = max(np.abs(gam).max(), 1e-300)
            if asym > 1e-12 * scale:
                raise ValueError(f"gammahat asymmetric beyond tolerance ({asym:.3g})")
        w = np.linalg.eigvalsh(gam)
        # the bound is never positive: a non-negative w[0] skips the trace
        if w[0] < 0 and w[0] < -1e-10 * max(gam.trace(), 0.0):
            raise ValueError("gammahat is not positive semi-definite")

    @property
    def dim(self) -> int:
        return len(self.ghat)


def empirical_moments(data, M: int) -> Moments:
    """Sample averages g_hat = mean(y_i x_i), Gamma_hat = mean(x_i x_i^t),
    restricted to the first M coefficients, plus mean(y_i^2).

    Moments at M restrict to moments at any m < M by truncation.
    """
    if check_int(M, "M", 1) > data.dim:
        raise ValueError(f"M must lie in 1..{data.dim}, got {M}")
    n, y = data.n, data.y
    xm = data.x[:, :M]
    gam = xm.T @ xm / n
    gam = (gam + gam.T) / 2.0
    ghat = xm.T @ y / n
    # the bits of float((y ** 2).mean()) without the mean's wrapper
    s2 = float(np.add.reduce(y * y)) / n
    return Moments(ghat=ghat, gammahat=gam, sigma2_y_hat=s2, n=n)


def _eigen(mom: Moments, m: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigendecomposition (w, v) of the leading m x m moment block, or None
    when the block is numerically singular."""
    if check_int(m, "m", 1) > mom.dim:
        raise ValueError(f"m must lie in 1..{mom.dim}, got {m}")
    block = mom.gammahat[:m, :m]
    w, v = np.linalg.eigh(block)
    if not w[0] > SINGULARITY_RTOL * max(float(block.trace()), 0.0) / m:
        return None
    return w, v


def galerkin_estimate(mom: Moments, m: int) -> tuple[float, np.ndarray | None]:
    """Thresholded projection solve at dimension m.

    Returns ``(inv_spectral_norm, coeffs)``: the spectral norm of the inverse
    leading block (infinite when it is singular) and the solution of
    Gamma_hat_m c = g_hat_m, or None in place of the solution when the block
    is singular or the norm exceeds n.
    """
    eig = _eigen(mom, m)
    if eig is None:
        return math.inf, None
    w, v = eig
    inv_norm = 1.0 / float(w[0])
    if inv_norm > mom.n:
        return inv_norm, None
    return inv_norm, v @ ((v.T @ mom.ghat[:m]) / w)


def solve_block(mom: Moments, m: int, rhs: np.ndarray):
    """Solve the leading m x m moment block against ``rhs`` without the
    sample-size threshold; returns None when numerically singular.

    Penalty terms need these raw inverses even where the estimator itself
    would have been thresholded.
    """
    eig = _eigen(mom, m)
    if eig is None:
        return None
    w, v = eig
    return v @ ((v.T @ np.asarray(rhs, dtype=np.float64)[:m]) / w)
