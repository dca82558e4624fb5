"""Sampling from the Gaussian scalar-on-function regression model.

Regressors are generated directly as truncated coefficient vectors: the j-th
coefficient is sqrt(lambda_j) times a standard normal, with lambda_j equal to
the eigenvalue weight gamma_j.  An optional Givens rotation of adjacent
coefficient pairs produces a non-diagonal covariance with the same spectrum.
That rotation is one rule in :class:`Covariance`, the one description of
the population's regressors: :func:`draw_dataset` samples from it (J is
``cov.dim``) and applies the rotation to the kept columns of the drawn rows,
and the oracle reads its population quantities from ``Covariance.apply``,
which rotates back, weights and rotates, and ``leading_factor_solve``, which
solves pair by pair in closed form, with no dense J x J matrix.  Responses
follow y_i = <slope, x_i> + sigma * eps_i with independent standard normal
noise; the sampler forms <slope, x_i> as z_i' w from the row's raw normals z_i and
the sampling weights w = sqrt(gamma) * R^T slope
(:meth:`Covariance.sampling_weights`), so it scales and rotates only the
kept columns, rounded up to a whole pair when rotated.
A :class:`GridStream` hands :func:`draw_dataset` the samples of one seed at
several sample sizes, drawing each normal once for all of them.
:func:`true_value` is the functional evaluated on the slope's coefficients,
the target every estimate is scored against.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import functionals, sequences
from ._util import check_int, floor_fourth_root, fmt

# share of the ellipsoid radius the slope fills: sum_j beta_j slope_j^2 =
# SLOPE_SCALE * r, so the slope sits strictly inside F_beta^r
SLOPE_SCALE = 0.9

# normals per row block of the sampler (256 KiB, 256 rows at J = 128; 1 MiB
# blocks pass the interpreter lock less often, a headline study ran 6 %
# faster on 2 vCPUs, but hold 0.75 MiB more per draw)
SAMPLE_BLOCK = 2 ** 15


def check_mixing(theta: float) -> None:
    """Reject a non-finite Givens mixing angle."""
    if not math.isfinite(theta):
        raise ValueError(f"mixing angle theta must be finite, got {theta}")


def check_sigma(sigma: float) -> None:
    """Reject a noise level that is not a finite non-negative real; sigma = 0
    is degenerate but allowed, so that noiseless sanity studies can run."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError("sigma must be a non-negative real")


def default_truncation(n: int) -> int:
    """Default coefficient truncation: comfortably past every candidate dim."""
    return max(4 * floor_fourth_root(n), 128)


@dataclass(frozen=True)
class Covariance:
    """Population covariance of the truncated coefficient vector.

    theta = 0 gives the diagonal matrix of eigenvalue weights.  A nonzero
    theta applies one Givens rotation of angle theta to every coefficient
    pair (2k-1, 2k), which keeps the spectrum but mixes basis directions.
    """

    model: sequences.SequenceModel
    dim: int
    theta: float = 0.0

    def __post_init__(self):
        check_int(self.dim, "dim", 1)
        check_mixing(self.theta)

    @property
    def is_diagonal(self) -> bool:
        return self.theta == 0.0

    def eigenvalues(self) -> np.ndarray:
        return sequences.gamma_array(self.model, self.dim)

    @cached_property
    def sampling_scale(self) -> np.ndarray:
        """sqrt(gamma_j), j = 1..dim, the factor of every drawn row before
        its rotation.  Computed on first use and read-only; the
        ``UnderflowWarning`` of clamped weights is raised then, once per
        covariance, not on every draw."""
        scale = np.sqrt(self.eigenvalues())
        scale.flags.writeable = False
        return scale

    def sampling_weights(self, slope: np.ndarray) -> np.ndarray:
        """w = sqrt(gamma) * R^T slope, the weights of the raw normals z in
        a response: a drawn row is x = R (sqrt(gamma) * z), so x' slope =
        z' w."""
        w = self._rotate_back(slope)
        w *= self.sampling_scale
        return w

    def _rotate_back(self, vec: np.ndarray) -> np.ndarray:
        """R^T vec as a new float array: :meth:`rotate` at -theta, its pair
        rule and sign."""
        return replace(self, theta=-self.theta).rotate(np.array(vec, dtype=np.float64))

    def _pairs(self, v: np.ndarray) -> tuple:
        """Views of the first and the second member of every coefficient
        pair (2k-1, 2k) on the last axis of ``v``."""
        stop = 2 * (self.dim // 2)
        return v[..., 0:stop:2], v[..., 1:stop:2]

    def rotate(self, x: np.ndarray) -> np.ndarray:
        """Rotate every coefficient pair on the last axis of ``x`` in place
        and return ``x``: (a, b) becomes (c a - s b, s a + c b) with
        c = cos(theta), s = sin(theta).  An unpaired last coefficient (odd
        dim) is left as is; theta = 0 returns ``x`` untouched.  Two
        temporaries of half the size of ``x`` are allocated; the sampler
        hands in the kept columns of one row block at a time.
        """
        if self.is_diagonal:
            return x
        c, s = math.cos(self.theta), math.sin(self.theta)
        even, odd = self._pairs(x)
        a = even.copy()
        np.multiply(a, c, out=even)
        even -= s * odd
        odd *= c
        a *= s
        odd += a
        return x

    def leading_factor_solve(self, vec: np.ndarray) -> np.ndarray:
        """u = L^-1 vec in O(m), L the lower Cholesky factor of the leading
        m x m block of the covariance, m = len(vec).

        The pair (2k-1, 2k) has the block [[a, b], [b, e]] of R diag(g, h)
        R^T, g = gamma_2k-1, h = gamma_2k: a = c^2 g + s^2 h,
        b = c s (g - h) and e = s^2 g + c^2 h, c = cos(theta),
        s = sin(theta).  Its factor is [[sqrt(a), 0], [b / sqrt(a),
        sqrt(h) sqrt(g / a)]], as e - b^2 / a = g h / a: no cancellation,
        and no underflow on steep weights (rotated ``pe``, a = 1).  An
        unpaired last coefficient has sqrt(gamma).  A leading block of L
        factors that leading block, so ``cumsum(u * u)`` holds
        every form vec_k' Gamma_k^-1 vec_k, k <= m, a cut pair's included.
        theta = 0 gives exactly vec / sqrt(gamma).
        """
        vec = np.asarray(vec, dtype=float)
        m = len(vec)
        if not 1 <= m <= self.dim:
            raise ValueError(f"len(vec) must lie in 1..{self.dim}, got {m}")
        c, s = math.cos(self.theta), math.sin(self.theta)
        lam = self.eigenvalues()[:m + 1]
        g1, g2 = lam[0:m:2], lam[1:m + 1:2]  # every pair it meets, a cut one too
        pivot = g1.copy()
        pivot[:len(g2)] = c * c * g1[:len(g2)] + s * s * g2
        root = np.sqrt(pivot)
        u = np.empty(m)
        u[0::2] = vec[0::2] / root
        h = m // 2  # the pairs the block holds whole
        u[1::2] = (vec[1::2] - c * s * (g1[:h] - g2[:h]) / root[:h] * u[0:2 * h:2]) \
            / (np.sqrt(g2[:h]) * np.sqrt(g1[:h] / pivot[:h]))
        return u

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The covariance R diag(gamma) R^T times ``vec`` in O(dim), R the
        pair rotation of :meth:`rotate`.  theta = 0 gives exactly
        gamma * vec."""
        if len(vec) != self.dim:
            raise ValueError(f"len(vec) must be {self.dim}, got {len(vec)}")
        out = self._rotate_back(vec)
        out *= self.eigenvalues()
        return self.rotate(out)


@dataclass(eq=False)
class Dataset:
    """n response/regressor pairs with the regressors as coefficient rows."""

    y: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.y.ndim != 1 or self.x.ndim != 2 or len(self.y) != len(self.x):
            raise ValueError("y must be (n,), x must be (n, J)")
        if not (np.isfinite(self.y).all() and np.isfinite(self.x).all()):
            raise ValueError("dataset entries must all be finite")

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def make_slope(model, J: int) -> np.ndarray:
    """Canonical smooth-decay slope as its J basis coefficients, rescaled to
    sit strictly inside the ellipsoid: sum_j beta_j slope_j^2 =
    SLOPE_SCALE * r.  The array is read-only: every sampler thread reads it.

    The raw shape is j^-(p+1) in the polynomial-regularity regimes and
    exp(-(j^(2p)-1)/2) / j when the regularity weights are exponential; both
    give beta-weighted squares proportional to j^-2.
    """
    J = check_int(J, "J", 1)
    j = np.arange(1, J + 1, dtype=np.float64)
    if model.regime is sequences.Regime.EP:
        log_raw = -(j ** (2.0 * model.p) - 1.0) / 2.0 - np.log(j)
    else:
        log_raw = -(model.p + 1.0) * np.log(j)
    # beta-weighted squares in log space; analytically j^-2 for every regime
    log_w = sequences.log_beta_array(model, J) + 2.0 * log_raw
    with np.errstate(under="ignore"):
        weights = np.exp(log_w)
        raw = np.exp(log_raw)
    total = math.fsum(weights.tolist())
    slope = math.sqrt(SLOPE_SCALE * model.r / total) * raw
    slope.flags.writeable = False
    return slope


def _row_blocks(n: int, J: int) -> list:
    """(lo, hi) row ranges covering 0..n of SAMPLE_BLOCK // J rows, one at
    least; the last range holds the remainder."""
    bounds = list(range(0, n, max(SAMPLE_BLOCK // J, 1))) + [n]
    return list(zip(bounds[:-1], bounds[1:]))


class GridStream:
    """The draws of one seed for an increasing grid of sample sizes.

    The sample of size n with a seed is the first n * J normals of the
    seed's generator, as n rows, then n normals of noise.  So a smaller
    size's rows are a prefix of a larger size's, and its noise normals are
    the raw normals of the rows right after its own or, past the largest
    size's rows, the start of the largest size's noise.  A stream draws each
    of these normals once, in one pass on its first :meth:`take`: the
    largest size's rows one row block at a time, copying a smaller size's
    noise out of the raw rows, then the largest size's noise.
    :func:`draw_dataset` with ``stream=`` then hands out ``sizes`` in
    increasing order.

    A row block is not written after its fill.  Each row's dot product
    with the sampling weights (``np.vecdot``, which reads that row alone) is
    its product with the slope, and only the block's first ``columns``
    coefficients, rounded up to a whole pair when the covariance is rotated,
    are scaled and rotated.  The stream keeps those ``columns``
    coefficients and the product of every row, and every size's noise: a
    size's x is a view of the first n rows of the kept columns, bit for bit
    the first ``columns`` of its draw alone, and its y is that draw's y.
    ``GridStream(cov, slope, seed, (n,), columns)`` is a narrow draw.
    """

    def __init__(self, cov: Covariance, slope: np.ndarray, seed: int, sizes,
                 columns: int):
        self.cov, self.slope, self.seed = cov, slope, seed
        self.sizes = tuple(sizes)
        for n in self.sizes:
            check_int(n, "stream size", 1)
        self.columns = columns
        if not self.sizes or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("stream sizes must be a strictly increasing sequence")
        if not 1 <= columns <= cov.dim:
            raise ValueError(f"columns must lie in 1..{cov.dim}, got {columns}")
        self._handed = 0  # sizes handed out so far
        self._x = None  # the arrays come with the first take

    def _draw(self) -> None:
        """Draw every normal of the stream and multiply its rows by the
        sampling weights."""
        cov, J = self.cov, self.cov.dim
        w = cov.sampling_weights(self.slope)
        n_max, smaller = self.sizes[-1], self.sizes[:-1]
        rng = np.random.default_rng(self.seed)
        blocks = _row_blocks(n_max, J)
        self._x, self._signal = np.empty((n_max, self.columns)), np.empty(n_max)
        self._noise = {n: np.empty(n) for n in smaller}
        rows = blocks[0][1]
        buffer = np.empty((rows, J))
        # the kept columns, rounded up to a whole pair for a rotation, are
        # scaled and rotated in x, or in a scratch block when rounded up
        width = self.columns if cov.is_diagonal else min(self.columns + self.columns % 2, J)
        scale = cov.sampling_scale[:width]
        scratch = None if width == self.columns else np.empty((rows, width))
        for lo, hi in blocks:
            block = buffer[:hi - lo]
            rng.standard_normal(out=block)
            raw = block.reshape(-1)
            for n in smaller:  # noise at stream positions n * J .. n * J + n
                a, b = max(lo * J, n * J), min(hi * J, n * J + n)
                if a < b:
                    self._noise[n][a - n * J:b - n * J] = raw[a - lo * J:b - lo * J]
            np.vecdot(block, w, out=self._signal[lo:hi])
            x = self._x[lo:hi] if scratch is None else scratch[:hi - lo]
            cov.rotate(np.multiply(block[:, :width], scale, out=x))
            if scratch is not None:
                self._x[lo:hi] = x[:, :self.columns]
        # free the row block first, so that a stream never holds it and the
        # largest size's noise at once
        del buffer, block, raw, scratch, x
        noise = self._noise[n_max] = rng.standard_normal(n_max)
        for n in smaller:
            past = n * J + n - n_max * J  # noise normals past the rows
            if past > 0:
                self._noise[n][n - past:] = noise[:past]

    def take(self, cov: Covariance, slope: np.ndarray, n: int, sigma: float,
             seed: int) -> tuple:
        """(y, x) of the next size ``n``, x a view of the first n kept rows."""
        if cov is not self.cov or slope is not self.slope or seed != self.seed:
            raise ValueError("a stream draws with the covariance, slope and seed it was made for")
        if self._handed == len(self.sizes) or n != self.sizes[self._handed]:
            raise ValueError(f"the stream's next size is not {n}")
        if self._x is None:
            self._draw()
        # y is sigma * noise + the slope products, formed in the noise array
        y = self._noise.pop(n)
        y *= sigma
        y += self._signal[:n]
        self._handed += 1
        return y, self._x[:n]


def draw_dataset(cov: Covariance, slope: np.ndarray, n: int, sigma: float,
                 seed: int, *, stream: Optional[GridStream] = None) -> Dataset:
    """n i.i.d. pairs with regressors of covariance ``cov`` (J = ``cov.dim``
    coefficients) and the J slope coefficients ``slope``, fully determined
    by ``seed``.

    The n x J standard normals z are drawn one row block at a time into one
    scratch block.  Each row's dot product with the sampling weights
    sqrt(gamma) * R^T slope gives its y, and the block is scaled and rotated
    into x; the noise is drawn after the last block.  Chunked fills continue
    one stream, so the sample is bit for bit that of one n x J draw.

    ``stream`` is a :class:`GridStream` of ``seed`` whose next size is n: the
    call then hands out that size from the stream, which draws all its
    sizes at once on its first call.  x is then the stream's kept columns,
    y still sees all J.  Without it the call is the one-size stream that
    keeps all J columns.
    """
    check_int(n, "n", 1)
    check_sigma(sigma)
    check_int(seed, "seed", 0)
    J = cov.dim
    if J < 4 * floor_fourth_root(n):
        raise ValueError(
            f"J = {J} is below 4 * floor(n^(1/4)) = {4 * floor_fourth_root(n)}"
        )
    if len(slope) != J:
        raise ValueError(f"slope has {len(slope)} coefficients, covariance has {J}")
    if stream is None:
        stream = GridStream(cov, slope, seed, (n,), J)
    y, x = stream.take(cov, slope, n, sigma, seed)
    return Dataset(y=y, x=x)


def true_value(spec, slope: np.ndarray) -> float:
    """The functional evaluated on the slope's coefficients."""
    return float(functionals.coefficients(spec, len(slope)) @ slope)


def save_dataset_csv(data: Dataset, path) -> None:
    """Write ``y,x1..xJ`` rows with shortest round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{j}" for j in range(1, data.dim + 1)])
        for i in range(data.n):
            writer.writerow([fmt(float(data.y[i]))] + [fmt(float(v)) for v in data.x[i]])


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset_csv` (exact round trip)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        if not header or header[0] != "y":
            raise ValueError(f"{path}: expected header starting with 'y'")
        if len(header) == 1:
            raise ValueError(f"{path}: no x columns")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: {len(row)} fields, "
                                 f"the header has {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as err:
                raise ValueError(f"{path}, line {reader.line_num}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    try:
        return Dataset(y=arr[:, 0], x=arr[:, 1:])
    except ValueError as err:  # a nan or inf cell
        raise ValueError(f"{path}: {err}") from None
