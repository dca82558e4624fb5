"""Sampling from the Gaussian scalar-on-function regression model.

Regressors are generated directly as truncated coefficient vectors: the j-th
coefficient is sqrt(lambda_j) times a standard normal, with lambda_j equal to
the eigenvalue weight gamma_j.  An optional Givens rotation of adjacent
coefficient pairs produces a non-diagonal covariance with the same spectrum.
That rotation is one rule in :class:`Covariance`, the one description of
the population's regressors: :func:`draw_dataset` samples from it (J is
``cov.dim``) and applies the rotation to the drawn rows in place, and the
oracle reads its population quantities from ``Covariance.apply`` and
``leading_quadratic_forms``, which take products and quadratic forms pair by
pair in closed form, with no dense J x J matrix.  Responses follow
y_i = <slope, x_i> + sigma * eps_i with independent standard normal noise.
A :class:`GridStream` hands :func:`draw_dataset` the samples of one seed at
several sample sizes, drawing each normal once for all of them.
:func:`true_value` is the functional evaluated on the slope's coefficients,
the target every estimate is scored against.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
# faster on 2 vCPUs, but hold 1.5 MiB more per rotated draw).  A block's
# product with the slope gave the one-thread bits with two OpenBLAS threads
# too, which the product over all rows of a long draw did not (n = 8003)
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
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
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
        temporaries of half the size of ``x`` are allocated, so the sampler
        hands in one row block at a time.
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

    def _edge_entries(self, lam: np.ndarray, m_max: int) -> np.ndarray:
        """The diagonal entry at the edge of each odd leading block m <= m_max:
        c^2 gamma_m + s^2 gamma_{m+1} of the pair it cuts, or the unpaired
        last weight."""
        edge = lam[0:m_max:2].copy()
        cut = self.pair_blocks(lam)[:len(edge), 0, 0]
        edge[:len(cut)] = cut
        return edge

    def leading_quadratic_forms(self, vec: np.ndarray) -> np.ndarray:
        """vec_m' Gamma_m^-1 vec_m over the leading m x m blocks of the
        covariance, m = 1..len(vec), in closed form.

        A leading block is block-diagonal: a complete rotated pair adds
        (c v_{2k-1} + s v_{2k})^2 / gamma_{2k-1} +
        (c v_{2k} - s v_{2k-1})^2 / gamma_{2k}, and an odd block m adds
        v_m^2 over the diagonal entry at its edge (:meth:`_edge_entries`).
        Every term is non-negative, so no solve loses the form when the
        weights span hundreds of decades (rotated ``pe``, a = 1).
        """
        vec = np.asarray(vec, dtype=float)
        m_max = len(vec)
        if not 1 <= m_max <= self.dim:
            raise ValueError(f"len(vec) must lie in 1..{self.dim}, got {m_max}")
        c, s = math.cos(self.theta), math.sin(self.theta)
        lam = self.eigenvalues()
        whole = 2 * (m_max // 2)
        v1, v2 = vec[0:whole:2], vec[1:whole:2]
        pairs = (c * v1 + s * v2) ** 2 / lam[0:whole:2] \
            + (c * v2 - s * v1) ** 2 / lam[1:whole:2]
        forms = np.empty(m_max)
        forms[1::2] = np.cumsum(pairs)
        edge = self._edge_entries(lam, m_max)
        forms[0::2] = np.concatenate(([0.0], forms[1::2]))[:len(edge)] \
            + vec[0::2] ** 2 / edge
        return forms

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """The covariance times ``vec`` in O(dim): each pair's rotated block
        (:meth:`pair_blocks`) times its two entries, an unpaired last entry
        times its weight.  theta = 0 gives exactly gamma * vec."""
        vec = np.asarray(vec, dtype=float)
        lam = self.eigenvalues()
        blocks, out = self.pair_blocks(lam), lam * vec
        v1, v2 = self._pairs(vec)
        o1, o2 = self._pairs(out)
        o1[:] = blocks[:, 0, 0] * v1 + blocks[:, 0, 1] * v2
        o2[:] = blocks[:, 1, 0] * v1 + blocks[:, 1, 1] * v2
        return out

    def pair_blocks(self, weights: np.ndarray) -> np.ndarray:
        """Rotated 2x2 diagonal blocks R diag(w_{2k-1}, w_{2k}) R^T, shape
        (dim // 2, 2, 2), for rows rotated by :meth:`rotate`.  The two
        off-diagonal entries are one number, so every block is exactly
        symmetric."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        w1, w2 = self._pairs(weights)
        blocks = np.empty((self.dim // 2, 2, 2))
        blocks[:, 0, 0] = c * c * w1 + s * s * w2
        blocks[:, 1, 1] = s * s * w1 + c * c * w2
        blocks[:, 0, 1] = blocks[:, 1, 0] = c * s * (w1 - w2)
        return blocks


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
    if J < 1:
        raise ValueError("J must be >= 1")
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
    """(lo, hi) row ranges covering 0..n of SAMPLE_BLOCK // J rows rounded
    down to a multiple of 8; a one-row remainder joins the block before it.
    Each row's product with the slope then takes the BLAS path of one
    product over all n rows (254-row blocks at J = 129 did not)."""
    bounds = list(range(0, n, 8 * max(SAMPLE_BLOCK // (8 * J), 1))) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
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
    noise out of the raw rows before they are scaled, then the largest
    size's noise.  :func:`draw_dataset` with ``stream=`` then hands out
    ``sizes`` in increasing order.

    The stream keeps the first ``columns`` coefficients of every row in one
    shared array, the products of the largest size's row blocks with the
    slope, and every size's noise.  A row's product with the slope can take
    other last bits in a block of another shape, so the last row block of
    every smaller size, ``_row_blocks(n, J)[-1]``, is also multiplied by the
    slope in its own shape when its last row is drawn.  Every dataset is
    then bit for bit the one drawn for its size alone.
    """

    def __init__(self, cov: Covariance, slope: np.ndarray, seed: int, sizes,
                 columns: int):
        self.cov, self.slope, self.seed = cov, slope, seed
        self.sizes = tuple(sizes)
        self.columns = columns
        if not self.sizes or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError("stream sizes must be a strictly increasing sequence")
        if not 1 <= columns <= cov.dim:
            raise ValueError(f"columns must lie in 1..{cov.dim}, got {columns}")
        self._handed = 0  # sizes handed out so far
        self._x = None  # the arrays come with the first take

    def _draw(self) -> None:
        """Draw every normal of the stream and multiply its rows by the
        slope."""
        cov, slope, J = self.cov, self.slope, self.cov.dim
        n_max, smaller = self.sizes[-1], self.sizes[:-1]
        rng = np.random.default_rng(self.seed)
        blocks = _row_blocks(n_max, J)
        self._x, self._signal = np.empty((n_max, self.columns)), np.empty(n_max)
        self._noise = {n: np.empty(n) for n in smaller}
        self._own = {}  # smaller size -> products of its last row block
        lasts = [(n, *_row_blocks(n, J)[-1]) for n in smaller]
        carried = {}  # smaller size -> its last row block, filled so far
        buffer = np.empty((max(hi - lo for lo, hi in blocks), J))
        for lo, hi in blocks:
            block = buffer[:hi - lo]
            rng.standard_normal(out=block)
            raw = block.reshape(-1)
            for n in smaller:  # noise at stream positions n * J .. n * J + n
                a, b = max(lo * J, n * J), min(hi * J, n * J + n)
                if a < b:
                    self._noise[n][a - n * J:b - n * J] = raw[a - lo * J:b - lo * J]
            block *= cov.sampling_scale
            cov.rotate(block)
            self._x[lo:hi] = block[:, :self.columns]
            self._signal[lo:hi] = block @ slope
            for n, first, last in lasts:
                if first < hi < last:  # a one-row merge: it ends in the next block
                    carried[n] = np.empty((last - first, J))
                    carried[n][:hi - first] = block[first - lo:]
                elif lo < last <= hi and first < lo:
                    carried[n][lo - first:] = block[:last - lo]
                    self._own[n] = carried.pop(n) @ slope
                elif lo < last <= hi:
                    self._own[n] = block[first - lo:last - lo] @ slope
        # free the row block first, so that a stream never holds it and the
        # largest size's noise at once
        del buffer, block, raw
        noise = self._noise[n_max] = rng.standard_normal(n_max)
        for n in smaller:
            past = n * J + n - n_max * J  # noise normals past the rows
            if past > 0:
                self._noise[n][n - past:] = noise[:past]

    def take(self, cov: Covariance, slope: np.ndarray, n: int, sigma: float,
             seed: int, columns: int) -> tuple:
        """(y, x) of the next size ``n``: x C-contiguous, n x ``columns``."""
        if cov is not self.cov or slope is not self.slope or seed != self.seed:
            raise ValueError("a stream draws with the covariance, slope and seed it was made for")
        if self._handed == len(self.sizes) or n != self.sizes[self._handed]:
            raise ValueError(f"the stream's next size is not {n}")
        if columns > self.columns:
            raise ValueError(f"the stream keeps {self.columns} columns, not {columns}")
        if self._x is None:
            self._draw()
        # y is sigma * noise + the slope products, formed in the noise array
        y = self._noise.pop(n)
        y *= sigma
        own = self._own.pop(n, None)
        cut = n if own is None else n - len(own)
        y[:cut] += self._signal[:cut]
        if own is not None:
            y[cut:] += own
        x = self._x[:n]
        if columns < self.columns:
            x = np.ascontiguousarray(x[:, :columns])
        self._handed += 1
        return y, x


def draw_dataset(cov: Covariance, slope: np.ndarray, n: int, sigma: float,
                 seed: int, columns: Optional[int] = None, *,
                 stream: Optional[GridStream] = None) -> Dataset:
    """n i.i.d. pairs with regressors of covariance ``cov`` (J = ``cov.dim``
    coefficients) and the J slope coefficients ``slope``, fully determined
    by ``seed``.

    The n x J standard normals are drawn one row block at a time into one
    scratch block, scaled, rotated, multiplied into their rows of y and
    copied into x; the noise is drawn after the last block.  Chunked fills
    continue one stream, so the sample is bit for bit that of one n x J
    draw.  With ``columns`` the regressors keep only their first
    ``columns`` coefficients: x is n x columns, y still sees all J.

    ``stream`` is a :class:`GridStream` of ``seed`` whose next size is n: the
    call then hands out that size from the stream, which draws all its
    sizes at once on its first call, and returns the same dataset.  Without
    it the call is the one-size stream.
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
    width = J if columns is None else columns
    if not 1 <= width <= J:
        raise ValueError(f"columns must lie in 1..{J}, got {columns}")
    if stream is None:
        stream = GridStream(cov, slope, seed, (n,), width)
    y, x = stream.take(cov, slope, n, sigma, seed, width)
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
