import math

import numpy as np
import pytest

from flradapt import simulate


def dense_covariance_matrix(cov):
    """Dense reference for ``simulate.Covariance``: diag(gamma) with each
    rotated pair's 2x2 block from ``pair_blocks`` on the diagonal.  The
    library works on the covariance in closed form and never builds this
    matrix; the tests compare those closed forms against it."""
    lam = cov.eigenvalues()
    mat = np.diag(lam)
    # row and column indices of each pair's 2x2 block on the diagonal
    pair = np.arange(0, 2 * (cov.dim // 2), 2)[:, None, None]
    mat[pair + [[0], [1]], pair + [[0, 1]]] = cov.pair_blocks(lam)
    return mat


def effective_d_reference(cov):
    """Link constant from the numerical eigenvalues of diag(w)^-1 B for each
    rotated block B of diag(gamma^2), w = gamma^2."""
    lam2 = cov.eigenvalues() ** 2
    w = np.stack([lam2[0:2 * (cov.dim // 2):2], lam2[1:2 * (cov.dim // 2):2]], axis=-1)
    mu = np.linalg.eigvals(cov.pair_blocks(lam2) / w[..., None]).real
    return float(max(1.0, math.sqrt(max(mu.max(), 1.0 / mu.min()))))


@pytest.fixture
def dense():
    """The dense covariance reference, :func:`dense_covariance_matrix`."""
    return dense_covariance_matrix


def narrow_draw(cov, slope, n, sigma, seed, columns):
    """The dataset of ``draw_dataset`` at one size that keeps the first
    ``columns`` regressor coefficients: the draw of a one-size
    ``GridStream`` of that width."""
    stream = simulate.GridStream(cov, slope, seed, (n,), columns)
    return simulate.draw_dataset(cov, slope, n, sigma, seed, stream=stream)


@pytest.fixture
def narrow():
    """The one-size narrow draw, :func:`narrow_draw`."""
    return narrow_draw
