import math

import numpy as np
import pytest

from flradapt import simulate


def givens_matrix(dim, theta):
    """The dense rotation R of ``simulate.Covariance``: the identity with
    [[cos, -sin], [sin, cos]] on the diagonal for every coefficient pair
    (2k-1, 2k), and 1 for an unpaired last coefficient."""
    mat = np.eye(dim)
    c, s = math.cos(theta), math.sin(theta)
    for i in range(0, dim - 1, 2):
        mat[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
    return mat


def rotated_diagonal(dim, theta, weights):
    """R diag(weights) R^T from the dense rotation, symmetrized."""
    rot = givens_matrix(dim, theta)
    mat = rot @ np.diag(weights) @ rot.T
    return (mat + mat.T) / 2


def dense_covariance_matrix(cov):
    """Dense reference for ``simulate.Covariance``: R diag(gamma) R^T with
    the explicit Givens matrix R.  The library works on the covariance in
    closed form and never builds this matrix; the tests compare those
    closed forms against it."""
    return rotated_diagonal(cov.dim, cov.theta, cov.eigenvalues())


def effective_d_reference(cov):
    """Link constant from the numerical eigenvalues of diag(w)^-1 B for each
    pair's 2x2 block B on the diagonal of R diag(w) R^T, w = gamma^2."""
    w = cov.eigenvalues() ** 2
    mat = rotated_diagonal(cov.dim, cov.theta, w)
    mu = [np.linalg.eigvals(mat[i:i + 2, i:i + 2] / w[i:i + 2, None]).real
          for i in range(0, cov.dim - 1, 2)]
    return float(max(1.0, math.sqrt(max(np.max(mu), 1.0 / np.min(mu)))))


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
