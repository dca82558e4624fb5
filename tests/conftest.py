import numpy as np
import pytest


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


@pytest.fixture
def dense():
    """The dense covariance reference, :func:`dense_covariance_matrix`."""
    return dense_covariance_matrix
