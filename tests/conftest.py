import numpy as np
import pytest

from mgprox import L1LeastSquares


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_lasso(rng, m=None, n=None, lam=None, bucket=False):
    """Small random instance for property loops."""
    m = m if m is not None else int(rng.integers(4, 16))
    n = n if n is not None else int(rng.integers(3, 12))
    lam = lam if lam is not None else float(rng.uniform(0.01, 1.5))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    return L1LeastSquares(A, b, lam, bucket=bucket)


class CountingLasso(L1LeastSquares):
    """L1LeastSquares that counts its products with B and B^T, including
    those of the one-pass ``residuals_and_gradient``."""

    def __init__(self, *args, **kwargs):
        self.calls = {"apply": 0, "apply_adjoint": 0}
        super().__init__(*args, **kwargs)

    def apply(self, x):
        self.calls["apply"] += 1
        return super().apply(x)

    def apply_adjoint(self, r):
        self.calls["apply_adjoint"] += 1
        return super().apply_adjoint(r)

    def residuals_and_gradient(self, y, z=None, t=1.0):
        # one pass over A: one product with B per point, one with B^T
        self.calls["apply"] += 1 if z is None else 2
        self.calls["apply_adjoint"] += 1
        return super().residuals_and_gradient(y, z, t)


def dense_restriction(chain):
    """The chain's R_x as a dense n_H x n array, one restricted unit vector
    per column."""
    R = np.empty((chain.n_H, chain.n))
    e = np.zeros(chain.fine_dim)
    for j in range(chain.n):
        e[j] = 1.0
        R[:, j] = chain.restrict(e)[:chain.n_H]
        e[j] = 0.0
    return R


def dense_prolongation(chain):
    """The chain's R_x^T as a dense n x n_H array, one prolonged unit
    vector per column."""
    P = np.empty((chain.n, chain.n_H))
    e = np.zeros(chain.coarse_dim)
    for i in range(chain.n_H):
        e[i] = 1.0
        P[:, i] = chain.prolong(e)[:chain.n]
        e[i] = 0.0
    return P


def one_d_lasso(a=1.0, b=2.0, lam=1.0):
    return L1LeastSquares(np.array([[a]]), np.array([b]), lam)
