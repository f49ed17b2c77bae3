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
    """L1LeastSquares that counts its products with B and B^T."""

    def __init__(self, *args, **kwargs):
        self.calls = {"apply": 0, "apply_adjoint": 0}
        super().__init__(*args, **kwargs)

    def apply(self, x):
        self.calls["apply"] += 1
        return super().apply(x)

    def apply_adjoint(self, r):
        self.calls["apply_adjoint"] += 1
        return super().apply_adjoint(r)


def one_d_lasso(a=1.0, b=2.0, lam=1.0):
    return L1LeastSquares(np.array([[a]]), np.array([b]), lam)
