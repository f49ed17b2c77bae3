import dataclasses
import json
import math
import numbers

import numpy as np
import pytest

from mgprox import L1LeastSquares, prox_step, solvers


def pytest_addoption(parser):
    parser.addoption(
        "--record-solves", metavar="PATH", default=None,
        help="write one JSON line per solver Solution the tests make, for "
             "tests/compare_solves.py to compare two trees bitwise")


def pytest_configure(config):
    path = config.getoption("record_solves")
    if path is not None:
        config.pluginmanager.register(_SolveRecorder(path), "solve-recorder")


def _plain(value):
    """A JSON value that keeps ``value`` bit for bit: floats as hex."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return value


def _row(record, skip=()):
    return [_plain(getattr(record, f.name))
            for f in dataclasses.fields(record) if f.name not in skip]


class _SolveRecorder:
    """Writes every Solution made while a test runs, under the test's id:
    x as the hex of its bytes, the other numbers as hex floats and ints,
    and the trace rows without their clock column.

    It replaces ``mgprox.solvers.Solution`` with a subclass that records
    itself when it is made, so it needs nothing else of the library.
    """

    def __init__(self, path):
        self.file = open(path, "w")
        self.test_id = None
        self.real = solvers.Solution
        recorder = self

        class Solution(self.real):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorder.write(self)

        solvers.Solution = Solution

    def write(self, sol):
        line = {
            "test": self.test_id,
            "x": np.ascontiguousarray(sol.x, dtype=float).tobytes().hex(),
            "objective": _plain(sol.objective),
            "grad_map_norm": _plain(sol.grad_map_norm),
            "gap": _plain(sol.gap),
            "iterations": _plain(sol.iterations),
            "converged": _plain(sol.converged),
            "step_counts": {k: _plain(v) for k, v in sol.step_counts.items()},
            "rejections": {k: _plain(v) for k, v in sol.rejections.items()},
            "coarse_events": [_row(e) for e in sol.coarse_events],
            "trace": [_row(r, skip=("elapsed_ns",)) for r in sol.trace],
        }
        self.file.write(json.dumps(line) + "\n")

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.test_id = item.nodeid

    def pytest_unconfigure(self, config):
        solvers.Solution = self.real
        self.file.close()


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


def textbook_fista(problem, x0, eps, max_iters):
    """Beck & Teboulle's FISTA, without restart: the baseline of the
    paper's comparison, written out as the library's fista runs it but
    for the gradient restart, and with no trace, L_f check or budget
    exit.  Each iteration makes one pass over A at the main iterate x,
    which gives the stopping test ||D(x)|| < eps, and the momentum point
    takes its gradient by linearity, so a solve makes one product with B
    and one with B^T per iteration and one of each at x0.

    Returns (x, iterations, converged).
    """
    L = problem.L_f
    x = np.array(x0, dtype=float)
    _, g = problem.residuals_and_gradient(x)
    x_prev, g_prev, y, g_y, t = x, g, x, g, 1.0
    for k in range(1, max_iters + 1):
        x = prox_step(problem, y, L, g_y)
        _, g = problem.residuals_and_gradient(x)
        if np.linalg.norm(x - prox_step(problem, x, L, g)) < eps:
            return x, k, True
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x + beta * (x - x_prev)
        g_y = g + beta * (g - g_prev)
        x_prev, g_prev, t = x, g, t_next
    return x, max_iters, False


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
