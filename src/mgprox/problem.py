"""Composite objectives F(x) = f(x) + g(x) and their proximal primitives.

The flagship instance family is l1-regularized least squares,
min 0.5*||Ax - b||^2 + lam*||x||_1, optionally in "bucket" form where the
effective dictionary is B = [A, I] acting on w = [x, e] for dense error
correction.  The identity block is applied in operator form and never
stored as a dense matrix.
"""

import warnings

import numpy as np

__all__ = [
    "soft_threshold",
    "power_iteration",
    "L1LeastSquares",
    "SmoothedView",
    "prox_step",
    "prog",
    "gradient_mapping",
    "mirror_step",
    "lipschitz_estimate",
]

# Safety factor applied on top of the power-iteration estimate: power
# iteration approaches the spectral norm from below, the guarantee lemmas
# need a true upper bound.
LIPSCHITZ_SAFETY = 1.01


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Entrywise shrinkage T_t(v)_i = (|v_i| - t)_+ * sgn(v_i), written as
    v minus its clip to [-t, t]: three array operations instead of five,
    and the same values, NaN and +-inf included (a zero may differ in
    sign)."""
    return v - np.minimum(np.maximum(v, -t), t)


def power_iteration(op, dim: int, rel_tol: float = 1e-6, max_iters: int = 5000,
                    seed: int = 7):
    """Largest eigenvalue of a symmetric PSD operator ``op`` on R^dim.

    Returns (estimate, converged).  Emits a warning and returns the best
    estimate if the Rayleigh quotient has not stabilized to ``rel_tol``
    within ``max_iters``.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = op(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        lam_new = float(v @ w)
        v = w / nw
        if abs(lam_new - lam) <= rel_tol * max(abs(lam_new), 1e-30):
            return lam_new, True
        lam = lam_new
    warnings.warn(
        f"power iteration did not reach rel_tol={rel_tol:g} after "
        f"{max_iters} iterations; returning best estimate {lam:.6g}",
        RuntimeWarning,
    )
    return lam, False


def _check_dim(x: np.ndarray, dim: int):
    if x.shape != (dim,):
        raise ValueError(f"expected vector of length {dim}, got shape {x.shape}")


def _check_step(name: str, value: float):
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive (got {value})")


def _apply(A: np.ndarray, w: np.ndarray, bucket: bool) -> np.ndarray:
    """A w, or B w = A w_x + w_e for B = [A, I] in bucket form."""
    if bucket:
        n = A.shape[1]
        return A @ w[:n] + w[n:]
    return A @ w


def _apply_adjoint(A: np.ndarray, r: np.ndarray, bucket: bool) -> np.ndarray:
    """A^T r, or B^T r = [A^T r, r] for B = [A, I] in bucket form."""
    if bucket:
        return np.concatenate([A.T @ r, r])
    return A.T @ r


class L1LeastSquares:
    """F(x) = f(x) + g(x) with f(x) = 0.5*||Ax - b||^2, g(x) = lam*||x||_1.

    With ``bucket=True`` the effective dictionary is B = [A, I] acting on
    w = [x, e] of length n + m; matrix-vector products with the identity
    block are carried out blockwise.

    lam = 0 is accepted and turns the instance into a plain least-squares
    problem (g == 0), which is convenient for smooth sanity checks.

    Problem data is immutable after construction and every method is a
    pure function of its inputs, so one instance can be shared across
    concurrent solver runs.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lam: float = 1e-6,
                 bucket: bool = False):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-D array")
        if b.shape != (A.shape[0],):
            raise ValueError(
                f"b has length {b.shape}, expected ({A.shape[0]},)")
        if not 0 <= lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative (got {lam})")
        for name, data in (("A", A), ("b", b)):
            if not np.all(np.isfinite(data)):
                raise ValueError(
                    f"{name} has {int(np.sum(~np.isfinite(data)))} "
                    f"non-finite entries (NaN or Inf)")
        self.A = A
        self.b = b
        self.lam = float(lam)
        self.bucket = bool(bucket)
        self.m, self.n_x = A.shape
        self.dim = self.n_x + self.m if bucket else self.n_x
        # g <= g_mu <= g + smoothing_beta * mu for the l1 smoothing
        self.smoothing_beta = self.lam * self.dim
        self.L_f = lipschitz_estimate(self)

    # -- operator products ------------------------------------------------
    def apply(self, x):
        """A x, or B w = A x_part + e_part in bucket form."""
        _check_dim(x, self.dim)
        return _apply(self.A, x, self.bucket)

    def apply_adjoint(self, r):
        """A^T r, or B^T r = [A^T r, r] in bucket form."""
        return _apply_adjoint(self.A, r, self.bucket)

    def residual(self, x):
        return self.apply(x) - self.b

    # -- smooth part f and nonsmooth part g --------------------------------
    def f_value(self, x) -> float:
        r = self.residual(x)
        return 0.5 * float(r @ r)

    def f_grad(self, x):
        return self.apply_adjoint(self.residual(x))

    def g_value(self, x) -> float:
        return self.lam * float(np.abs(x).sum())

    def g_prox(self, v, t):
        """argmin_y 0.5*||y - v||^2 + t*g(y) for finite t > 0."""
        _check_step("prox step constant t", t)
        return soft_threshold(v, t * self.lam)

    def value(self, x, r=None) -> float:
        """F(x); given the residual r = B x - b, f(x) = 0.5 ||r||^2 is
        taken from it with no product."""
        if r is None:
            r = self.residual(x)
        return 0.5 * float(r @ r) + self.g_value(x)


class SmoothedView:
    """mu-smoothed view F_mu(x) = f(x) + g_mu(x) of a problem.

    For the l1 penalty, g_mu(x) = lam * sum_j sqrt(mu^2 + x_j^2), which
    sandwiches g as g(x) <= g_mu(x) <= g(x) + lam*dim*mu and has a
    (lam/mu)-Lipschitz gradient.
    """

    def __init__(self, problem: L1LeastSquares, mu: float):
        _check_step("smoothing level mu", mu)
        self.problem = problem
        self.mu = float(mu)

    def g_value(self, x) -> float:
        return self.problem.lam * float(
            np.sqrt(self.mu * self.mu + x * x).sum())

    def g_grad(self, x):
        return self.problem.lam * x / np.sqrt(self.mu * self.mu + x * x)

    def value(self, x, r=None) -> float:
        """F_mu(x); given the residual r = B x - b of a least-squares
        problem, f(x) = 0.5 ||r||^2 is taken from it with no product."""
        if r is None:
            return self.problem.f_value(x) + self.g_value(x)
        return 0.5 * float(r @ r) + self.g_value(x)

    def grad(self, x):
        return self.problem.f_grad(x) + self.g_grad(x)


# ---------------------------------------------------------------------------
# The steps the guarantee lemmas are stated for.


def prox_step(problem: L1LeastSquares, x: np.ndarray, L: float,
              g: np.ndarray = None) -> np.ndarray:
    """argmin_y L/2*||y - x||^2 + <grad f(x), y - x> + g(y).

    A caller that already holds grad f(x) passes it as ``g``; otherwise
    it is computed here, for one product with B and one with B^T.
    """
    _check_step("L", L)
    x = np.asarray(x, dtype=float)
    if g is None:
        g = problem.f_grad(x)
    return problem.g_prox(x - g / L, 1.0 / L)


def prog(problem: L1LeastSquares, x: np.ndarray, L: float) -> float:
    """Decrease value of the prox subproblem at x; always >= 0."""
    x = np.asarray(x, dtype=float)
    gfx = problem.f_grad(x)
    y = prox_step(problem, x, L, gfx)
    d = y - x
    return -(0.5 * L * float(d @ d) + float(gfx @ d)
             + problem.g_value(y) - problem.g_value(x))


def gradient_mapping(problem: L1LeastSquares, x: np.ndarray) -> np.ndarray:
    """Optimality measure D(x) = x - prox(x); vanishes exactly at minimizers."""
    x = np.asarray(x, dtype=float)
    return x - prox_step(problem, x, problem.L_f)


def mirror_step(problem: L1LeastSquares, z: np.ndarray, xi: np.ndarray,
                alpha: float) -> np.ndarray:
    """argmin_u 0.5*||u - z||^2 + alpha*<xi, u> + alpha*g(u).

    This Euclidean mirror step is exactly the prox of alpha*g at
    z - alpha*xi: with an l1 penalty the shrinkage
    T_(alpha*lam)(z - alpha*xi), with g == 0 the plain translation.
    """
    _check_step("alpha", alpha)
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if z.shape != xi.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {xi.shape}")
    return problem.g_prox(z - alpha * xi, alpha)


def lipschitz_estimate(problem: L1LeastSquares) -> float:
    """Safe upper bound on ||A^T A||_2 (bucket: ||B^T B||_2).

    Power iteration to relative tolerance 1e-6, inflated by 1.01.
    """
    est, _ = power_iteration(
        lambda v: problem.apply_adjoint(problem.apply(v)), problem.dim)
    return LIPSCHITZ_SAFETY * est
