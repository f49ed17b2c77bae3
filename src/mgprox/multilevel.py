"""Level-transfer operators and first-order-coherent coarse models.

Restriction uses the standard stride-2 full-weighting stencil
1/4 [1 2 1], composed across levels; prolongation is its exact transpose
(sigma = 1).  For bucket problems the operators act only on the x block
and pass the error block through unchanged: R = [R_x, I].

The coarse model is the reduced smoothed l1 least-squares model on the
chain's A_H plus a linear correction <v_H, .> that makes its gradient at
R x_k the restricted smoothed fine gradient; problem, chain, x_k and mu
alone define it.  Its gradient steps are taken in the rank-one-corrected
metric of the coarse dictionary, formed as the fine level's is.
"""

import weakref

import numpy as np

from .problem import (LIPSCHITZ_SAFETY, SmoothedView, _apply, _apply_adjoint,
                      _check_dim, _ky_fan_bound, _metric_descent,
                      power_iteration)

__all__ = [
    "RestrictionChain",
    "build_chain",
    "CoarseModel",
    "build_coarse_model",
]


class RestrictionChain:
    """Composed restriction across ``levels`` grids, acting on the x block.

    The x dimension n halves per level; levels = 1 yields the degenerate
    identity chain (R = I on the x block), used to switch the multilevel
    machinery off.  A bucket chain needs the error-block size m, and
    levels may not exceed n's bit length.  ``build_chain`` is this class.

    Over levels - 1 halvings the full-weighting stencils compose into one
    kernel of width 2f - 1 at stride f = 2^(levels-1): coarse entry i
    weights fine entry i f + d by the hat (f - |d|)/f^2, |d| < f, the
    transpose of composed linear interpolation, formed in closed form in
    O(f) time and memory with exact dyadic weights.  ``kernel`` holds it
    as two length-f halves, the columns [right, left] of an (f, 2) array:
    ``right`` = (f - j)/f^2 weights fine block i (entries i f + j,
    j = 0 ... f - 1) and ``left`` = j/f^2 weights block i - 1 (its first
    weight is 0).  A fine x-dimension that is not divisible by f is
    zero-padded to n_H f, which equals running the stencils on the padded
    size and keeping the first n columns of the composed operator.
    Prolongation applies the transpose of the same kernel (P = R^T).
    """

    def __init__(self, n: int, levels: int, bucket: bool = False, m: int = 0):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if n < 1:
            raise ValueError("n must be >= 1")
        if bucket and m < 1:
            raise ValueError("bucket chains need the error-block size m")
        max_depth = int(n).bit_length()
        if levels > max_depth:
            raise ValueError(
                f"n={n} is too small for {levels} levels; "
                f"maximum feasible depth is {max_depth}")
        f = 2 ** (levels - 1)
        j = np.arange(f)
        self.n = n
        self.levels = levels
        self.kernel = np.column_stack([f - j, j]) / (f * f)
        self.n_H = -(-n // f)
        self.bucket = bucket
        self.m = m
        self._model_cache = weakref.WeakKeyDictionary()

    @property
    def fine_dim(self) -> int:
        return self.n + self.m if self.bucket else self.n

    @property
    def coarse_dim(self) -> int:
        return self.n_H + self.m if self.bucket else self.n_H

    @property
    def is_identity(self) -> bool:
        return self.levels == 1

    def _restrict_x(self, M: np.ndarray) -> np.ndarray:
        """R_x applied along the last axis of M: a vector, or the rows of A.

        The full blocks are a reshaped view of M, so A is never copied; a
        partial last block is weighted on its own.  One pass over M gives
        both halves of every block.
        """
        f = self.kernel.shape[0]
        q = self.n // f
        lead = M.shape[:-1]
        halves = M[..., :q * f].reshape(lead + (q, f)) @ self.kernel
        out = np.empty(lead + (self.n_H,))
        out[..., :q] = halves[..., 0]
        if q < self.n_H:
            out[..., q] = M[..., q * f:] @ self.kernel[:self.n - q * f, 0]
        out[..., 1:] += halves[..., :self.n_H - 1, 1]
        return out

    def _prolong_x(self, u: np.ndarray) -> np.ndarray:
        """R_x^T u: fine block i is right * u_i + left * u_{i+1}."""
        coeffs = np.zeros((self.n_H, 2))
        coeffs[:, 0] = u
        coeffs[:-1, 1] = u[1:]
        return (coeffs @ self.kernel.T).reshape(-1)[:self.n]

    def restrict(self, w: np.ndarray) -> np.ndarray:
        """Transfer a fine vector to the coarse level."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.fine_dim,):
            raise ValueError(
                f"expected fine vector of length {self.fine_dim}, got {w.shape}")
        if self.bucket:
            return np.concatenate([self._restrict_x(w[:self.n]), w[self.n:]])
        return self._restrict_x(w)

    def prolong(self, u: np.ndarray) -> np.ndarray:
        """Transfer a coarse vector back to the fine level (P = R^T)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.coarse_dim,):
            raise ValueError(
                f"expected coarse vector of length {self.coarse_dim}, got {u.shape}")
        if self.bucket:
            return np.concatenate([self._prolong_x(u[:self.n_H]), u[self.n_H:]])
        return self._prolong_x(u)

    def _check_problem(self, problem):
        """Raise unless the chain was built for problem's n, bucket and m."""
        if (self.n, self.bucket) != (problem.n_x, problem.bucket) \
                or self.bucket and self.m != problem.m:
            raise ValueError(
                f"chain is for n={self.n}, bucket={self.bucket}, m={self.m}; "
                f"problem has n_x={problem.n_x}, bucket={problem.bucket}, "
                f"m={problem.m}")

    def coarse_dictionary(self, problem):
        """(A_H, spectral, v, a): A_H = A R_x^T, the spectral estimate of
        B_H^T B_H (power iteration x1.01, not a certified bound), the unit
        vector v that power iteration ends on and the Ky Fan bound
        a <= spectral on B_H^T B_H off v (``_ky_fan_bound``), so that
        B_H^T B_H <= a (I - v v^T) + spectral v v^T.

        The fine level's ``lipschitz_estimate`` on the coarse dictionary:
        keeping v costs no product, and a costs one read of A_H.  A_H has
        only n / 2^(levels-1) columns, so the bound is close to lambda_2
        there.  Cached per problem; none of it depends on the anchor
        point.  ``CoarseModel`` adds lam/mu to spectral and a.
        """
        self._check_problem(problem)
        cached = self._model_cache.get(problem)
        if cached is not None:
            return cached
        A_H = self._restrict_x(problem.A)
        bucket = problem.bucket
        last = []

        def op(u):
            last[:] = (u, _apply_adjoint(A_H, _apply(A_H, u, bucket), bucket))
            return last[1]

        est, _ = power_iteration(op, self.coarse_dim)
        spectral = LIPSCHITZ_SAFETY * est
        v, Mv = last
        a = _ky_fan_bound(A_H, bucket, est, spectral, v, Mv)
        self._model_cache[problem] = (A_H, spectral, v, a)
        return A_H, spectral, v, a


build_chain = RestrictionChain


class CoarseModel:
    """The coarse model of ``problem`` at the anchor R x_k, smoothed with
    ``mu``; ``build_coarse_model`` is this class.

    value(w_H) = f_H(w_H) + g_mu(w_H) + <v_H, w_H>: f_H is the fine
    least-squares term with A replaced by A_H (B_H = [A_H, I] in bucket
    form), g_mu the fine level's smoothed penalty, and
    v_H = grad_H - grad(f_H + g_mu)(anchor), so that grad(anchor) is
    grad_H = R grad(F_mu)(x_k).  A_H is the chain's ``coarse_dictionary``,
    cached on the chain; the model's Lipschitz estimate ``L`` and the
    metric V_H = a (I - v v^T) + L v v^T take its spectral estimate and
    its Ky Fan bound, each plus lam/mu, which bounds the smoothed
    penalty's curvature, so V_H bounds the model's Hessian and
    V_H <= L I.  magma's coarse-branch eta and coarse descent check take
    the same L.  v_H is recomputed for every anchor; passing ``grad_H``
    saves one fine-level pass and one restriction.

    ``step(w, g)`` is the gradient step w - V_H^{-1} g.  It descends as
    the 1/L step does and lowers the value by at least ||g||^2 / (2 L);
    off the top vector v it is L / a times longer.  Where a = L it is
    w - g / L bit for bit.

    A point of the model is one vector [w, r, B_H^T r + v_H], with
    r = B_H w - b: lift(w) forms it, for one product with B_H and one with
    B_H^T, and value(p) and grad(p) read it and make none.  A point is
    affine in w, so an affine combination of points (weights summing to
    1) is the point of the same combination of their w.  ``start`` is the
    anchor's point, made from the products that define v_H.
    """

    def __init__(self, problem, chain: RestrictionChain, x_k: np.ndarray,
                 mu: float, grad_H: np.ndarray = None):
        self.view = view = SmoothedView(problem, mu)
        self.A_H, spectral, self.v, a = chain.coarse_dictionary(problem)
        smooth = problem.lam / mu
        self.L, self.a = spectral + smooth, a + smooth
        self.b, self.m, self.bucket = problem.b, problem.m, problem.bucket
        x_k = np.asarray(x_k, dtype=float)
        if grad_H is None:
            grad_H = chain.restrict(view.grad(x_k))
        self.anchor = anchor = chain.restrict(x_k)
        self.dim = anchor.shape[0]
        r, Btr = self._products(anchor)
        self.v_H = grad_H - (Btr + view.g_grad(anchor))
        self.start = np.concatenate([anchor, r, Btr + self.v_H])

    def _products(self, w):
        """r = B_H w - b and B_H^T r: the model's one product site."""
        r = _apply(self.A_H, w, self.bucket) - self.b
        return r, _apply_adjoint(self.A_H, r, self.bucket)

    def lift(self, w) -> np.ndarray:
        """The point [w, r, B_H^T r + v_H] of w."""
        w = np.asarray(w, dtype=float)
        _check_dim(w, self.dim)
        r, Btr = self._products(w)
        return np.concatenate([w, r, Btr + self.v_H])

    def step(self, w, g) -> np.ndarray:
        """The gradient step w - V_H^{-1} g in the model's metric."""
        return _metric_descent(w, g, self.v, self.a, self.L)

    def _parts(self, p):
        """The blocks w, r and B_H^T r + v_H of the point p."""
        _check_dim(p, 2 * self.dim + self.m)
        d, e = self.dim, self.dim + self.m
        return p[:d], p[d:e], p[e:]

    def value(self, p) -> float:
        """The value at the point p."""
        w, r, _ = self._parts(p)
        return 0.5 * float(r @ r) + self.view.g_value(w) + float(self.v_H @ w)

    def grad(self, p):
        """The gradient at the point p."""
        w, _, a = self._parts(p)
        return a + self.view.g_grad(w)


build_coarse_model = CoarseModel
