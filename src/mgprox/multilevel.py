"""Level-transfer operators and first-order-coherent coarse models.

Restriction uses the standard stride-2 full-weighting stencil
1/4 [1 2 1], composed across levels; prolongation is its exact transpose
(sigma = 1).  For bucket problems the operators act only on the x block
and pass the error block through unchanged: R = [R_x, I].

The coarse objective is the reduced smoothed l1 least-squares model plus
a linear correction <v_H, .> chosen so that the coarse gradient at the
anchor equals the restricted gradient of the smoothed fine objective.
"""

import weakref

import numpy as np

from .problem import (LIPSCHITZ_SAFETY, SmoothedView, _apply, _apply_adjoint,
                      _check_dim, power_iteration)

__all__ = [
    "RestrictionChain",
    "build_chain",
    "CoarseModel",
    "build_coarse_model",
]


class RestrictionChain:
    """Composed restriction across levels, acting on the x block.

    Over levels - 1 halvings the full-weighting stencils compose into one
    kernel of width 2f - 1 at stride f = 2^(levels-1): coarse entry i
    weights fine entry i f + d by the hat (f - |d|)/f^2, |d| < f.
    ``kernel`` holds it as two length-f halves, the columns [right, left]
    of an (f, 2) array: ``right`` = (f - j)/f^2 weights fine block i
    (entries i f + j, j = 0 ... f - 1) and ``left`` = j/f^2 weights block
    i - 1 (its first weight is 0).  A fine x-dimension that is not
    divisible by f is zero-padded to n_H f, which equals running the
    stencils on the padded size and keeping the first n columns of the
    composed operator.  Prolongation applies the transpose of the same
    kernel (P = R^T).
    """

    def __init__(self, n: int, levels: int, kernel: np.ndarray,
                 bucket: bool = False, m: int = 0):
        self.n = n
        self.levels = levels
        self.kernel = kernel
        self.n_H = -(-n // kernel.shape[0])
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

    def coarse_dictionary(self, problem):
        """A_H = A R_x^T and the spectral estimate of the coarse system
        (power iteration x1.01, not a certified bound).

        Cached per problem; A_H does not depend on the anchor point.
        """
        cached = self._model_cache.get(problem)
        if cached is not None:
            return cached
        A_H = self._restrict_x(problem.A)
        bucket = problem.bucket
        est, _ = power_iteration(
            lambda v: _apply_adjoint(A_H, _apply(A_H, v, bucket), bucket),
            self.coarse_dim)
        spectral = LIPSCHITZ_SAFETY * est
        self._model_cache[problem] = (A_H, spectral)
        return A_H, spectral

    def coarse_system(self, problem, mu: float):
        """(A_H, L_H): the coarse dictionary, and the Lipschitz estimate of
        the coarse model at smoothing ``mu``, the spectral estimate plus
        lam/mu.

        The one place L_H is formed: the coarse-branch eta and the model
        that mfista solves take the same constant.
        """
        A_H, spectral = self.coarse_dictionary(problem)
        return A_H, spectral + problem.lam / mu


def build_chain(n: int, levels: int, bucket: bool = False,
                m: int = 0) -> RestrictionChain:
    """Build a chain of ``levels`` grids with the x dimension halving per level.

    levels = 1 yields the degenerate identity chain (R = I on the x block),
    used to switch the multilevel machinery off.

    The composed stencil is the hat (f - |d|)/f^2 at distance d from the
    coarse entry's centre, f = 2^(levels-1): the transpose of composed
    linear interpolation.  It is formed in closed form in O(f) time and
    memory whatever n is, and every weight is an exact dyadic rational.
    """
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
    kernel = np.column_stack([f - j, j]) / (f * f)
    return RestrictionChain(n, levels, kernel, bucket=bucket, m=m)


class CoarseModel:
    """The fine level's smoothed model on the coarse dictionary, plus a
    linear coherence correction.

    value(w_H) = f_H(w_H) + g_mu(w_H) + <v_H, w_H>, where f_H is the fine
    least-squares term with A replaced by A_H (B_H = [A_H, I] in bucket
    form) and g_mu is ``view``'s smoothed penalty, with its lam and mu.
    v_H = grad_H - grad(f_H + g_mu)(anchor), so grad(anchor) equals the
    restricted fine gradient ``grad_H``; ``L`` is its Lipschitz estimate.

    A point of the model is one vector [w, r, B_H^T r + v_H], with
    r = B_H w - b: lift(w) forms it, for one product with B_H and one with
    B_H^T, and value(p) and grad(p) read it and make none.  A point is
    affine in w, so an affine combination of points (weights summing to
    1) is the point of the same combination of their w.  ``start`` is the
    anchor's point, made from the products that define v_H.
    """

    def __init__(self, view: SmoothedView, A_H, anchor, grad_H, L):
        self.view = view
        self.A_H = A_H
        self.b = view.problem.b
        self.m = self.b.shape[0]
        self.bucket = view.problem.bucket
        self.anchor = anchor
        self.dim = anchor.shape[0]
        self.L = L
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


def build_coarse_model(problem, chain: RestrictionChain, x_k: np.ndarray,
                       mu_fine: float,
                       grad_H: np.ndarray = None) -> CoarseModel:
    """Coarse model anchored at x_k with exact first-order coherence.

    The coarse l1 term is smoothed with the fine level's mu, and the
    model's gradient at R x_k is R*grad(F_mu)(x_k).  A_H and its spectral
    estimate are cached on the chain; v_H is recomputed for every anchor.
    Pass ``grad_H`` = R*grad(F_mu)(x_k) when it is already available to
    avoid one fine-level pass and one restriction.
    """
    view = SmoothedView(problem, mu_fine)
    A_H, L_H = chain.coarse_system(problem, mu_fine)
    x_k = np.asarray(x_k, dtype=float)
    if grad_H is None:
        grad_H = chain.restrict(view.grad(x_k))
    return CoarseModel(view, A_H, chain.restrict(x_k), grad_H, L_H)
