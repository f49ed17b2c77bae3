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

    The prolongation shares the same array (P = R^T structurally).  For a
    fine x-dimension that is not divisible by 2^(levels-1) the stencils
    act on the next padded size and the composed operator keeps its
    first n columns; this is equivalent to zero-padding the x block.
    """

    def __init__(self, n: int, levels: int, R_x: np.ndarray,
                 bucket: bool = False, m: int = 0):
        self.n = n
        self.levels = levels
        self.R_x = R_x
        self.n_H = R_x.shape[0]
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

    def restrict(self, w: np.ndarray) -> np.ndarray:
        """Transfer a fine vector to the coarse level."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.fine_dim,):
            raise ValueError(
                f"expected fine vector of length {self.fine_dim}, got {w.shape}")
        if self.bucket:
            return np.concatenate([self.R_x @ w[:self.n], w[self.n:]])
        return self.R_x @ w

    def prolong(self, u: np.ndarray) -> np.ndarray:
        """Transfer a coarse vector back to the fine level (P = R^T)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.coarse_dim,):
            raise ValueError(
                f"expected coarse vector of length {self.coarse_dim}, got {u.shape}")
        if self.bucket:
            return np.concatenate([self.R_x.T @ u[:self.n_H], u[self.n_H:]])
        return self.R_x.T @ u

    def coarse_dictionary(self, problem):
        """A_H = A R_x^T and the safe spectral bound of the coarse system.

        Cached per problem; A_H does not depend on the anchor point.
        """
        cached = self._model_cache.get(problem)
        if cached is not None:
            return cached
        A_H = problem.A @ self.R_x.T
        bucket = problem.bucket
        est, _ = power_iteration(
            lambda v: _apply_adjoint(A_H, _apply(A_H, v, bucket), bucket),
            self.coarse_dim)
        spectral = LIPSCHITZ_SAFETY * est
        self._model_cache[problem] = (A_H, spectral)
        return A_H, spectral


def build_chain(n: int, levels: int, bucket: bool = False,
                m: int = 0) -> RestrictionChain:
    """Build a chain of ``levels`` grids with the x dimension halving per level.

    levels = 1 yields the degenerate identity chain (R = I on the x block),
    used to switch the multilevel machinery off.

    R_x^T is the coarse identity prolonged one level at a time, in
    O(n * n_H) time and memory; every entry is an exact dyadic rational.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if bucket and m < 1:
        raise ValueError("bucket chains need the error-block size m")
    max_depth = int(np.floor(np.log2(n))) + 1
    if 2 ** (levels - 1) > n:
        raise ValueError(
            f"n={n} is too small for {levels} levels; "
            f"maximum feasible depth is {max_depth}")
    factor = 2 ** (levels - 1)
    n_H = (n + factor - 1) // factor
    P = np.eye(n_H)
    for _ in range(levels - 1):
        Q = np.zeros((2 * P.shape[0], n_H))
        Q[0::2] = 0.5 * P
        Q[1::2] = 0.25 * P
        Q[1:-1:2] += 0.25 * P[1:]
        P = Q
    # C order, as the dense build stored R_x: the restrict/prolong products
    # then sum in the same order and magma's iterates stay bitwise equal.
    return RestrictionChain(n, levels, np.ascontiguousarray(P[:n].T),
                            bucket=bucket, m=m)


class CoarseModel:
    """The fine level's smoothed model on the coarse dictionary, plus a
    linear coherence correction.

    value(w_H) = f_H(w_H) + g_mu(w_H) + <v_H, w_H>, where f_H is the fine
    least-squares term with A replaced by A_H (B_H = [A_H, I] in bucket
    form) and g_mu is ``view``'s smoothed penalty, with its lam and mu.
    v_H = grad_H - grad(f_H + g_mu)(anchor), so grad(anchor) equals the
    restricted fine gradient ``grad_H``.  lipschitz() returns ``L``.
    """

    def __init__(self, view: SmoothedView, A_H, anchor, grad_H, L):
        self.view = view
        self.A_H = A_H
        self.b = view.problem.b
        self.bucket = view.problem.bucket
        self.anchor = anchor
        self.dim = anchor.shape[0]
        self.L = L
        self.v_H = grad_H - self._uncorrected_grad(anchor)

    def _uncorrected_grad(self, w):
        """grad(f_H + g_mu)(w), the gradient without the linear term."""
        r = _apply(self.A_H, w, self.bucket) - self.b
        return _apply_adjoint(self.A_H, r, self.bucket) + self.view.g_grad(w)

    def value(self, w) -> float:
        w = np.asarray(w, dtype=float)
        _check_dim(w, self.dim)
        r = _apply(self.A_H, w, self.bucket) - self.b
        return 0.5 * float(r @ r) + self.view.g_value(w) + float(self.v_H @ w)

    def grad(self, w):
        w = np.asarray(w, dtype=float)
        _check_dim(w, self.dim)
        return self._uncorrected_grad(w) + self.v_H

    def lipschitz(self) -> float:
        """Safe Lipschitz bound: spectral part (x1.01) plus lam/mu."""
        return self.L


def build_coarse_model(problem, chain: RestrictionChain, x_k: np.ndarray,
                       mu_fine: float,
                       fine_grad: np.ndarray = None) -> CoarseModel:
    """Coarse model anchored at x_k with exact first-order coherence.

    The coarse l1 term is smoothed with the fine level's mu, and the
    model's gradient at R x_k is R*grad(F_mu)(x_k).  A_H and its spectral
    bound are cached on the chain; v_H is recomputed for every anchor.
    Pass ``fine_grad`` when grad(F_mu)(x_k) is already available to avoid
    one fine-level pass.
    """
    view = SmoothedView(problem, mu_fine)
    A_H, spectral = chain.coarse_dictionary(problem)
    x_k = np.asarray(x_k, dtype=float)
    if fine_grad is None:
        fine_grad = view.grad(x_k)
    return CoarseModel(view, A_H, chain.restrict(x_k), chain.restrict(fine_grad),
                       L=spectral + problem.lam / mu_fine)
