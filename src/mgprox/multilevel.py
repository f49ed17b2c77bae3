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

from .problem import SmoothedView, power_iteration, LIPSCHITZ_SAFETY

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
        self.level_dims = [n] + [self.n_H << k
                                 for k in reversed(range(levels - 1))]
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
        n_xH = A_H.shape[1]
        if problem.bucket:
            def op(v):
                r = A_H @ v[:n_xH] + v[n_xH:]
                return np.concatenate([A_H.T @ r, r])
            dim = n_xH + problem.m
        else:
            def op(v):
                return A_H.T @ (A_H @ v)
            dim = n_xH
        est, _ = power_iteration(op, dim)
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
    """Smoothed reduced model with linear coherence correction.

    value(w_H)  = 0.5*||A_H x_H + e - b||^2
                  + lam * sum_j sqrt(mu_H^2 + w_H_j^2) + <v_H, w_H>
    (the "+ e" block only in bucket form).  The gradient of the smoothed
    l1 part is lam*w_j/sqrt(mu_H^2 + w_j^2) entrywise.
    """

    def __init__(self, A_H, b, lam, mu_H, bucket, v_H, anchor, L):
        self.A_H = A_H
        self.b = b
        self.lam = lam
        self.mu_H = mu_H
        self.bucket = bucket
        self.n_xH = A_H.shape[1]
        self.m = A_H.shape[0]
        self.dim = self.n_xH + self.m if bucket else self.n_xH
        self.v_H = v_H
        self.anchor = anchor
        self.L = L

    def _residual(self, w):
        if self.bucket:
            return self.A_H @ w[:self.n_xH] + w[self.n_xH:] - self.b
        return self.A_H @ w - self.b

    def _smooth_pen_grad(self, w):
        return self.lam * w / np.sqrt(self.mu_H ** 2 + w * w)

    def base_grad(self, w):
        """Gradient without the linear correction term."""
        r = self._residual(w)
        if self.bucket:
            quad = np.concatenate([self.A_H.T @ r, r])
        else:
            quad = self.A_H.T @ r
        return quad + self._smooth_pen_grad(w)

    def value(self, w) -> float:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {w.shape}")
        r = self._residual(w)
        pen = self.lam * float(np.sum(np.sqrt(self.mu_H ** 2 + w * w)))
        return 0.5 * float(r @ r) + pen + float(self.v_H @ w)

    def grad(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"expected vector of length {self.dim}, got {w.shape}")
        return self.base_grad(w) + self.v_H

    def lipschitz(self) -> float:
        """Safe Lipschitz bound: spectral part (x1.01) plus lam/mu_H."""
        return self.L


def build_coarse_model(problem, chain: RestrictionChain, x_k: np.ndarray,
                       mu_fine: float, mu_H: float = None,
                       fine_grad: np.ndarray = None) -> CoarseModel:
    """Coarse model anchored at x_k with exact first-order coherence.

    v_H = R*grad(F_mu)(x_k) - (grad f_H + grad g_H)(R x_k), which makes
    grad(F_H)(R x_k) equal to R*grad(F_mu)(x_k) by construction.  A_H and
    its spectral bound are cached on the chain; v_H is recomputed for
    every anchor.  Pass ``fine_grad`` when grad(F_mu)(x_k) is already
    available to avoid one fine-level pass.
    """
    if mu_fine <= 0:
        raise ValueError("mu_fine must be positive")
    if mu_H is None:
        mu_H = mu_fine
    if mu_H <= 0:
        raise ValueError("mu_H must be positive")
    A_H, spectral = chain.coarse_dictionary(problem)
    L_H = spectral + problem.lam / mu_H
    anchor = chain.restrict(np.asarray(x_k, dtype=float))
    model = CoarseModel(A_H, problem.b, problem.lam, mu_H, problem.bucket,
                        v_H=np.zeros(chain.coarse_dim), anchor=anchor, L=L_H)
    if fine_grad is None:
        fine_grad = SmoothedView(problem, mu_fine).grad(np.asarray(x_k, dtype=float))
    model.v_H = chain.restrict(fine_grad) - model.base_grad(anchor)
    return model
