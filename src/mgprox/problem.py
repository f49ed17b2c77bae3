"""Composite objectives F(x) = f(x) + g(x) and their proximal primitives.

The flagship instance family is l1-regularized least squares,
min 0.5*||Ax - b||^2 + lam*||x||_1, optionally in "bucket" form where the
effective dictionary is B = [A, I] acting on w = [x, e] for dense error
correction.  The identity block is applied in operator form and never
stored as a dense matrix.

Each problem carries, besides the Lipschitz estimate L_f of grad f, the
metric V = a (I - v v^T) + L_f v v^T of its top eigenvector v and a
certified bound a on B^T B off v (``lipschitz_estimate``).  The prox
step in V (``metric_prox_step``) and its inner product
(``metric_inner``) are what every solver's gradient steps, restart tests
and descent-lemma checks use, and agm and magma take their mirror steps
in M = V / L_f (``mirror_step``); on a spiked dictionary, whose one
direction sets L_f, V lets every other direction take a step L_f / a
times longer.
"""

import math
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
    "metric_prox_step",
    "metric_inner",
    "mirror_step",
    "lipschitz_estimate",
]

# Factor applied on top of the power-iteration estimate, which approaches
# the spectral norm from below; the product is still not a certified bound.
LIPSCHITZ_SAFETY = 1.01

# Rows of A per block of the one-pass products (``residuals_and_gradient``
# and each power-iteration step of ``lipschitz_estimate``) hold about
# this many bytes, so that a block read from memory for its
# products with the points is still in a 2 MiB L2 cache for its product
# with B^T.
PASS_BLOCK_BYTES = 1 << 20


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Entrywise shrinkage T_t(v)_i = (|v_i| - t)_+ * sgn(v_i), written as
    v minus its clip to [-t, t]: three array operations instead of five,
    and the same values, NaN and +-inf included (a zero may differ in
    sign)."""
    return v - np.minimum(np.maximum(v, -t), t)


def power_iteration(op, dim: int, rel_tol: float = 1e-6, max_iters: int = 5000,
                    seed: int = 7):
    """Largest eigenvalue of a symmetric PSD operator ``op`` on R^dim.

    Returns (estimate, converged).  Every vector ``op`` is applied to is a
    unit vector, and the estimate is the Rayleigh quotient v.op(v) of the
    last one, so it is at most the largest eigenvalue up to rounding;
    ``lipschitz_estimate`` keeps that last v.  Emits a warning and
    returns the best estimate if the Rayleigh quotient has not stabilized
    to ``rel_tol`` within ``max_iters``.  An output of ``op`` whose norm
    is not finite (a NaN or an infinity in it, or a norm that overflows)
    ends the iteration at once: its norm is returned, with converged False
    and no warning.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            w = op(v)
            nw = np.linalg.norm(w)
            if not np.isfinite(nw):
                return float(nw), False
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


def _pass(A: np.ndarray, b, bucket: bool, points, t: float = 1.0):
    """Residuals r = B w - b of one or two points w (r = B w when b is
    None) and g = B^T r_x, in one pass over A; returns (rs, r_x, g).

    r_x is t r_z + (1-t) r_y for two points (y, z) and r_y for one.  A is
    read in row blocks of about PASS_BLOCK_BYTES, and each block's share
    of g is added while the block is still in cache.  One point takes one
    product A_b @ w per block A_b.  The x-parts of two points are copied
    once into the rows of a 2 x n array W, and each block makes one
    product W @ A_b^T for both.
    """
    m, n = A.shape
    # whole groups of 4 rows, as OpenBLAS's A @ w kernel takes them,
    # and no one-row last block, which numpy forms as a dot product:
    # each row of a block then gets the rounding it gets in A @ w
    rows = max(4, PASS_BLOCK_BYTES // (8 * n) // 4 * 4)
    edges = list(range(0, m, rows)) + [m]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    if len(points) == 1:
        rs = [np.empty(m)]
        r_x = rs[0]
    else:
        W = np.array([w[:n] for w in points])
        R = np.empty((2, m))
        rs = [R[0], R[1]]
        r_x = np.empty(m)
    g = None
    for lo, hi in zip(edges, edges[1:]):
        blk = slice(lo, hi)
        A_b = A[blk]
        if len(points) == 1:
            np.matmul(A_b, points[0][:n], out=rs[0][blk])
        else:
            np.matmul(W, A_b.T, out=R[:, blk])
        for w, r in zip(points, rs):
            r_b = r[blk]
            if bucket:
                r_b += w[n:][blk]
            if b is not None:
                r_b -= b[blk]
        if len(points) == 2:
            r_xb = r_x[blk]
            np.multiply(rs[1][blk], t, out=r_xb)
            r_xb += (1.0 - t) * rs[0][blk]
        part = A_b.T @ r_x[blk]
        if g is None:
            g = part
        else:
            g += part
    if bucket:
        g = np.concatenate([g, r_x])
    return rs, r_x, g


class L1LeastSquares:
    """F(x) = f(x) + g(x) with f(x) = 0.5*||Ax - b||^2, g(x) = lam*||x||_1.

    With ``bucket=True`` the effective dictionary is B = [A, I] acting on
    w = [x, e] of length n + m; matrix-vector products with the identity
    block are carried out blockwise.

    lam = 0 is accepted and turns the instance into a plain least-squares
    problem (g == 0), which is convenient for smooth sanity checks.

    Building it estimates L_f, the Lipschitz constant of grad f, and the
    metric V = a (I - v v^T) + L_f v v^T that every solver takes its
    gradient steps in (``lipschitz_estimate``): v is the unit top eigenvector
    of B^T B that the power iteration ends on, and a <= L_f bounds B^T B
    on the rest of the space.

    Problem data is immutable after construction and every method is a
    pure function of its inputs, so one instance can be shared across
    concurrent solver runs.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lam: float = 1e-6,
                 bucket: bool = False):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or min(A.shape) < 1:
            raise ValueError(f"A must be a 2-D array with at least one row "
                             f"and one column (got shape {A.shape})")
        if b.shape != (A.shape[0],):
            raise ValueError(
                f"b has length {b.shape}, expected ({A.shape[0]},)")
        if not 0 <= lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative (got {lam})")
        self.A = A
        self.b = b
        self.lam = float(lam)
        self.bucket = bool(bucket)
        self.m, self.n_x = A.shape
        self.dim = self.n_x + self.m if bucket else self.n_x
        self.L_f, self.v, self.a = lipschitz_estimate(self)
        # a NaN or an infinity in A makes the estimate non-finite, so A is
        # scanned only then
        finite_L = bool(np.isfinite(self.L_f))
        for name, data in (("b", b),) if finite_L else (("A", A), ("b", b)):
            if not np.all(np.isfinite(data)):
                raise ValueError(
                    f"{name} has {int(np.sum(~np.isfinite(data)))} "
                    f"non-finite entries (NaN or Inf)")
        if not finite_L:
            raise ValueError("L_f overflows: A is finite, but the power "
                             "iteration for its Lipschitz constant overflows "
                             "float64 (scale A down)")
        if self.L_f == 0:
            raise ValueError("A is zero, so f is constant and its Lipschitz "
                             "constant L_f is 0: no solver can take a step")

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

    def residuals_and_gradient(self, y, z=None, t=1.0):
        """Residuals and the gradient at their combination, in one pass
        over A.

        With one point, returns (r, g): r = B y - b and g = B^T r =
        grad f(y).  With two, returns (r_y, r_z, r_x, g): r_x = t r_z +
        (1-t) r_y is the residual of x = t z + (1-t) y, and g = B^T r_x =
        grad f(x).  The pass counts as one product with B per point and
        one with B^T.

        g is ``apply_adjoint(r_x)`` summed block by block (``_pass``).
        One point's residual is that of ``residual`` bit for bit, with a
        BLAS that forms A @ w in groups of 4 rows, as OpenBLAS does, and
        when A is one block the pass makes the same operations as those
        calls.  Two points share one matrix-matrix product per block,
        which costs about what one A @ w does but rounds otherwise: r_y
        and r_z agree with ``residual`` to rounding, and r_x is
        t r_z + (1-t) r_y exactly.
        """
        points = (y,) if z is None else (y, z)
        for w in points:
            _check_dim(w, self.dim)
        rs, r_x, g = _pass(self.A, self.b, self.bucket, points, t)
        return (rs[0], g) if z is None else (rs[0], rs[1], r_x, g)

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

    def duality_gap(self, F, r, g) -> float:
        """F minus the dual objective -<theta, b> - ||theta||^2/2 at
        theta = s r, for F = F(x), r = B x - b and g = B^T r.

        s = min(1, lam/||g||_inf) scales theta into the dual feasible set
        ||B^T theta||_inf <= lam, so the gap bounds F(x) - F* from above
        (up to rounding) and vanishes at a minimizer.  It makes no product.
        """
        g_inf = float(np.max(np.abs(g), initial=0.0))
        s = 1.0 if g_inf <= self.lam else self.lam / g_inf
        theta = s * r
        return F + float(theta @ self.b) + 0.5 * float(theta @ theta)


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

    def _root(self, x):
        """sqrt(mu^2 + x_j^2) entrywise."""
        return np.sqrt(self.mu * self.mu + x * x)

    def g_value(self, x) -> float:
        return self.problem.lam * float(self._root(x).sum())

    def g_grad(self, x):
        return self.problem.lam * x / self._root(x)

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


def metric_prox_step(problem: L1LeastSquares, x: np.ndarray,
                     g: np.ndarray = None) -> np.ndarray:
    """argmin_w 1/2 ||w - x||_V^2 + <grad f(x), w - x> + g(w), the prox
    step in the problem's metric V = a (I - v v^T) + L_f v v^T.

    With a = L_f, V = L_f I and this is ``prox_step(problem, x, L_f, g)``
    bit for bit; otherwise it is ``_metric_prox`` at scale 1, a scalar
    root find on top of two dot products and a few shrinks.  A caller
    that holds grad f(x) passes it as ``g``.
    """
    L_f, a = problem.L_f, problem.a
    if not a < L_f:
        return prox_step(problem, x, L_f, g)
    x = np.asarray(x, dtype=float)
    if g is None:
        g = problem.f_grad(x)
    return _metric_prox(problem, x, g, 1.0)


def _metric_prox(problem, x, g, scale):
    """argmin_w 1/2 ||w - x||_V^2 + scale (<g, w> + g(w)) in the metric
    V = a (I - v v^T) + L_f v v^T, for a < L_f.

    With c = L_f - a and the scaled gradient h = scale g, the step is
    w = soft(q - (c beta / a) v, scale lam / a) at q = x - V^{-1} h
    (``_metric_descent``, two dot products), and beta = v.(w - q) is the
    root of a decreasing piecewise-linear function
    (``_rank_one_shrink``).  At scale 1 this is the prox step in V;
    h = 1.0 * g is g bit for bit.
    """
    L_f, a, v = problem.L_f, problem.a, problem.v
    q = _metric_descent(x, scale * g, v, a, L_f)
    return _rank_one_shrink(q, v, (L_f - a) / a, scale * problem.lam / a)


def _metric_descent(x, h, v, a, L):
    """x - V^{-1} h in the metric V = a (I - v v^T) + L v v^T of a unit
    vector v and 0 < a <= L; with a = L, x - h / L bit for bit.

    By Sherman-Morrison V^{-1} h = u/a + (v.h/L) v with u = h - (v.h) v,
    two dot products: u is taken twice against v, since u/a is large
    where a is small and must carry no rounding of (v.h) v along v.
    """
    if not a < L:
        return x - h / L
    vh = float(v @ h)
    u = h - vh * v
    u -= float(v @ u) * v
    return x - u / a - (vh / L) * v


def _rank_one_shrink(q, v, k, tau):
    """soft(q - k beta v, tau) at the root beta of
    h(beta) = v.(soft(q - k beta v, tau) - q) - beta, for k > 0 and a
    unit vector v.

    h is continuous, piecewise linear and decreasing, with slope -1 - k
    times the sum of v_i^2 over the nonzero entries of the shrink, so it
    has one root.  It is found by Newton steps from beta = 0, kept inside
    the bracket that the signs of h give; a step that would leave it
    halves the bracket instead.  A Newton step lands on the root exactly
    when it stays on its linear piece, which is when the shrink keeps its
    pattern of signs there.  The shrink at the root is then corrected by
    one more Newton step, applied along v on its nonzero entries rather
    than by shrinking again: the entries of q - k beta v are of the order
    of tau, which is large where a is small, and their rounding would
    otherwise stay in v.w.
    """
    vq, vv = float(v @ q), v * v
    lo, hi = -math.inf, math.inf
    beta, signs = 0.0, None
    while True:
        w = soft_threshold(q - (k * beta) * v, tau)
        sw = np.sign(w)
        on = np.abs(sw)
        h = float(v @ w) - vq - beta
        step = h / (1.0 + k * float(vv @ on))
        # a Newton step taken and still on its piece: beta is the root
        if h == 0.0 or (signs is not None and np.array_equal(sw, signs)):
            return w - (k * step) * (v * on)
        if h > 0.0:
            lo = beta
        else:
            hi = beta
        if lo < beta + step < hi:
            beta, signs = beta + step, sw
        else:
            beta, signs = 0.5 * (lo + hi), None
            if not lo < beta < hi:  # a bracket of adjacent floats
                return w - (k * step) * (v * on)


def metric_inner(problem: L1LeastSquares, u: np.ndarray,
                 w: np.ndarray) -> float:
    """<u, V w> in the problem's metric V = a (I - v v^T) + L_f v v^T:
    a u.w + (L_f - a)(v.u)(v.w), and L_f u.w when a = L_f."""
    L_f, a, v = problem.L_f, problem.a, problem.v
    if not a < L_f:
        return L_f * float(u @ w)
    return a * float(u @ w) + (L_f - a) * float(v @ u) * float(v @ w)


def mirror_step(problem: L1LeastSquares, z: np.ndarray, xi: np.ndarray,
                alpha: float) -> np.ndarray:
    """argmin_u 1/2 ||u - z||_M^2 + alpha <xi, u> + alpha g(u), the mirror
    step in the normalised metric M = V / L_f, in which f is
    L_f-smooth.

    With a = L_f, M = I and this is the Euclidean mirror step, the prox
    of alpha g at z - alpha xi: with an l1 penalty the shrinkage
    T_(alpha lam)(z - alpha xi), with g == 0 the plain translation.
    Otherwise it is the prox step in V at scale alpha L_f
    (``_metric_prox``), so at alpha = 1/L_f it is ``metric_prox_step``
    up to the rounding of alpha L_f.
    """
    _check_step("alpha", alpha)
    z = np.asarray(z, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if z.shape != xi.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {xi.shape}")
    if not problem.a < problem.L_f:
        return problem.g_prox(z - alpha * xi, alpha)
    return _metric_prox(problem, z, xi, alpha * problem.L_f)


def lipschitz_estimate(problem: L1LeastSquares):
    """(L_f, v, a): an estimate L_f of ||A^T A||_2 (bucket: ||B^T B||_2),
    the unit vector v its power iteration ends on, and a bound a <= L_f
    on B^T B off v.

    L_f is the power iteration's last Rayleigh quotient rho = v.B^T B v,
    at relative tolerance 1e-6, which approaches the norm from below,
    inflated by 1.01; it is an estimate, not a certified bound.  ista,
    fista, magma and agm test their steps by the descent lemma at every
    gradient step.  Each step forms B^T B v in one row-blocked pass over
    A, the pass of ``residuals_and_gradient`` with no offset b, so a step
    reads A once.  A NaN or infinity in A makes the first product
    non-finite, and products that overflow float64 make some product
    non-finite; either ends the iteration with a non-finite estimate,
    which ``L1LeastSquares`` rejects.

    a is the Ky Fan bound of the last step (``_ky_fan_bound``), formed
    from its v, rho and B^T B v, so no power step is added.
    """
    A, bucket = problem.A, problem.bucket
    last = []

    def op(u):
        last[:] = (u, _pass(A, None, bucket, (u,))[2])
        return last[1]

    rho, _ = power_iteration(op, problem.dim)
    L_f = LIPSCHITZ_SAFETY * rho
    v, Mv = last
    return L_f, v, _ky_fan_bound(A, bucket, rho, L_f, v, Mv)


def _ky_fan_bound(A, bucket, rho, L, v, Mv):
    """a <= L with B^T B <= a (I - v v^T) + L v v^T, for B = A (bucket:
    [A, I]), given the unit vector v that a power iteration on B^T B
    ended on, its Rayleigh quotient rho = v.Mv, Mv = B^T B v and the
    estimate L > rho of ||B^T B||_2.

    a is min(L, t + ||e||^2/(L - rho)) plus a rounding margin, for
    t = ||A||_F^2 - rho (bucket: + 2) and e = Mv - rho v, which is
    orthogonal to v.  By Ky Fan's inequality the two largest eigenvalues
    of B^T B sum to at most ||A||_F^2 (bucket: ||A||_F^2 + 2, since
    B B^T = A A^T + I), so B^T B is at most t on the complement of v
    and lambda_2(B^T B) <= t; the ||e||^2 term covers the coupling of v
    with that complement.  The bound is certified up to rounding
    whenever a < L; with a = L the metric is L I, which rests on the
    estimate.  It takes one read of A (``np.vdot``).  With one
    dimension, or no positive finite gap L - rho (a vanishing or
    non-finite B), a is L.
    """
    if v.shape[0] == 1 or not 0.0 < rho < L < np.inf:
        return L
    e = Mv - rho * v
    t = float(np.vdot(A, A)) + (2.0 if bucket else 0.0)
    # the worst-case rounding of the sum of A.size squares
    margin = np.finfo(float).eps * A.size * t
    return min(L, t - rho + float(e @ e) / (L - rho) + margin)
