"""First-order solvers for l1 least squares: ista, fista, agm, the
multilevel magma, and mfista, the monotone solver of magma's coarse
models.

Every fine-level gradient step is a prox step in the problem's
rank-one-corrected metric V = a (I - v v^T) + L_f v v^T
(problem.metric_prox_step), checked by the descent lemma in the V-norm,
and agm's and magma's mirror steps are taken in M = V / L_f
(problem.mirror_step).  All solvers share one stopping test,
||D(x_k)||_2 < eps with the Euclidean D(x) = x - prox_{L_f}(x), first
tested at x0, and log one TraceRow per iteration.  A solve ends at the
first point that passes the test, or after max_iters iterations at its
lowest-F iterate, tested once more.  Its Solution reports the duality
gap of that point (L1LeastSquares.duality_gap), an upper bound on
F - F* formed from the residual and gradient the exit already holds.

A run owns its state exclusively; several runs sharing one (immutable)
problem may proceed concurrently.
"""

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .multilevel import RestrictionChain, build_chain, build_coarse_model
from .problem import (L1LeastSquares, SmoothedView, metric_inner,
                      metric_prox_step, mirror_step, prox_step)

__all__ = [
    "SolverConfig",
    "MagmaState",
    "TraceRow",
    "CoarseEvent",
    "Solution",
    "REJECTION_REASONS",
    "THETA",
    "K_D",
    "ARMIJO_C",
    "TAU",
    "S0",
    "COARSE_TOL",
    "COARSE_BUDGET",
    "LINE_SEARCH_CAP",
    "LineSearchError",
    "InvariantViolation",
    "ista",
    "fista",
    "agm",
    "mfista",
    "CoarseSolveResult",
    "coarse_condition",
    "armijo_search",
    "update_eta_alpha",
    "magma",
    "SOLVERS",
    "run_solver",
]

NAN = float("nan")

# magma's line-search and coarse-condition constants, fixed for the l1
# instance family.
#
# Relative distance from the last coarse anchor past which the coarse
# condition may fire again; it has no published value.
THETA = 0.5
# Gradient steps since the last coarse anchor after which it may fire
# anyway, doubled by each attempt in a row that fell back, up to 64x.
K_D = 30
# The Armijo constant c, also unpublished.  It does double duty: it both
# accepts line-search steps and scales the coarse-branch eta as
# L_H/(c s kappa^2), so the customary 1e-4 inflates eta by four orders of
# magnitude and wipes out the momentum after every coarse step; 0.5 keeps
# the coupling tight.
ARMIJO_C = 0.5
# The Armijo scan's grid {S0 * TAU^i}: its shrink factor and its top.
TAU = 0.95
S0 = 10.0
# Gradient-norm tolerance of a coarse solve, below which its start is
# stationary and no model is built, and its mfista iteration budget.
COARSE_TOL = 1e-3
COARSE_BUDGET = 100
# Shrinkages an Armijo scan makes below its start before it gives up, a
# safety bound: at TAU = 0.95 the last probe is 0.6% of it.
LINE_SEARCH_CAP = 100

# Why a coarse attempt fell back to the gradient step, in the order magma
# tests them; Solution.rejections counts each.
REJECTION_REASONS = ("entry_stationary", "no_decrease", "line_search_failed",
                     "objective_rejected")


class LineSearchError(RuntimeError):
    """Raised when the line-search grid is exhausted without acceptance."""


class InvariantViolation(RuntimeError):
    """Raised when a live bookkeeping or descent invariant fails."""


def _reject_non_finite(record):
    """Raise ValueError naming the first field of ``record`` that is a NaN
    or infinite float, or that is declared int and holds no integer (a
    bool, or a float such as 2.0); numpy integers are integers."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite (got {value})")
        if f.type is int and (isinstance(value, bool)
                              or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer (got {value!r})")


@dataclass
class SolverConfig:
    """Validated solver parameters.

    Defaults are the working set for the l1 instance family: eps=1e-6,
    kappa=0.8.  kappa=1 is allowed as a degenerate setting that switches
    coarse steps off (the norm test is strict).  magma's other parameters
    are the module constants THETA, K_D, ARMIJO_C, TAU, S0, COARSE_TOL,
    COARSE_BUDGET and LINE_SEARCH_CAP.

    The coarse condition ||R g|| > kappa ||g|| can hold only where
    kappa < ||R||_2.  On a plain (non-bucket) problem R = R_x, and
    ||R_x||_2 is 0.707, 0.5 and 0.18 at levels 2, 3 and 6, so at the
    default kappa magma takes no coarse step there and is agm.  Bucket
    problems are unaffected: R passes the error block through.

    mu is the one smoothing level of a solve: magma's coarse models, its
    coarse condition and its Armijo search all work on F_mu with this mu,
    which only makes the coarse model differentiable.

    There is no step-size setting: every stopping test is taken at the
    problem's Lipschitz constant L_f, every gradient step in the
    problem's metric V and every mirror step of agm and magma in
    M = V / L_f, all of which L1LeastSquares computes when it is built.
    """

    eps: float = 1e-6
    max_iters: int = 1000
    kappa: float = 0.8
    mu: float = 1e-3
    levels: int = 2

    def __post_init__(self):
        _reject_non_finite(self)
        checks = [
            (self.eps > 0, f"eps must be positive (got {self.eps})"),
            (self.max_iters >= 1, f"max_iters must be >= 1 (got {self.max_iters})"),
            (0 < self.kappa <= 1, f"kappa must lie in (0, 1] (got {self.kappa})"),
            (self.mu > 0, f"mu must be positive (got {self.mu})"),
            (self.levels >= 1, f"levels must be >= 1 (got {self.levels})"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)


@dataclass
class TraceRow:
    k: int
    step_kind: str  # grad | coarse | fallback
    F: float
    D_norm: float
    eta: float
    alpha: float
    t: float
    s: float
    elapsed_ns: int


@dataclass
class CoarseEvent:
    """Diagnostics of one executed coarse correction step."""

    k: int
    slope: float           # <d_k, grad F_mu(x_k)>
    grad_mu_norm: float
    L_H: float
    s: float
    coarse_iters: int


@dataclass
class MagmaState:
    """Step-size bookkeeping and the inputs of the coarse condition.

    k counts the iterations since the last restart, or since the start,
    and (k, alpha, eta) = (0, 0, L_f) is the seed a restart returns to.
    x_tilde is the anchor of the last coarse attempt, q the gradient steps
    since then, s_prev the last accepted coarse step size and fails the
    number of coarse attempts in a row that fell back, which widens the
    condition's retry allowance.
    """

    k: int
    alpha: float
    eta: float
    x_tilde: np.ndarray = None
    q: int = 0
    s_prev: float = NAN
    fails: int = 0


@dataclass
class Solution:
    x: np.ndarray
    objective: float
    grad_map_norm: float
    iterations: int
    converged: bool
    step_counts: dict
    elapsed_s: float
    trace: list
    coarse_events: list = field(default_factory=list)
    rejections: dict = field(default_factory=dict)  # reason -> fallbacks
    gap: float = NAN  # duality gap at x, >= objective - F* up to rounding


@dataclass
class CoarseSolveResult:
    x: np.ndarray
    iterations: int
    values: list       # F_H(x_{H,0}), F_H(x_{H,1}), ...


# ---------------------------------------------------------------------------
# Shared helpers.


def _as_start(problem, x0):
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dim,):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected ({problem.dim},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 has {int(np.sum(~np.isfinite(x0)))} "
                         f"non-finite entries (NaN or Inf)")
    return x0.copy()


def _norm(v) -> float:
    """||v||_2 of a 1-D float vector: the value np.linalg.norm returns,
    bit for bit, without its Python-level overhead, which at the coarse
    level's sizes costs about as much as the dot product."""
    return math.sqrt(float(v @ v))


class _SolveRecord:
    """The stopping test, trace, tallies, clock and exits of one solve.

    Made from x0, it checks it and takes one pass over A there, so every
    solver starts from ``start`` = (x0, r, g, F(x0)) with r = B x0 - b and
    g = B^T r.  ``log`` numbers each trace row by its position and counts
    its step kind, one of ``kinds``; magma adds its coarse steps to
    ``events`` and counts its fallbacks by ``reasons``, so a Solution's
    tallies agree with its trace.  ``kept`` is the lowest-F point passed
    to ``keep``, from the start on; a solve ends through ``end`` at the
    point it returns, or through ``budget_exit`` at that kept point.
    """

    def __init__(self, problem, config, x0, kinds=("grad",), reasons=()):
        self.problem, self.config = problem, config
        self.start_ns = time.perf_counter_ns()
        self.trace, self.events = [], []
        self.counts = dict.fromkeys(kinds, 0)
        self.rejections = dict.fromkeys(reasons, 0)
        x = _as_start(problem, x0)
        r, g = problem.residuals_and_gradient(x)
        F = problem.value(x, r)
        self.start, self.kept = (x, r, g, F), (x, r, F)

    def stop_test(self, x, g):
        """The prox step p = prox_{L_f}(x), taken with g = grad f(x), and
        the stopping measure ||D(x)|| = ||x - p||."""
        p = prox_step(self.problem, x, self.problem.L_f, g)
        return p, _norm(x - p)

    def log(self, kind, F, Dn, eta=NAN, alpha=NAN, t=NAN, s=NAN):
        self.counts[kind] += 1
        self.trace.append(TraceRow(len(self.trace), kind, F, Dn, eta, alpha,
                                   t, s, time.perf_counter_ns() - self.start_ns))

    def keep(self, x, r, F):
        if F < self.kept[2]:
            self.kept = (x, r, F)

    def end(self, x, r, g, F, Dn):
        """The Solution at x, given its residual r = B x - b, gradient
        g = B^T r, objective F and stopping measure Dn; its duality gap
        is formed from r and g with no product."""
        gap = self.problem.duality_gap(F, r, g)
        elapsed_s = (time.perf_counter_ns() - self.start_ns) / 1e9
        return Solution(x, F, Dn, len(self.trace), Dn < self.config.eps,
                        self.counts, elapsed_s, self.trace, self.events,
                        self.rejections, gap)

    def budget_exit(self):
        """End after max_iters iterations at the kept point, which is
        tested with one product with B^T."""
        x, r, F = self.kept
        g = self.problem.apply_adjoint(r)
        _, Dn = self.stop_test(x, g)
        return self.end(x, r, g, F, Dn)


# ---------------------------------------------------------------------------
# Baseline solvers.


def _prox_gradient(problem, x0, config, momentum):
    """The loop of ista and fista: x_{k+1} = prox(y_k) in the problem's
    metric V, from y_k = x_k without ``momentum`` and from fista's
    momentum point with it.

    It tests x0 before the first step, and then each iterate x_{k+1},
    whose trace row holds F(x_{k+1}) and ||D(x_{k+1})||.  Each iteration
    makes one pass over A at x_{k+1} (``residuals_and_gradient``), whose
    residual and gradient give its objective, its stopping test and,
    with those of y_k, the descent-lemma check of the step.  So a solve
    reads A once at x0 and once per iteration, and a budget exit once
    more, as B^T, at its lowest-F iterate.
    """
    run = _SolveRecord(problem, config, x0)
    x, r, g, F = run.start
    _, Dn = run.stop_test(x, g)
    if Dn < config.eps:
        return run.end(x, r, g, F, Dn)
    x_prev, r_prev, g_prev = x, r, g
    y, r_y, g_y = x, r, g
    t = 1.0
    for k in range(config.max_iters):
        x = metric_prox_step(problem, y, g_y)
        r, g = problem.residuals_and_gradient(x)
        _gradient_step(problem, y, r_y, g_y, x, r, k)
        _, Dn = run.stop_test(x, g)
        F = problem.value(x, r)
        run.log("grad", F, Dn)
        run.keep(x, r, F)
        if Dn < config.eps:
            return run.end(x, r, g, F, Dn)
        if not momentum:
            y, r_y, g_y = x, r, g
            continue
        if metric_inner(problem, y - x, x - x_prev) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x + beta * (x - x_prev)
        r_y = r + beta * (r - r_prev)
        g_y = g + beta * (g - g_prev)
        x_prev, r_prev, g_prev, t = x, r, g, t_next
    return run.budget_exit()


def ista(problem: L1LeastSquares, x0, config: SolverConfig) -> Solution:
    """Proximal gradient iteration x_{k+1} = prox(x_k); monotone in F.

    This is fista with its momentum weight held at t_k = 1 (Beck &
    Teboulle), run by the same loop: every prox step is taken in the
    problem's metric V = a (I - v v^T) + L_f v v^T
    (``metric_prox_step``), which is L_f I where a = L_f, and is checked
    by the descent lemma in the V-norm; the stopping test stays
    Euclidean, at L_f.  One pass over A per iteration.
    """
    return _prox_gradient(problem, x0, config, momentum=False)


def fista(problem: L1LeastSquares, x0, config: SolverConfig) -> Solution:
    """Accelerated proximal gradient with the t_{k+1} = (1+sqrt(1+4t_k^2))/2
    momentum sequence; stops on ||D(x_k)|| < eps at the main iterate.

    Every prox step is taken in the problem's metric
    V = a (I - v v^T) + L_f v v^T (``metric_prox_step``), in which f is
    1-smooth: v is the top eigenvector of B^T B and a a certified bound
    on B^T B off v (``lipschitz_estimate``), so on a spiked dictionary
    every direction off v takes a step L_f / a times longer.  Where
    a = L_f, as on unspiked instances, V = L_f I and the step is
    ``prox_step`` at L_f, bit for bit.  The stopping test stays
    Euclidean, at L_f.

    The momentum restarts by O'Donoghue & Candès' gradient test in the
    V inner product: when the prox step x = prox(y) gives
    <y - x, V (x - x_prev)> > 0, t is reset to 1, so beta = 0 and the
    next step is taken from y = x.  The test costs three dot products
    and no product with B.  Without it, and at V = L_f I, this is Beck
    & Teboulle's textbook FISTA, the paper's baseline.

    Each iteration makes one product with B and one with B^T, in one
    pass over A (``residuals_and_gradient``).  The residual
    r_x = B x - b and the gradient g_x = B^T r_x of the main iterate give
    F(x) and the stopping test, and since products are linear, the
    momentum point y = x + beta (x - x_prev) has residual
    r_x + beta (r_x - r_prev) and gradient g_x + beta (g_x - g_prev).
    r_x and g_x are recomputed exactly every iteration, so rounding does
    not build up.  Each prox step checks the descent lemma in the V-norm
    from y's residual and gradient, and raises InvariantViolation if it
    fails.
    """
    return _prox_gradient(problem, x0, config, momentum=True)


def update_eta_alpha(state, branch: str, s_k, L_f: float, L_H,
                     config: SolverConfig):
    """Next (eta, alpha) for the coupled bookkeeping.

    k = state.k counts the iterations since the last restart (or the
    start).  k = 0 seeds the recursion with eta_1 = L_f,
    alpha_1 = 1/L_f.  For k >= 1, eta_{k+1} is L_f on the gradient branch
    and max(1/(4 alpha_k^2 eta_k), L_H/(ARMIJO_C s_k kappa^2)) on the
    coarse branch; alpha_{k+1} = 1/(2 eta_{k+1}) + alpha_k
    sqrt(eta_k/eta_{k+1}) is the positive root that keeps alpha^2 eta
    telescoping exactly, and reduces to (k+2)/(2 L_f) on all-gradient
    stretches.

    eta is in the units of the mirror step's metric M = V / L_f, in
    which f is L_f-smooth (B^T B <= V), so the gradient branch's L_f and
    the telescoping identity are those of the Euclidean scheme.  The
    coarse branch's L_H/(ARMIJO_C s kappa^2) is still the Euclidean
    bound: it is not re-derived for M.
    """
    if state.k == 0:
        return L_f, 1.0 / L_f
    if branch == "coarse":
        eta_next = max(1.0 / (4.0 * state.alpha ** 2 * state.eta),
                       L_H / (ARMIJO_C * s_k * config.kappa ** 2))
    else:
        eta_next = L_f
    alpha_next = 1.0 / (2.0 * eta_next) + state.alpha * math.sqrt(state.eta / eta_next)
    return eta_next, alpha_next


def _combination_weight(alpha, eta):
    """t = 1/(alpha * eta), snapped to 1 when float dust pushes it above."""
    return min(1.0 / (alpha * eta), 1.0)


def mfista(objective, p0, tol: float, max_iters: int) -> CoarseSolveResult:
    """Monotone accelerated gradient descent on a smooth objective, from
    the point p0.

    ``objective`` works on points, vectors whose first ``dim`` entries are
    the variable w and whose rest is affine in w (CoarseModel): lift(w)
    forms the point of w, value(p) and grad(p) read one, and step(w, g)
    is the gradient step w - V^{-1} g in a metric V that bounds the
    curvature, with V <= L I; a CoarseModel steps in its
    rank-one-corrected metric V_H, and where that is L I the step is
    w - g / L bit for bit.  Each iteration tries the gradient step
    z = step(y, grad(y)) from the momentum point y and keeps it only if
    F(z) <= F(p_prev) (Beck & Teboulle's monotone test), so the iterate
    sequence is nonincreasing in value and its first step already does as
    well as a gradient step from p0: since V <= L I, it lowers the value
    by at least ||grad(p0)||^2 / (2 L), the bound the coarse descent
    check in magma rests on.  A rejected trial restarts the momentum
    (O'Donoghue & Candès' function-value restart): t = 1, and the
    next trial is the plain gradient step from p_prev.  A rejected trial
    that had no momentum (the first, or the one after a restart) would be
    repeated by every later one, so the solve returns p_prev at once.
    Stops when the gradient norm falls below ``tol`` or the budget runs
    out; a start point below ``tol`` returns at once with 0 iterations and
    values == [F(p0)].  values[-1] < values[0] holds exactly when some
    step lowered the value.  The result's x is w.

    Products: lift is called once per iteration, at the trial z, so a
    CoarseModel makes one product with B_H and one with B_H^T per
    iteration.  grad is taken at p0, at each accepted trial and at each
    momentum point of nonzero weight, which is one affine combination of
    points; a momentum-free y is p_prev itself, whose gradient is known.
    """
    n = objective.dim
    g0 = objective.grad(p0)
    F0 = objective.value(p0)
    if _norm(g0) < tol:
        return CoarseSolveResult(p0[:n], 0, [F0])
    p_prev, F_prev, g_prev = p0, F0, g0
    y, g_y = p0, g0
    t = 1.0
    values = [F0]
    for j in range(1, max_iters + 1):
        z = objective.lift(objective.step(y[:n], g_y))
        Fz = objective.value(z)
        if Fz > F_prev:
            # the monotone test keeps p_prev.  A trial without momentum
            # (y is p_prev) was the gradient step from p_prev, which every
            # later trial would repeat; otherwise restart from that step,
            # whose gradient is known
            values.append(F_prev)
            if y is p_prev:
                return CoarseSolveResult(p_prev[:n], j, values)
            y, g_y, t = p_prev, g_prev, 1.0
            continue
        g_z = objective.grad(z)
        values.append(Fz)
        if _norm(g_z) < tol:
            return CoarseSolveResult(z[:n], j, values)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        if beta == 0.0:
            y, g_y = z, g_z
        else:
            y = z + beta * (z - p_prev)
            g_y = objective.grad(y)
        p_prev, F_prev, g_prev, t = z, Fz, g_z, t_next
    return CoarseSolveResult(p_prev[:n], max_iters, values)


def _proximity_clause(state: MagmaState, x: np.ndarray) -> bool:
    """The cheap half of the coarse condition: x has moved
    THETA-relatively away from the last coarse anchor, or at least
    K_D * min(2^fails, 64) gradient steps have accumulated since then
    (the anchor-retry allowance, doubled by each attempt in a row that
    fell back).  True before the first coarse attempt.  Without the
    retry gate, consecutive coarse steps are never blocked (q resets to
    zero on each one) and the fine level is starved of prox steps near
    the optimum."""
    if state.x_tilde is None:
        return True
    moved = _norm(x - state.x_tilde) > THETA * _norm(state.x_tilde)
    return moved or state.q >= K_D * min(2 ** state.fails, 64)


def coarse_condition(grad_mu: np.ndarray, grad_H: np.ndarray,
                     config: SolverConfig) -> bool:
    """The norm half of the coarse condition: the restriction
    grad_H = R grad_mu keeps a kappa fraction of the smoothed gradient's
    norm, ||R g|| > kappa ||g|| (strictly).

    magma tests the other half, the proximity clause
    (``_proximity_clause``), first, since it needs no product and no
    smoothed gradient, and forms grad F_mu(x) and R grad F_mu(x) only at
    a row that passes it; the condition fires where both hold, once per
    row, at the row's own anchor, and the attempt reuses both gradients.
    """
    return _norm(grad_H) > config.kappa * _norm(grad_mu)


def armijo_search(view: SmoothedView, x: np.ndarray, d: np.ndarray,
                  slope: float, s_start: float, r_x: np.ndarray,
                  Bd: np.ndarray) -> float:
    """Largest s in {S0 * TAU^i} with
    F_mu(x+s d) <= F_mu(x) + ARMIJO_C s slope, for slope = <d, grad F_mu(x)>.

    For convex F_mu the acceptance set along a descent direction is an
    interval [0, s_hat], so the largest accepted grid point is well
    defined and can be located from any grid point: ``s_start`` (itself
    of the form S0 * TAU^i, e.g. the previously accepted step) is scanned
    up while accepted and down while rejected, giving the same result as
    the plain top-down scan from S0 with fewer evaluations.

    Every probe takes its residual as r_x + s Bd, from the residual
    r_x = B x - b and Bd = B d, and makes no product with B.

    Raises LineSearchError after LINE_SEARCH_CAP probes below the start;
    raises ValueError if d is not a descent direction at x (slope >= 0).
    """
    if not slope < 0:
        raise ValueError(f"d is not a descent direction (slope {slope:.3e})")
    f_x = view.value(x, r=r_x)

    def accepted(step):
        return view.value(x + step * d, r=r_x + step * Bd) \
            <= f_x + ARMIJO_C * step * slope

    s = min(s_start, S0)
    if accepted(s):
        grown = s / TAU
        while grown <= S0 * (1.0 + 1e-12) and accepted(grown):
            s = grown
            grown = s / TAU
        return min(s, S0)
    for _ in range(LINE_SEARCH_CAP):
        s *= TAU
        if accepted(s):
            return s
    raise LineSearchError(
        f"no step accepted after {LINE_SEARCH_CAP} shrinkages "
        f"(slope {slope:.3e})")


def _check_bookkeeping(state, eta_n, alpha_n, t, k):
    """Telescoping identity and t in (0, 1] at iteration k, enforced at
    every iteration but the first of a solve and the first after each
    restart, which start the recursion again."""
    prev = state.alpha ** 2 * state.eta
    residual = alpha_n ** 2 * eta_n - alpha_n + 1.0 / (4.0 * eta_n) - prev
    if abs(residual) > 1e-9 * max(1.0, abs(prev)):
        raise InvariantViolation(
            f"telescoping identity violated at k={k}: residual {residual:.3e}")
    if not 0.0 < t <= 1.0:
        raise InvariantViolation(f"t_k out of (0, 1] at k={k}: {t}")


def _gradient_step(problem, x, r_x, g, p, r_p, k):
    """Check the descent lemma along the prox step p of the anchor x,
    formed with g = B^T r_x, given the residuals r_x = B x - b and
    r_p = B p - b.

    The lemma f(p) <= f(x) + <g, p - x> + 1/2 <p - x, V (p - x)> is taken
    in the problem's metric V = a (I - v v^T) + L_f v v^T
    (``metric_inner``), the one every solver's gradient step
    (``metric_prox_step``) and the guarantee lemmas assume; where a = L_f
    it is the lemma for L_f.  It holds wherever B^T B <= V, as the
    problem's a certifies.  It costs at most six dot products and no
    product; a violation raises InvariantViolation naming L_f and a.
    """
    d = p - x
    f_x = 0.5 * float(r_x @ r_x)
    f_p = 0.5 * float(r_p @ r_p)
    bound = f_x + float(g @ d) + 0.5 * metric_inner(problem, d, d)
    if f_p > bound + 1e-12 * max(1.0, abs(f_x)):
        L_f = problem.L_f
        raise InvariantViolation(
            f"the metric of L_f = {L_f:.6g} and a = {min(problem.a, L_f):.6g} "
            f"fails the descent lemma at k={k}: "
            f"f(prox(x)) = {f_p:.6e} > {bound:.6e}")


def _try_coarse_step(problem, chain, view, state, x, r_x, grad_mu, grad_H,
                     F_y, config, k):
    """One coarse attempt at iteration k, from the row's anchor x, with
    its residual r_x = B x - b, grad_mu = grad F_mu(x) and
    grad_H = R grad_mu, which the row formed for its coarse condition.

    Solves the coherent coarse model with mfista, requires it to improve
    on its start value, checks that the prolonged correction d descends
    on F_mu, finds an Armijo step s and requires y = x + s d to beat the
    incumbent objective F_y.  Its one product is B d.

    Returns either the reason the attempt stopped, one of
    REJECTION_REASONS, or the accepted step (y, eta, alpha, s, its
    CoarseEvent), whose eta and alpha are the coarse branch's at s.
    """
    # by coherence the coarse entry gradient is R grad F_mu(x), so an
    # entry-stationary solve is skipped without building the model.
    if _norm(grad_H) < COARSE_TOL:
        return "entry_stationary"
    model = build_coarse_model(problem, chain, x, view.mu, grad_H=grad_H)
    res = mfista(model, model.start, COARSE_TOL, COARSE_BUDGET)
    # a solve that never moved: a start stationary within rounding of
    # COARSE_TOL, or a metric that does not bound the coarse curvature
    if not res.values[-1] < res.values[0]:
        return "no_decrease"
    d = chain.prolong(res.x - model.anchor)
    slope = float(d @ grad_mu)
    gn2 = float(grad_mu @ grad_mu)
    # the solve lowered F_H by at least its first step's
    # ||grad_H||^2 / (2 L_H), since the model's metric is at most L_H I,
    # and the coarse condition puts kappa ||grad_mu|| below ||grad_H||
    L_H = model.L
    bound = -config.kappa ** 2 / (2.0 * L_H) * gn2
    if not slope < bound + 1e-9:
        raise InvariantViolation(
            f"coarse direction not a descent direction at "
            f"k={k}: slope {slope:.6e} vs bound {bound:.6e}")
    Bd = problem.apply(d)
    try:
        s = armijo_search(view, x, d, slope=slope,
                          s_start=state.s_prev, r_x=r_x, Bd=Bd)
    except LineSearchError:
        return "line_search_failed"
    # the Armijo test controls F_mu only; the true objective may grow by
    # up to lam*dim*mu, which keeps undoing late-stage convergence.  Require
    # the coarse step to beat the incumbent y.
    y_new = x + s * d
    if problem.value(y_new, r_x + s * Bd) > F_y:
        return "objective_rejected"
    eta, alpha = update_eta_alpha(state, "coarse", s, problem.L_f, L_H, config)
    event = CoarseEvent(k, slope, math.sqrt(gn2), L_H, s, res.iterations)
    return y_new, eta, alpha, s, event


def magma(problem: L1LeastSquares, chain: RestrictionChain, x0,
          config: SolverConfig) -> Solution:
    """Multilevel accelerated gradient/mirror solver.

    Each iteration forms the anchor x_k = t_k z_k + (1-t_k) y_k, stops if
    ||D(x_k)|| < eps, then either takes the gradient step
    y_{k+1} = prox(x_k) or, when the coarse condition fires, tries a
    coarse step (_try_coarse_step): it solves the coherent coarse model
    with mfista and sets y_{k+1} = x_k + s_k d_k with an Armijo step on
    the smoothed objective.  The mirror step z_{k+1} uses grad f(x_k) and
    the finalized alpha_{k+1}.

    The gradient step is the prox step in the problem's metric
    V = a (I - v v^T) + L_f v v^T (``metric_prox_step``), and the mirror
    step z_{k+1} = argmin_u 1/2 ||u - z_k||_M^2 + alpha <grad f(x_k), u>
    + alpha g(u) is taken in M = V / L_f (``mirror_step``), in which f is
    L_f-smooth, so the bookkeeping is that of the Euclidean scheme
    (update_eta_alpha); only the coarse branch's eta stays Euclidean.
    Where a = L_f, V = L_f I, M = I and both are the Euclidean steps at
    L_f bit for bit.  The stopping test stays the Euclidean ||D(x_k)|| at
    L_f, so eps keeps its meaning.  The coarse solves step in the coarse
    model's own metric V_H (``CoarseModel.step``); the descent check and
    the coarse-branch eta keep L_H, which bounds V_H.  Each gradient
    step, a discarded one included, checks the descent lemma in V
    (``_gradient_step``).

    The eta/alpha coupling is what keeps the O(1/sqrt(eps)) accelerated
    rate.  Every row's anchor weight t_k = min(1/(alpha eta), 1) is that
    of the gradient branch's eta and alpha, which are the row's own on
    gradient and fallback rows; the source paper's coarse-branch weight
    would need s_k before x_k exists.  A coarse attempt starts from the
    row's anchor, with its residual and gradient and the grad F_mu(x_k)
    and R grad F_mu(x_k) of the row's one coarse-condition test.  A
    coarse row records the coarse branch's eta and alpha at the accepted
    s_k, which the next row's weight is formed from.

    The coupling restarts by O'Donoghue & Candès' gradient test in the V
    inner product: when the step from x_k, coarse or not, gives
    <x_k - y_{k+1}, V (y_{k+1} - y_k)> > 0, no mirror step is taken;
    z_{k+1} = y_{k+1}, and the state returns to its seed
    (k, alpha, eta) = (0, 0, L_f), so the next row has t = 1 and steps
    from y_{k+1} itself.  The bookkeeping check restarts with the
    recursion: it runs at every row but the first of a solve and the
    first after each restart.

    The coupling also restarts by O'Donoghue & Candès' function-value
    test, made monotone as in Beck & Teboulle's MFISTA, and taken after
    the gradient test has seen the step: when the pass at the end of a
    row gives F(y_{k+1}) > F(y_k), y_{k+1} is discarded,
    z = y_k and the state returns to its seed, so the next row steps
    from y_k itself.  It stops the gradient row after an accepted coarse
    step, anchored with the old z, from undoing that step.  It is never
    applied on a row anchored at y_k (state.k = 0 when the row starts),
    whose step is a prox step from y_k that the descent lemma makes
    monotone up to rounding; rejecting it would repeat the same step
    forever.  So the trace's F, that of the y each row keeps, does not
    rise except by rounding on such rows.

    An attempt that stops takes the already-computed gradient step (a
    "fallback"); Solution.rejections counts why, by the names in
    REJECTION_REASONS, and MagmaState.fails widens the retry allowance
    until an attempt succeeds.  No attempt is made at the first or the
    last iteration, so a run that stops on its budget makes at most
    max_iters iterations and ends on a gradient step, as the convergence
    guarantee requires.  On the identity chain (levels = 1) no attempt
    is made at all, and magma is agm.

    Products: every iteration ends with one pass over A
    (``residuals_and_gradient``) at the new y and z, weighted by the
    next gradient-branch t: two products with B, which each block of A
    forms in one matrix-matrix product with both points, and one with
    B^T, at the next anchor.  So A is read once per iteration, and a run
    stopped by its budget forms one gradient it does not use.  A
    function restart adds one B^T at the y it keeps, and its pass's
    gradient goes unused.  A coarse attempt makes one product with B
    (B d), which gives every Armijo probe and the incumbent test their
    residuals; building its model makes one A_H and one A_H^T product,
    and mfista one pair per inner iteration.  The proximity clause of
    the coarse condition needs no product, so it is tested first; only
    a row that passes it forms grad F_mu(x_k) and R grad F_mu(x_k), for
    the norm test (``coarse_condition``) and the attempt.  One smoothed
    view F_mu, at config.mu, serves the coarse condition, every coarse
    model and every Armijo search.
    """
    chain._check_problem(problem)
    if chain.levels != config.levels:
        raise ValueError(
            f"chain has {chain.levels} levels, config.levels is {config.levels}")
    run = _SolveRecord(problem, config, x0, ("grad", "coarse", "fallback"),
                       REJECTION_REASONS)
    view = SmoothedView(problem, config.mu)
    y, r_y, g, F_y = run.start  # F_y: incumbent objective, F(y)
    z, r_x = y.copy(), r_y
    L_f = problem.L_f
    state = MagmaState(k=0, alpha=0.0, eta=L_f, s_prev=S0)
    # gradient-branch (eta, alpha) of iteration k, formed once: here for
    # k = 0, then at the end of iteration k-1, where it also weights the
    # next anchor's pass; a function restart takes the seed pair again
    seed = update_eta_alpha(state, "grad", None, L_f, None, config)
    eta_n, alpha_n = seed
    for k in range(config.max_iters):
        eta, alpha = eta_n, alpha_n
        anchored_at_y = state.k == 0
        t = _combination_weight(alpha, eta)
        x = t * z + (1.0 - t) * y
        _, Dn = run.stop_test(x, g)
        if Dn < config.eps:
            return run.end(x, r_x, g, problem.value(x, r_x), Dn)
        y_next = metric_prox_step(problem, x, g)

        kind, s = "grad", NAN
        if 0 < k < config.max_iters - 1 and not chain.is_identity \
                and _proximity_clause(state, x):
            grad_mu = g + view.g_grad(x)
            grad_H = chain.restrict(grad_mu)
            if coarse_condition(grad_mu, grad_H, config):
                step = _try_coarse_step(problem, chain, view, state, x, r_x,
                                        grad_mu, grad_H, F_y, config, k)
                # remember the attempt's anchor, accepted or not; without
                # this the moved-away clause re-fires every iteration and
                # each failing attempt costs a coarse solve.
                state.x_tilde, state.q = x.copy(), 0
                if isinstance(step, str):
                    kind = "fallback"
                    run.rejections[step] += 1
                    state.fails += 1
                else:
                    kind = "coarse"
                    state.fails = 0
                    y_next, eta, alpha, s, event = step
                    run.events.append(event)
                    state.s_prev = s

        if state.k >= 1:
            _check_bookkeeping(state, eta, alpha, t, k)
        if metric_inner(problem, x - y_next, y_next - y) > 0.0:
            # the gradient restart: no mirror step, and the recursion
            # starts again from its seed, so the next anchor is y_next
            z_next = y_next
            state.k, state.alpha, state.eta = 0, 0.0, L_f
        else:
            z_next = mirror_step(problem, z, g, alpha)
            state.k, state.alpha, state.eta = state.k + 1, alpha, eta
        eta_n, alpha_n = update_eta_alpha(state, "grad", None, L_f, None,
                                          config)
        r_p, _, r_next, g_next = problem.residuals_and_gradient(
            y_next, z_next, _combination_weight(alpha_n, eta_n))
        if kind != "coarse":
            _gradient_step(problem, x, r_x, g, y_next, r_p, k)
            state.q += 1
        F_next = problem.value(y_next, r_p)
        if F_next > F_y and not anchored_at_y:
            # the function restart: y_next is discarded, and the next row
            # steps from y itself, with the seed weights
            z, r_x, g = y, r_y, problem.apply_adjoint(r_y)
            state.k, state.alpha, state.eta = 0, 0.0, L_f
            eta_n, alpha_n = seed
        else:
            y, r_y, z = y_next, r_p, z_next
            r_x, g, F_y = r_next, g_next, F_next
            run.keep(y, r_y, F_y)
        run.log(kind, F_y, Dn, eta, alpha, t, s)
    return run.budget_exit()


def agm(problem: L1LeastSquares, x0, config: SolverConfig) -> Solution:
    """Coupled gradient/mirror scheme with alpha_{k+1} = (k+2)/(2 L_f).

    x_k = t_k z_k + (1-t_k) y_k, y_{k+1} = prox(x_k) in the problem's
    metric V, z_{k+1} = Mirr_{z_k}(grad f(x_k), alpha_{k+1}) in
    M = V / L_f; k counts the iterations since the last restart (see
    magma).  After a gradient restart z_{k+1} = y_{k+1}; after a function
    restart, on a row not anchored at y_k whose y_{k+1} has the higher
    F, y_{k+1} is discarded and z_{k+1} = y_k.  Either way k starts
    again at 0, so the trace's F does not rise except by rounding on a
    row anchored at y.

    This is magma on the identity chain, whatever config.levels says,
    with magma's products (one pass over A per iteration, and one B^T
    more on each function restart), restarts, exits, live checks and
    step_counts keys.
    """
    chain = build_chain(problem.n_x, 1, bucket=problem.bucket, m=problem.m)
    return magma(problem, chain, x0, replace(config, levels=1))


# ---------------------------------------------------------------------------
# Dispatch used by the harness and the CLI.

SOLVERS = ("ista", "fista", "agm", "magma")


def run_solver(name: str, problem: L1LeastSquares, x0,
               config: SolverConfig, chain: RestrictionChain = None) -> Solution:
    """Run a solver by id; builds the restriction chain for magma if needed."""
    if name == "ista":
        return ista(problem, x0, config)
    if name == "fista":
        return fista(problem, x0, config)
    if name == "agm":
        return agm(problem, x0, config)
    if name == "magma":
        if chain is None:
            chain = build_chain(problem.n_x, config.levels,
                                bucket=problem.bucket, m=problem.m)
        return magma(problem, chain, x0, config)
    raise ValueError(f"unknown solver '{name}'; choose from {SOLVERS}")
