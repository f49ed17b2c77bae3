"""First-order solvers for composite problems.

ista / fista / agm run on the fine level; mfista is the monotone solver
used on smoothed coarse models; magma couples gradient and mirror steps
and replaces some gradient steps with coarse correction steps obtained
from a first-order-coherent reduced model.

All solvers stop on the gradient-mapping norm ||D(x_k)||_2 < eps, where
D(x) = x - prox(x), and emit a per-iteration trace with the columns
(k, step_kind, F, D_norm, eta, alpha, t, s, elapsed_ns).

A run owns its state exclusively; several runs sharing one (immutable)
problem may proceed concurrently.
"""

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .multilevel import RestrictionChain, build_chain, build_coarse_model
from .problem import L1LeastSquares, SmoothedView, mirror_step

__all__ = [
    "SolverConfig",
    "MagmaState",
    "TraceRow",
    "CoarseEvent",
    "Solution",
    "REJECTION_REASONS",
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

# Why a coarse attempt fell back to the gradient step, in the order magma
# tests them; Solution.rejections counts each.
REJECTION_REASONS = ("entry_stationary", "condition_lost", "no_decrease",
                     "line_search_failed", "objective_rejected")


class LineSearchError(RuntimeError):
    """Raised when the backtracking grid is exhausted without acceptance."""


class InvariantViolation(RuntimeError):
    """Raised when a live bookkeeping or descent invariant fails."""


@dataclass
class SolverConfig:
    """Validated solver parameters.

    Defaults are the working set for the l1 instance family:
    kappa=0.8, K_d=30, tau=0.95, s0=10, eps=1e-6, coarse tolerance 1e-3.
    theta has no published value; 0.5 is used.  The Armijo constant c is
    also unpublished, and it does double duty here: it both accepts line
    search steps and scales the coarse-branch eta as L_H/(c s kappa^2),
    so the customary 1e-4 inflates eta by four orders of magnitude and
    wipes out the momentum after every coarse step (measured 10x more
    iterations at benchmark scale); 0.5 keeps the coupling tight.
    kappa=1 is allowed as a degenerate setting that switches coarse
    steps off (the norm test is strict).
    """

    eps: float = 1e-6
    max_iters: int = 1000
    kappa: float = 0.8
    theta: float = 0.5
    K_d: int = 30
    armijo_c: float = 0.5
    tau: float = 0.95
    s0: float = 10.0
    mu: float = 1e-3
    mu_schedule: str = "fixed"  # "fixed" or "horizon"
    zeta: float = 1.0
    coarse_tol: float = 1e-3
    coarse_budget: int = 100
    levels: int = 2
    line_search_cap: int = 100
    backtracking: bool = False
    bt_init_L: float = 1.0
    bt_growth: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite (got {value})")
        checks = [
            (self.eps > 0, f"eps must be positive (got {self.eps})"),
            (self.max_iters >= 1, f"max_iters must be >= 1 (got {self.max_iters})"),
            (0 < self.kappa <= 1, f"kappa must lie in (0, 1] (got {self.kappa})"),
            (self.theta > 0, f"theta must be positive (got {self.theta})"),
            (self.K_d >= 1, f"K_d must be >= 1 (got {self.K_d})"),
            (0 < self.armijo_c < 1, f"armijo c must lie in (0, 1) (got {self.armijo_c})"),
            (0 < self.tau < 1, f"tau must lie in (0, 1) (got {self.tau})"),
            (self.s0 > 0, f"s0 must be positive (got {self.s0})"),
            (self.mu > 0, f"mu must be positive (got {self.mu})"),
            (self.mu_schedule in ("fixed", "horizon"),
             f"mu_schedule must be 'fixed' or 'horizon' (got {self.mu_schedule})"),
            (0 < self.zeta <= 1, f"zeta must lie in (0, 1] (got {self.zeta})"),
            (self.coarse_tol > 0, f"coarse_tol must be positive (got {self.coarse_tol})"),
            (self.coarse_budget >= 1,
             f"coarse_budget must be >= 1 (got {self.coarse_budget})"),
            (self.levels >= 1, f"levels must be >= 1 (got {self.levels})"),
            (self.line_search_cap >= 1,
             f"line_search_cap must be >= 1 (got {self.line_search_cap})"),
            (self.bt_init_L > 0, f"bt_init_L must be positive (got {self.bt_init_L})"),
            (self.bt_growth > 1, f"bt_growth must exceed 1 (got {self.bt_growth})"),
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


def _prox_at(problem, x, L, r=None):
    """Prox step and the gradient used to take it (one f-gradient pass;
    given the residual r = B x - b, one product with B^T only)."""
    fgx = problem.f_grad(x) if r is None else problem.apply_adjoint(r)
    return problem.g_prox(x - fgx / L, 1.0 / L), fgx


def _prox_residual(problem, y, g_y, L, f_y, growth):
    """Prox step x = prox_L(y) taken with the gradient ``g_y`` at y, and
    its residual r = B x - b; returns (x, r, L) for one product with B.

    With ``f_y`` None, L is kept.  Given ``f_y`` = f(y), L grows by
    ``growth`` until the descent-lemma test
    f(x) <= f(y) + <g_y, x - y> + L/2 ||x - y||^2 holds, which is
    F(x) <= F(y) - Prog_L(y) with the g terms cancelled; each probe costs
    one product with B.
    """
    if f_y is not None:
        slack = 1e-12 * max(1.0, abs(f_y + problem.g_value(y)))
    while True:
        x = problem.g_prox(y - g_y / L, 1.0 / L)
        r = problem.residual(x)
        if f_y is None:
            return x, r, L
        d = x - y
        if 0.5 * float(r @ r) <= f_y + float(g_y @ d) \
                + 0.5 * L * float(d @ d) + slack:
            return x, r, L
        L *= growth


def _objective(problem, x, r):
    """F(x) from the residual r = B x - b, with no product."""
    return 0.5 * float(r @ r) + problem.g_value(x)


def _finish(problem, x, Dn, k, converged, counts, t0, trace, events=None,
            objective=None, rejections=None):
    return Solution(
        x=x,
        objective=problem.value(x) if objective is None else objective,
        grad_map_norm=Dn,
        iterations=k,
        converged=converged,
        step_counts=dict(counts),
        elapsed_s=time.perf_counter() - t0,
        trace=trace,
        coarse_events=events or [],
        rejections=dict(rejections or {}),
    )


# ---------------------------------------------------------------------------
# Baseline solvers.


def ista(problem: L1LeastSquares, x0, config: SolverConfig) -> Solution:
    """Proximal gradient iteration x_{k+1} = prox(x_k); monotone in F.

    One product with B and one with B^T per iteration: the residual of
    each new iterate gives both its objective and the next gradient.
    """
    x = _as_start(problem, x0)
    r = problem.residual(x)
    t0 = time.perf_counter()
    ns0 = time.monotonic_ns()
    trace = []
    L = config.bt_init_L if config.backtracking else problem.L_f
    for k in range(config.max_iters):
        g = problem.apply_adjoint(r)
        f_x = 0.5 * float(r @ r) if config.backtracking else None
        xn, r, L = _prox_residual(problem, x, g, L, f_x, config.bt_growth)
        Dn = float(np.linalg.norm(x - xn))
        if Dn < config.eps:
            return _finish(problem, x, Dn, k, True, {"grad": k}, t0, trace)
        x = xn
        trace.append(TraceRow(k, "grad", _objective(problem, x, r), Dn,
                              NAN, NAN, NAN, NAN, time.monotonic_ns() - ns0))
    g = problem.apply_adjoint(r)
    Dn = float(np.linalg.norm(x - problem.g_prox(x - g / L, 1.0 / L)))
    return _finish(problem, x, Dn, config.max_iters, Dn < config.eps,
                   {"grad": config.max_iters}, t0, trace)


def fista(problem: L1LeastSquares, x0, config: SolverConfig) -> Solution:
    """Accelerated proximal gradient with the t_{k+1} = (1+sqrt(1+4t_k^2))/2
    momentum sequence; stops on ||D(x_k)|| < eps at the main iterate.

    Each iteration makes one product with B and one with B^T (backtracking
    adds one B per rejected probe).  The residual r_x = B x - b and the
    gradient g_x = B^T r_x of the main iterate give F(x) and the stopping
    test, and since products are linear, the momentum point
    y = x + beta (x - x_prev) has gradient g_x + beta (g_x - g_prev) and
    residual r_x + beta (r_x - r_prev).  g_x is recomputed exactly every
    iteration, so rounding does not build up.
    """
    x = _as_start(problem, x0)
    r = problem.residual(x)
    g = problem.apply_adjoint(r)
    x_prev, r_prev, g_prev = x, r, g
    y, r_y, g_y = x, r, g
    t = 1.0
    t0 = time.perf_counter()
    ns0 = time.monotonic_ns()
    trace = []
    L = config.bt_init_L if config.backtracking else problem.L_f
    L_f = problem.L_f
    best_F, best_x = _objective(problem, x, r), x
    for k in range(config.max_iters):
        f_y = 0.5 * float(r_y @ r_y) if config.backtracking else None
        x, r, L = _prox_residual(problem, y, g_y, L, f_y, config.bt_growth)
        g = problem.apply_adjoint(r)
        Dn = float(np.linalg.norm(x - problem.g_prox(x - g / L_f, 1.0 / L_f)))
        Fx = _objective(problem, x, r)
        trace.append(TraceRow(k, "grad", Fx, Dn, NAN, NAN, NAN, NAN,
                              time.monotonic_ns() - ns0))
        if Fx < best_F:
            best_F, best_x = Fx, x
        if Dn < config.eps:
            return _finish(problem, x, Dn, k + 1, True, {"grad": k + 1}, t0, trace)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = x + beta * (x - x_prev)
        g_y = g + beta * (g - g_prev)
        if config.backtracking:
            r_y = r + beta * (r - r_prev)
        x_prev, r_prev, g_prev, t = x, r, g, t_next
    Dn = float(np.linalg.norm(best_x - _prox_at(problem, best_x, L_f)[0]))
    return _finish(problem, best_x, Dn, config.max_iters, False,
                   {"grad": config.max_iters}, t0, trace)


def update_eta_alpha(state, branch: str, s_k, L_f: float, L_H,
                     config: SolverConfig):
    """Next (eta, alpha) for the coupled bookkeeping.

    k = 0 seeds the recursion with eta_1 = L_f, alpha_1 = 1/L_f.  For
    k >= 1, eta_{k+1} is L_f on the gradient branch and
    max(1/(4 alpha_k^2 eta_k), L_H/(c s_k kappa^2)) on the coarse branch;
    alpha_{k+1} = 1/(2 eta_{k+1}) + alpha_k sqrt(eta_k/eta_{k+1}) is the
    positive root that keeps alpha^2 eta telescoping exactly, and reduces
    to (k+2)/(2 L_f) on all-gradient runs.
    """
    if state.k == 0:
        return L_f, 1.0 / L_f
    if branch == "coarse":
        eta_next = max(1.0 / (4.0 * state.alpha ** 2 * state.eta),
                       L_H / (config.armijo_c * s_k * config.kappa ** 2))
    else:
        eta_next = L_f
    alpha_next = 1.0 / (2.0 * eta_next) + state.alpha * math.sqrt(state.eta / eta_next)
    return eta_next, alpha_next


def _combination_weight(alpha, eta):
    """t = 1/(alpha * eta), snapped to 1 when float dust pushes it above."""
    return min(1.0 / (alpha * eta), 1.0)


def agm(problem: L1LeastSquares, x0, config: SolverConfig) -> Solution:
    """Coupled gradient/mirror scheme with alpha_{k+1} = (k+2)/(2 L_f).

    x_k = t_k z_k + (1-t_k) y_k, y_{k+1} = prox(x_k),
    z_{k+1} = Mirr_{z_k}(grad f(x_k), alpha_{k+1}).
    """
    L_f = problem.L_f
    y = _as_start(problem, x0)
    z = y.copy()
    state = MagmaState(k=0, alpha=0.0, eta=L_f)
    t0 = time.perf_counter()
    ns0 = time.monotonic_ns()
    trace = []
    best_F, best_x = problem.value(y), y
    for k in range(config.max_iters):
        eta_n, alpha_n = update_eta_alpha(state, "grad", None, L_f, None, config)
        t = _combination_weight(alpha_n, eta_n)
        x = t * z + (1.0 - t) * y
        p, fgx = _prox_at(problem, x, L_f)
        Dn = float(np.linalg.norm(x - p))
        if Dn < config.eps:
            return _finish(problem, x, Dn, k, True, {"grad": k}, t0, trace)
        y = p
        z = mirror_step(problem, z, fgx, alpha_n)
        state.k, state.alpha, state.eta = k + 1, alpha_n, eta_n
        Fy = problem.value(y)
        if Fy < best_F:
            best_F, best_x = Fy, y
        trace.append(TraceRow(k, "grad", Fy, Dn, eta_n, alpha_n, t, NAN,
                              time.monotonic_ns() - ns0))
    Dn = float(np.linalg.norm(best_x - _prox_at(problem, best_x, L_f)[0]))
    return _finish(problem, best_x, Dn, config.max_iters, False,
                   {"grad": config.max_iters}, t0, trace)


def mfista(objective, x0, tol: float, max_iters: int) -> CoarseSolveResult:
    """Monotone accelerated gradient descent on a smooth objective.

    ``objective`` must provide value(x), grad(x) and lipschitz().  The
    iterate sequence is nonincreasing in value (Beck & Teboulle's monotone
    FISTA), so its first step already does as well as a gradient step
    from x0 when lipschitz() bounds the curvature.  Stops when the
    gradient norm falls below ``tol`` or the budget runs out; a start
    point below ``tol`` returns at once with 0 iterations and
    values == [F(x0)].  values[-1] < values[0] holds exactly when some
    step lowered the value.
    """
    x0 = np.asarray(x0, dtype=float)
    L = objective.lipschitz()
    g0 = objective.grad(x0)
    F0 = objective.value(x0)
    if float(np.linalg.norm(g0)) < tol:
        return CoarseSolveResult(x0, 0, [F0])
    x_prev, F_prev, g_prev = x0, F0, g0
    y = x0
    gy = g0
    t = 1.0
    values = [F0]
    for j in range(1, max_iters + 1):
        zc = y - gy / L
        Fz = objective.value(zc)
        if Fz <= F_prev:
            x, Fx = zc, Fz
            gx = objective.grad(x)
        else:
            # the monotone test keeps x_prev, whose gradient is known
            x, Fx, gx = x_prev, F_prev, g_prev
        values.append(Fx)
        if float(np.linalg.norm(gx)) < tol or j == max_iters:
            return CoarseSolveResult(x, j, values)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = x + (t / t_next) * (zc - x) + ((t - 1.0) / t_next) * (x - x_prev)
        gy = objective.grad(y)
        x_prev, F_prev, g_prev, t = x, Fx, gx, t_next
    return CoarseSolveResult(x_prev, max_iters, values)


def coarse_condition(state: MagmaState, x: np.ndarray, grad_mu: np.ndarray,
                     chain: RestrictionChain, config: SolverConfig) -> bool:
    """Decide whether the coarse direction is worth computing at anchor x.

    True iff ||R g|| > kappa ||g|| (strictly) and x has either moved
    theta-relatively away from the last coarse anchor or at least
    K_d * min(2^fails, 64) consecutive gradient steps have accumulated
    since then (the anchor-retry allowance, doubled by each attempt in a
    row that fell back).  Without the retry gate, consecutive coarse
    steps are never blocked (q resets to zero on each one) and the fine
    level is starved of prox steps near the optimum.  Before the first
    coarse attempt the proximity clause counts as satisfied.
    """
    gn = float(np.linalg.norm(grad_mu))
    rn = float(np.linalg.norm(chain.restrict(grad_mu)))
    if not rn > config.kappa * gn:
        return False
    if state.x_tilde is None:
        return True
    moved = float(np.linalg.norm(x - state.x_tilde)) \
        > config.theta * float(np.linalg.norm(state.x_tilde))
    return moved or state.q >= config.K_d * min(2 ** state.fails, 64)


def armijo_search(view: SmoothedView, x: np.ndarray, d: np.ndarray,
                  config: SolverConfig, slope: float = None,
                  s_start: float = None, r_x: np.ndarray = None,
                  Bd: np.ndarray = None) -> float:
    """Largest s in {s0 * tau^i} with F_mu(x+s d) <= F_mu(x) + c s <d, grad>.

    For convex F_mu the acceptance set along a descent direction is an
    interval [0, s_hat], so the largest accepted grid point is well
    defined and can be located from any grid point: ``s_start`` (itself
    of the form s0 * tau^i, e.g. the previously accepted step) is scanned
    up while accepted and down while rejected, giving the same result as
    the plain top-down scan with fewer evaluations.

    Every probe takes its residual as r_x + s B d and makes no product
    with B; the residual ``r_x`` = B x - b and ``Bd`` = B d are formed
    once each unless the caller passes them.

    Raises LineSearchError after ``line_search_cap`` probes below the
    start; raises ValueError if d is not a descent direction at x.
    """
    if slope is None:
        slope = float(d @ view.grad(x))
    if not slope < 0:
        raise ValueError(f"d is not a descent direction (slope {slope:.3e})")
    if r_x is None:
        r_x = view.problem.residual(x)
    if Bd is None:
        Bd = view.problem.apply(d)
    f_x = view.value(x, r=r_x)

    def accepted(step):
        return view.value(x + step * d, r=r_x + step * Bd) \
            <= f_x + config.armijo_c * step * slope

    s = config.s0 if s_start is None else min(s_start, config.s0)
    if accepted(s):
        grown = s / config.tau
        while grown <= config.s0 * (1.0 + 1e-12) and accepted(grown):
            s = grown
            grown = s / config.tau
        return min(s, config.s0)
    for _ in range(config.line_search_cap):
        s *= config.tau
        if accepted(s):
            return s
    raise LineSearchError(
        f"no step accepted after {config.line_search_cap} shrinkages "
        f"(slope {slope:.3e})")


def _check_bookkeeping(state, eta_n, alpha_n, t):
    """Telescoping identity and t in (0, 1], enforced every iteration k >= 1."""
    prev = state.alpha ** 2 * state.eta
    residual = alpha_n ** 2 * eta_n - alpha_n + 1.0 / (4.0 * eta_n) - prev
    if abs(residual) > 1e-9 * max(1.0, abs(prev)):
        raise InvariantViolation(
            f"telescoping identity violated at k={state.k}: residual {residual:.3e}")
    if not 0.0 < t <= 1.0:
        raise InvariantViolation(f"t_k out of (0, 1] at k={state.k}: {t}")


def _gradient_step(problem, x, r_x, g, p, L_f, k):
    """Take the prox step y = p of the anchor x, formed with g = B^T r_x.

    Returns the residual B p - b and the objective F(p), for one product
    with B.  Also certifies L_f along this step: the descent lemma
    f(p) <= f(x) + <g, p - x> + L_f/2 ||p - x||^2, which the guarantee
    lemmas assume, costs three dot products here; a violation raises
    InvariantViolation naming L_f.
    """
    r_p = problem.residual(p)
    d = p - x
    f_x = 0.5 * float(r_x @ r_x)
    f_p = 0.5 * float(r_p @ r_p)
    bound = f_x + float(g @ d) + 0.5 * L_f * float(d @ d)
    if f_p > bound + 1e-12 * max(1.0, abs(f_x)):
        raise InvariantViolation(
            f"L_f = {L_f:.6g} fails the descent lemma at k={k}: "
            f"f(prox(x)) = {f_p:.6e} > {bound:.6e}")
    return r_p, _objective(problem, p, r_p)


def _smoothing(problem, config, eta, alpha):
    """mu of the coarse model at the provisional (eta, alpha): config.mu, or
    max(zeta / ((L_f + eta) alpha^2 beta T), 1e-12) on the horizon schedule."""
    if config.mu_schedule == "fixed":
        return config.mu
    beta = max(problem.smoothing_beta, 1e-30)
    mu = config.zeta / ((problem.L_f + eta) * alpha ** 2 * beta
                        * config.max_iters)
    return max(mu, 1e-12)


def _try_coarse_step(problem, chain, view, state, y, r_y, z, r_z, F_y,
                     config, k):
    """One coarse attempt at iteration k, from the iterates y and z.

    Re-forms the anchor x = t z + (1-t) y with the coarse-branch eta,
    estimated from the previously accepted step size, and re-tests the
    coarse condition there.  Then solves the coherent coarse model with
    mfista, requires it to improve on its start value, checks that the
    prolonged correction d descends on F_mu, finds an Armijo step s and
    requires y = x + s d to beat the incumbent objective F_y.

    Returns (x, step): the re-formed anchor, and either the reason the
    attempt stopped, one of REJECTION_REASONS, or the accepted step
    (y, B y - b, F(y), grad f(x), eta, alpha, t, s, its CoarseEvent).
    """
    _, spectral = chain.coarse_dictionary(problem)
    L_H = spectral + problem.lam / view.mu
    eta, alpha = update_eta_alpha(state, "coarse", state.s_prev,
                                  problem.L_f, L_H, config)
    t = _combination_weight(alpha, eta)
    x, r_x = t * z + (1.0 - t) * y, t * r_z + (1.0 - t) * r_y
    g = problem.apply_adjoint(r_x)
    grad_mu = g + view.g_grad(x)
    # by coherence the coarse entry gradient is R grad F_mu(x), so an
    # entry-stationary solve is skipped without building the model.
    if float(np.linalg.norm(chain.restrict(grad_mu))) < config.coarse_tol:
        return x, "entry_stationary"
    if not coarse_condition(state, x, grad_mu, chain, config):
        return x, "condition_lost"
    model = build_coarse_model(problem, chain, x, view.mu, fine_grad=grad_mu)
    res = mfista(model, model.anchor, config.coarse_tol, config.coarse_budget)
    # a solve that never moved: a start stationary within rounding of
    # coarse_tol, or an L_H that does not bound the coarse curvature
    if not res.values[-1] < res.values[0]:
        return x, "no_decrease"
    d = chain.prolong(res.x - model.anchor)
    slope = float(d @ grad_mu)
    gn2 = float(grad_mu @ grad_mu)
    bound = -config.kappa ** 2 / (2.0 * L_H) * gn2
    if not slope < bound + 1e-9:
        raise InvariantViolation(
            f"coarse direction not a descent direction at "
            f"k={k}: slope {slope:.6e} vs bound {bound:.6e}")
    Bd = problem.apply(d)
    try:
        s = armijo_search(view, x, d, config, slope=slope,
                          s_start=state.s_prev, r_x=r_x, Bd=Bd)
    except LineSearchError:
        return x, "line_search_failed"
    # the Armijo test controls F_mu only; the true objective may grow by
    # up to beta*mu, which keeps undoing late-stage convergence.  Require
    # the coarse step to beat the incumbent y.
    y_new, r_new = x + s * d, r_x + s * Bd
    F_new = _objective(problem, y_new, r_new)
    if F_new > F_y:
        return x, "objective_rejected"
    eta, alpha = update_eta_alpha(state, "coarse", s, problem.L_f, L_H, config)
    event = CoarseEvent(k, slope, math.sqrt(gn2), L_H, s, res.iterations)
    return x, (y_new, r_new, F_new, g, eta, alpha, t, s, event)


def magma(problem: L1LeastSquares, chain: RestrictionChain, x0,
          config: SolverConfig) -> Solution:
    """Multilevel accelerated gradient/mirror solver.

    Each iteration forms x_k = t_k z_k + (1-t_k) y_k, stops if
    ||D(x_k)|| < eps, then either takes the gradient step
    y_{k+1} = prox(x_k) or, when the coarse condition fires, tries a
    coarse step (_try_coarse_step): it solves the coherent coarse model
    with mfista and sets y_{k+1} = x_k + s_k d_k with an Armijo step on
    the smoothed objective.  The mirror step z_{k+1} uses grad f(x_k) and
    the finalized alpha_{k+1}.

    The bookkeeping needs eta_{k+1} (hence s_k) before x_k exists, so the
    iterate is first formed with the gradient-branch weights; a coarse
    attempt re-forms it with the coarse-branch eta estimated from the
    previously accepted step size.  An attempt that stops takes the
    already-computed gradient step for that iteration (a "fallback");
    Solution.rejections counts why, by the names in REJECTION_REASONS,
    and MagmaState.fails widens the retry allowance until an attempt
    succeeds.  No attempt is made at the first or the last iteration, so
    a run that stops on its budget makes at most max_iters iterations
    and ends on a gradient step, as the convergence guarantee requires.

    Products: the residuals r_y = B y - b and r_z = B z - b are kept, each
    made once when y or z is formed, and since t + (1-t) = 1 every anchor
    x = t z + (1-t) y has the residual t r_z + (1-t) r_y.  A gradient
    iteration makes two products with B (r_y and r_z) and one with B^T
    (grad f(x)); a coarse attempt adds one B^T at its re-formed anchor,
    and its line search one B (B d), which gives every probe, the
    accepted y and its incumbent test their residuals, so an accepted
    coarse step makes no product for r_y.  Each gradient step checks the
    descent lemma for L_f.
    """
    if chain.fine_dim != problem.dim:
        raise ValueError(
            f"chain acts on dimension {chain.fine_dim}, problem has {problem.dim}")
    L_f = problem.L_f
    y = _as_start(problem, x0)
    z = y.copy()
    r_y = problem.residual(y)
    r_z = r_y
    state = MagmaState(k=0, alpha=0.0, eta=L_f, s_prev=config.s0)
    t0 = time.perf_counter()
    ns0 = time.monotonic_ns()
    trace = []
    events = []
    counts = {"grad": 0, "coarse": 0, "fallback": 0}
    rejections = dict.fromkeys(REJECTION_REASONS, 0)
    F_y = _objective(problem, y, r_y)  # incumbent objective, updated every step
    best_F, best_x, best_r = F_y, y, r_y
    for k in range(config.max_iters):
        eta, alpha = update_eta_alpha(state, "grad", None, L_f, None, config)
        t = _combination_weight(alpha, eta)
        x, r_x = t * z + (1.0 - t) * y, t * r_z + (1.0 - t) * r_y
        p, g = _prox_at(problem, x, L_f, r_x)
        Dn = float(np.linalg.norm(x - p))
        if Dn < config.eps:
            return _finish(problem, x, Dn, k, True, counts, t0, trace,
                           events, _objective(problem, x, r_x), rejections)

        kind = "grad"
        if 0 < k < config.max_iters - 1 and not chain.is_identity:
            view = SmoothedView(problem, _smoothing(problem, config, eta, alpha))
            if coarse_condition(state, x, g + view.g_grad(x), chain, config):
                x_c, step = _try_coarse_step(problem, chain, view, state,
                                             y, r_y, z, r_z, F_y, config, k)
                # remember the attempt's anchor, accepted or not; without
                # this the moved-away clause re-fires every iteration and
                # each failing attempt costs a coarse solve.
                state.x_tilde, state.q = x_c.copy(), 0
                if isinstance(step, str):
                    kind = "fallback"
                    rejections[step] += 1
                    state.fails += 1
                else:
                    kind = "coarse"
                    state.fails = 0
                    y, r_y, F_y, g, eta, alpha, t, s, event = step
                    events.append(event)
                    state.s_prev = s

        if k >= 1:
            _check_bookkeeping(state, eta, alpha, t)
        if kind != "coarse":
            r_y, F_y = _gradient_step(problem, x, r_x, g, p, L_f, k)
            y, s = p, NAN
            state.q += 1
        z = mirror_step(problem, z, g, alpha)
        r_z = problem.residual(z)
        counts[kind] += 1
        state.k, state.alpha, state.eta = k + 1, alpha, eta
        if F_y < best_F:
            best_F, best_x, best_r = F_y, y, r_y
        trace.append(TraceRow(k, kind, F_y, Dn, eta, alpha, t, s,
                              time.monotonic_ns() - ns0))

    Dn = float(np.linalg.norm(best_x - _prox_at(problem, best_x, L_f, best_r)[0]))
    return _finish(problem, best_x, Dn, state.k, Dn < config.eps, counts, t0,
                   trace, events, best_F, rejections)


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
