"""Synthetic instance generation and solver comparison runs.

The dictionaries here stand in for the highly correlated image
dictionaries of the motivating application, which are not available:
columns share a common unit direction with weight sqrt(rho), so the
expected pairwise column inner product is close to rho.  Instances are
fully reproducible from an ExperimentSpec and its seed.
"""

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .multilevel import build_chain
from .problem import L1LeastSquares
from .solvers import SolverConfig, SOLVERS, _reject_non_finite, run_solver

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "gen_correlated_dictionary",
    "gen_instance",
    "subgradient_residual",
    "run_compare",
]

SUPPORT_THRESHOLD = 1e-6


def _sorted_keys(value):
    """``value`` with the keys of every dict in it sorted."""
    if isinstance(value, dict):
        return {k: _sorted_keys(value[k]) for k in sorted(value)}
    return value


@dataclass
class ExperimentSpec:
    """Reproducible description of a benchmark batch.

    ``bucket`` defaults to "corruption > 0": gross errors are what the
    bucket model is for.  ``overrides`` maps a solver id to SolverConfig
    field overrides for that solver only; ``config`` fields apply to all.
    Both are validated as SolverConfig fields when the spec is built, and
    when magma is among the solvers, its levels against n (build_chain).
    """

    m: int
    n: int
    rho: float = 0.0
    k_true: int = 0
    corruption: float = 0.0
    noise: float = 0.0
    seed: int = 0
    solvers: tuple = ("fista",)
    reps: int = 1
    lam: float = 1e-6
    bucket: bool = None
    config: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        _reject_non_finite(self)
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
        if not 0 <= self.rho < 1:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not 0 <= self.k_true <= self.n:
            raise ValueError("k_true must lie in [0, n]")
        if not 0 <= self.corruption <= 1:
            raise ValueError("corruption must lie in [0, 1]")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.lam < 0:
            raise ValueError(
                f"lam must be finite and nonnegative, got {self.lam}")
        self.solvers = tuple(self.solvers)
        if not self.solvers:
            raise ValueError(f"solvers must name at least one of {SOLVERS}")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver '{s}'; choose from {SOLVERS}")
        if self.bucket is None:
            self.bucket = self.corruption > 0
        SolverConfig(**self.config)
        for s in self.overrides:
            if s not in SOLVERS:
                raise ValueError(f"override for unknown solver '{s}'; "
                                 f"choose from {SOLVERS}")
            self.solver_config(s)
        if "magma" in self.solvers:
            build_chain(self.n, self.solver_config("magma").levels)

    def spec_hash(self) -> str:
        """A hash of the fields, in which the keys of config and overrides
        are sorted, so specs that compare equal hash alike."""
        canon = {k: _sorted_keys(v)
                 for k, v in dataclasses.asdict(self).items()}
        return hashlib.sha256(repr(canon).encode()).hexdigest()[:16]

    def solver_config(self, solver: str) -> SolverConfig:
        fields = dict(self.config)
        fields.update(self.overrides.get(solver, {}))
        return SolverConfig(**fields)


@dataclass
class RunRecord:
    spec_hash: str
    solver: str
    rep: int
    converged: bool
    iterations: int
    objective: float
    grad_map_norm: float
    l1_norm: float
    support_size: int
    time_s: float
    trace: list = field(default_factory=list, repr=False)
    error: str = ""


def gen_correlated_dictionary(m: int, n: int, rho: float, seed) -> np.ndarray:
    """Dictionary with unit columns a_j = sqrt(rho) u + sqrt(1-rho) g_j.

    u is a shared unit vector and the g_j are independent unit-normalized
    Gaussian directions; columns are re-normalized at the end, so the
    expected pairwise inner product is approximately rho.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    G = rng.standard_normal((m, n))
    G /= np.linalg.norm(G, axis=0)
    A = np.sqrt(rho) * u[:, None] + np.sqrt(1.0 - rho) * G
    return A / np.linalg.norm(A, axis=0)


def gen_instance(spec: ExperimentSpec):
    """Instance with planted sparse signal and gross corruption.

    b = A x_true + e_true + noise; x_true has k_true nonzeros on a random
    support, e_true corrupts a corruption-fraction of the measurements
    with entries on the scale of the clean signal.  Identical specs give
    bitwise-identical instances.
    """
    rng = np.random.default_rng(spec.seed)
    A = gen_correlated_dictionary(spec.m, spec.n, spec.rho, rng)
    x_true = np.zeros(spec.n)
    if spec.k_true > 0:
        support = rng.choice(spec.n, size=spec.k_true, replace=False)
        x_true[support] = rng.standard_normal(spec.k_true)
    signal = A @ x_true
    e_true = np.zeros(spec.m)
    n_corrupt = int(round(spec.corruption * spec.m))
    if n_corrupt > 0:
        scale = np.sqrt(np.mean(signal ** 2)) or 1.0
        idx = rng.choice(spec.m, size=n_corrupt, replace=False)
        e_true[idx] = scale * rng.standard_normal(n_corrupt)
    b = signal + e_true
    if spec.noise > 0:
        b = b + spec.noise * rng.standard_normal(spec.m)
    problem = L1LeastSquares(A, b, lam=spec.lam, bucket=spec.bucket)
    return problem, x_true, e_true


def subgradient_residual(problem: L1LeastSquares, x: np.ndarray) -> float:
    """Worst-coordinate violation of the l1 optimality inclusion.

    r_j = |grad f(x)_j + lam sgn(x_j)| on coordinates with |x_j| > 1e-10
    and max(0, |grad f(x)_j| - lam) elsewhere; zero exactly at minimizers.
    Independent of the prox-based gradient mapping.
    """
    x = np.asarray(x, dtype=float)
    g = problem.f_grad(x)
    active = np.abs(x) > 1e-10
    r = np.where(active,
                 np.abs(g + problem.lam * np.sign(x)),
                 np.maximum(0.0, np.abs(g) - problem.lam))
    return float(np.max(r)) if r.size else 0.0


def _starting_points(spec: ExperimentSpec, dim: int):
    rng = np.random.default_rng(spec.seed + 1)
    return [rng.standard_normal(dim) for _ in range(spec.reps)]


def run_compare(spec: ExperimentSpec) -> list:
    """Run every configured solver from matched random starting points.

    Timing is monotonic wall clock and excludes instance generation; a
    short warm-up solve is discarded before the timed runs.  Individual
    solver failures are recorded, with the exception's type and message
    in ``error``, and never abort the batch.
    """
    problem, _, _ = gen_instance(spec)
    x0s = _starting_points(spec, problem.dim)
    h = spec.spec_hash()
    records = []
    for solver in spec.solvers:
        config = spec.solver_config(solver)
        chain = build_chain(problem.n_x, config.levels, bucket=problem.bucket,
                            m=problem.m) if solver == "magma" else None
        try:
            run_solver(solver, problem, x0s[0],
                       dataclasses.replace(config, max_iters=3), chain=chain)
        except Exception:
            pass  # warm-up only, discarded; the timed runs record failures
        for rep, x0 in enumerate(x0s):
            t0 = time.monotonic()
            try:
                sol = run_solver(solver, problem, x0, config, chain=chain)
            except Exception as exc:  # noqa: BLE001 - record and continue
                records.append(RunRecord(h, solver, rep, False, 0,
                                         float("nan"), float("nan"),
                                         float("nan"), 0,
                                         time.monotonic() - t0,
                                         error=f"{type(exc).__name__}: {exc}"))
                continue
            elapsed = time.monotonic() - t0
            records.append(RunRecord(
                h, solver, rep,
                converged=sol.converged,
                iterations=sol.iterations,
                objective=sol.objective,
                grad_map_norm=sol.grad_map_norm,
                l1_norm=float(np.sum(np.abs(sol.x))),
                support_size=int(np.sum(np.abs(sol.x) > SUPPORT_THRESHOLD)),
                time_s=elapsed,
                trace=sol.trace,
            ))
    return records
