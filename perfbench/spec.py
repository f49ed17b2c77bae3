"""Workloads and metrics of the benchmark, and the BENCHMARK.json they make.

All workloads are bucket instances (B = [A, I]) on rho=0.9 dictionaries
with lam=1e-6, solved to eps=1e-6 from x0=0; magma uses kappa=0.8 and
mu=1e-6.  Non-bucket problems are left out on purpose: at kappa=0.8 one
full-weighting level has ||R||_2 < kappa, so magma never takes a coarse
step there and would only measure agm.
"""

from dataclasses import dataclass

LAM = 1e-6
EPS = 1e-6
KAPPA = 0.8
MU = 1e-6
MAX_ITERS = 30000
RUN_SECONDS = 36


@dataclass(frozen=True)
class Workload:
    """One fixed dictionary, solved against a stream of observations.

    Observation ``j`` (from 1) carries planted code ``(j - 1) % pool``.  A
    round takes ``obs_per_round`` fresh observations.  Each is set up
    ``setups_per_obs`` times (the last set-up is kept) and solved by
    magma; every ``fista_every``-th one, starting with the first, is then
    solved by fista too.  With ``shared_chain`` magma runs on one
    restriction chain built before the rounds, so the coarse-dictionary
    cache misses inside every solve, as it does when one training
    dictionary answers many queries.  A traced run makes exactly
    ``trace_rounds`` traced rounds of one observation each, so that its
    counts repeat exactly.
    """

    name: str
    why: str
    m: int
    n: int
    levels: int
    pool: int
    obs_per_round: int
    fista_every: int
    setups_per_obs: int
    shared_chain: bool
    trace_rounds: int


WORKLOADS = {w.name: w for w in [
    Workload("bucket_m2000",
             "headline m=2000 n=1024 instance; fine A/A^T products take "
             "over 90% of solve time",
             m=2000, n=1024, levels=6, pool=1, obs_per_round=2,
             fista_every=2, setups_per_obs=6, shared_chain=False,
             trace_rounds=1),
    Workload("wide_n4096",
             "m=1024 n=4096; the dense restriction chain dominates set-up "
             "time and peak memory",
             m=1024, n=4096, levels=6, pool=1, obs_per_round=3,
             fista_every=3, setups_per_obs=1, shared_chain=False,
             trace_rounds=1),
    Workload("queries_m400",
             "one m=400 n=256 dictionary against 64 observations; per-call "
             "Python overhead, not BLAS, dominates",
             m=400, n=256, levels=3, pool=64, obs_per_round=64,
             fista_every=1, setups_per_obs=1, shared_chain=True,
             trace_rounds=16),
]}

# name, unit, better, bound.  setup_s has the largest bound.  The solve
# bounds sit just below it: on queries_m400, whose solves are bound by the
# interpreter rather than by memory, the machine's speed moved run medians
# by up to a fifth.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("magma_solve_s", "s", "lower", 0.24),
    ("fista_solve_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _per_layer():
    rows = []
    for s in ("magma", "fista"):
        rows += [(f"{s}.iterations", "count", "lower"),
                 (f"{s}.solvers.self_s", "s", "lower")]
        if s == "magma":
            rows += [("magma.steps.grad", "count", "lower"),
                     ("magma.steps.coarse", "count", "higher"),
                     ("magma.steps.fallback", "count", "lower"),
                     ("magma.coarse_acceptance", "ratio", "higher")]
            for span, extra in (("mfista", "iterations"),
                                ("armijo_search", "probes")):
                rows += [(f"magma.solvers.{span}.calls", "count", "lower"),
                         (f"magma.solvers.{span}.{extra}", "count", "lower"),
                         (f"magma.solvers.{span}.s", "s", "lower")]
        for op in ("apply", "apply_adjoint", "value", "g_prox"):
            rows += [(f"{s}.problem.{op}.calls", "count", "lower"),
                     (f"{s}.problem.{op}.s", "s", "lower")]
        rows.append((f"{s}.problem.bytes_computed", "B", "lower"))
    for op in ("build_coarse_model", "coarse_model.grad", "restrict",
               "prolong"):
        rows += [(f"magma.multilevel.{op}.calls", "count", "lower"),
                 (f"magma.multilevel.{op}.s", "s", "lower")]
    rows += [("magma.multilevel.coarse_dictionary.hits", "count", "higher"),
             ("magma.multilevel.coarse_dictionary.misses", "count", "lower"),
             ("magma.multilevel.coarse_dictionary.s", "s", "lower"),
             ("magma.mirror.mirror_step.calls", "count", "lower"),
             ("magma.mirror.mirror_step.s", "s", "lower"),
             ("setup.problem.power_iteration.op_calls", "count", "lower"),
             ("setup.problem.power_iteration.s", "s", "lower"),
             ("setup.multilevel.build_chain.s", "s", "lower"),
             ("setup.multilevel.coarse_dictionary.s", "s", "lower")]
    return rows


PER_LAYER = _per_layer()


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json, in its fixed form."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
