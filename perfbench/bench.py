"""One run of one workload: set-ups and solves, timed or traced, and checked.

An operation is one set-up or one solve.  It fails when it raises, when
the solver does not converge, or when a check in ``verify`` rejects it.
Set-up means building the problem (with its Lipschitz power iteration),
the restriction chain, and the coarse dictionary with its spectral bound.
"""

import contextlib
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from mgprox import L1LeastSquares, SolverConfig, build_chain, fista, magma

import inputs
import verify
from spec import EPS, KAPPA, LAM, MAX_ITERS, MU
from tracing import Tracer


class Run:
    def __init__(self, workload, seed):
        self.w = workload
        self.seed = seed
        self.A = inputs.dictionary(workload.m, workload.n)
        self.configs = {
            "magma": SolverConfig(eps=EPS, max_iters=MAX_ITERS, kappa=KAPPA,
                                  levels=workload.levels, mu=MU),
            "fista": SolverConfig(eps=EPS, max_iters=MAX_ITERS),
        }
        self.next_obs = 1
        self.attempted = 0
        self.failed = 0
        self.samples = {name: [] for name in
                        ("setup_s", "magma_solve_s", "fista_solve_s")}
        self.traced_s = {"magma": [], "fista": []}
        self.layers = []        # per-layer metrics of each traced operation
        self.lipschitz = []     # L_f of each set-up, checked in finish()
        self.shared_chain = None
        self._clean = {}        # planted code -> A x + e
        self.warm = None        # (b, L_f, solution) of the warm-up solve

    # -- operations ------------------------------------------------------
    def _fail(self, what, reasons):
        self.failed += 1
        for r in reasons:
            print(f"FAILED {what}: {r}", file=sys.stderr)

    def set_up(self, b, tracer=None):
        """Returns (problem, chain), or None when the set-up failed."""
        self.attempted += 1
        w = self.w
        build = build_chain if tracer is None else \
            tracer.span("build_chain", build_chain)
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                problem = L1LeastSquares(self.A, b, lam=LAM, bucket=True)
                chain = build(w.n, w.levels, bucket=True, m=w.m)
                chain.coarse_dictionary(problem)
                dt = perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - an operation failure
            self._fail("set-up", [repr(exc)])
            return None
        self.lipschitz.append(problem.L_f)
        if tracer is None:
            self.samples["setup_s"].append(dt)
        else:
            self.layers.append(_setup_layers(tracer))
        return problem, chain

    def solve(self, solver, problem, chain, b, tracer=None, timed=None):
        """Solve, check, and record the time (or the layers when traced).

        A traced solve also checks that its counts equal ``timed``, the
        counts of the untraced solve of the same problem.  Returns the
        counts of this solve, or None when it failed.
        """
        self.attempted += 1
        x0 = np.zeros(problem.dim)
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                t0 = perf_counter()
                if solver == "magma":
                    sol = magma(problem, chain, x0, self.configs["magma"])
                else:
                    sol = fista(problem, x0, self.configs["fista"])
                dt = perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - an operation failure
            self._fail(solver, [repr(exc)])
            return None
        counts = {"iterations": sol.iterations, **sol.step_counts}
        bad = verify.check_solution(self.A, b, LAM, problem.L_f, EPS, sol.x,
                                    sol.converged, sol.objective)
        if tracer is not None:
            bad += verify.check_counts(timed, counts)
        if bad:
            self._fail(solver, bad)
            return None
        if tracer is None:
            self.samples[f"{solver}_solve_s"].append(dt)
        else:
            self.traced_s[solver].append(dt)
            self.layers.append(
                _solve_layers(solver, tracer, dt, sol, self.A, problem.dim))
        return counts

    # -- rounds ----------------------------------------------------------
    def _observation(self):
        j = self.next_obs
        self.next_obs += 1
        code = (j - 1) % self.w.pool
        if code not in self._clean:
            self._clean[code] = inputs.clean_observation(self.A, code)
        return self._clean[code] + inputs.noise(self.w.m, self.seed, j)

    def _chain_for(self, chain):
        return self.shared_chain if self.w.shared_chain else chain

    def warm_up(self):
        """An untimed set-up and magma solve, kept for the self-test."""
        b = self._observation()
        problem = L1LeastSquares(self.A, b, lam=LAM, bucket=True)
        chain = build_chain(self.w.n, self.w.levels, bucket=True, m=self.w.m)
        if self.w.shared_chain:
            self.shared_chain = chain
        sol = magma(problem, chain, np.zeros(problem.dim),
                    self.configs["magma"])
        fista(problem, np.zeros(problem.dim),
              SolverConfig(eps=EPS, max_iters=50))
        self.warm = (b, problem.L_f, sol)

    def round(self):
        for i in range(self.w.obs_per_round):
            b = self._observation()
            for _ in range(self.w.setups_per_obs):
                built = self.set_up(b)
            if built is None:
                continue
            problem, chain = built
            self.solve("magma", problem, self._chain_for(chain), b)
            if i % self.w.fista_every == 0:
                self.solve("fista", problem, chain, b)

    def traced_round(self):
        """One observation: each solver untraced, then traced.

        The traced solve runs on a second, traced set-up, which gives it
        the cache state the untraced solve saw.
        """
        b = self._observation()
        plain, traced = self.set_up(b), self.set_up(b, Tracer())
        if plain is None or traced is None:
            return
        for solver in ("magma", "fista"):
            timed = self.solve(solver, plain[0], self._chain_for(plain[1]), b)
            if timed is not None:
                self.solve(solver, traced[0], self._chain_for(traced[1]), b,
                           Tracer(), timed)

    # -- result ----------------------------------------------------------
    def finish(self, trace):
        """Checks that need the SVD, then the result and notes for people."""
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        bound = verify.spectral_bound(self.A)
        for L_f in self.lipschitz:
            bad = verify.check_lipschitz(L_f, bound)
            if bad:
                self._fail("set-up", bad)
        b, L_f, sol = self.warm
        problems = verify.self_test(self.A, b, LAM, L_f, EPS, sol, bound)
        for p in problems:
            print(f"SELF-TEST: {p}", file=sys.stderr)
        notes = []
        if trace:
            metrics = _mean_layers(self.layers)
            for solver, traced in self.traced_s.items():
                plain = self.samples[f"{solver}_solve_s"]
                if traced and plain:
                    t, p = statistics.median(traced), statistics.median(plain)
                    notes.append(
                        f"tracing overhead, {solver}: {t:.4g} s traced "
                        f"against {p:.4g} s untraced ({t / p - 1:+.1%})")
        else:
            metrics = {name: (statistics.median(v), "s")
                       for name, v in self.samples.items() if v}
            metrics["peak_rss_mb"] = (peak_mb, "MB")
            notes = [f"{name}: median of {len(v)}"
                     for name, v in self.samples.items()]
        return {
            "correct": not problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }, notes


def run(workload, seed, seconds, trace):
    """Warm up, make the rounds, check; returns (result, notes)."""
    r = Run(workload, seed)
    r.warm_up()
    if trace:
        for _ in range(workload.trace_rounds):
            r.traced_round()
    else:
        # Whole rounds only; start another while the longest round so far
        # would still end within ``seconds``.
        t_start = perf_counter()
        longest = 0.0
        while True:
            t0 = perf_counter()
            r.round()
            longest = max(longest, perf_counter() - t0)
            if perf_counter() - t_start + longest > seconds:
                break
    return r.finish(trace)


# -- per-layer metrics ----------------------------------------------------

PROBLEM_OPS = ("apply", "apply_adjoint", "value", "g_prox")


def _calls_s(tracer, span, name, out):
    out[f"{name}.calls"] = (tracer.calls[span], "count")
    out[f"{name}.s"] = (tracer.seconds[span], "s")


def _solve_layers(solver, tracer, wall, sol, A, dim):
    c, out = tracer.calls, {}
    out[f"{solver}.iterations"] = (sol.iterations, "count")
    out[f"{solver}.solvers.self_s"] = (wall - tracer.covered, "s")
    for op in PROBLEM_OPS:
        _calls_s(tracer, f"problem.{op}", f"{solver}.problem.{op}", out)
    # Computed, not measured: each fine product streams A once and reads
    # and writes one vector of each side's length.
    per_product = A.nbytes + 8 * (dim + A.shape[0])
    out[f"{solver}.problem.bytes_computed"] = (
        (c["problem.apply"] + c["problem.apply_adjoint"]) * per_product, "B")
    if solver != "magma":
        return out
    steps = sol.step_counts
    for kind in ("grad", "coarse", "fallback"):
        out[f"magma.steps.{kind}"] = (steps[kind], "count")
    attempts = steps["coarse"] + steps["fallback"]
    out["magma.coarse_acceptance"] = (
        steps["coarse"] / attempts if attempts else 0.0, "ratio")
    _calls_s(tracer, "solvers.mfista", "magma.solvers.mfista", out)
    out["magma.solvers.mfista.iterations"] = (
        tracer.counts["solvers.mfista.iterations"], "count")
    _calls_s(tracer, "solvers.armijo_search", "magma.solvers.armijo_search",
             out)
    # armijo_search is the only caller of the smoothed objective's value.
    out["magma.solvers.armijo_search.probes"] = (
        c["problem.smoothed_value"], "count")
    for span in ("build_coarse_model", "coarse_model.grad", "restrict",
                 "prolong"):
        _calls_s(tracer, f"multilevel.{span}", f"magma.multilevel.{span}", out)
    # A call misses when it computes the coarse spectral bound, the work
    # the cache is there to save.
    misses = c["multilevel.power_iteration"]
    out["magma.multilevel.coarse_dictionary.hits"] = (
        c["multilevel.coarse_dictionary"] - misses, "count")
    out["magma.multilevel.coarse_dictionary.misses"] = (misses, "count")
    out["magma.multilevel.coarse_dictionary.s"] = (
        tracer.seconds["multilevel.coarse_dictionary"], "s")
    _calls_s(tracer, "mirror.mirror_step", "magma.mirror.mirror_step", out)
    return out


def _setup_layers(tracer):
    return {
        "setup.problem.power_iteration.op_calls": (
            tracer.counts["problem.power_iteration.op_calls"], "count"),
        "setup.problem.power_iteration.s": (
            tracer.seconds["problem.power_iteration"], "s"),
        "setup.multilevel.build_chain.s": (
            tracer.seconds["build_chain"], "s"),
        "setup.multilevel.coarse_dictionary.s": (
            tracer.seconds["multilevel.coarse_dictionary"], "s"),
    }


def _mean_layers(layers):
    """Each per-layer metric per operation: its mean over the operations.

    Counts of solves of different instances cluster (magma's iteration
    count moves in steps of about K_d), and a median of such values jumps
    between clusters; a mean does not.
    """
    values, units = {}, {}
    for layer in layers:
        for name, (v, unit) in layer.items():
            values.setdefault(name, []).append(v)
            units[name] = unit
    return {name: (statistics.fmean(v), units[name])
            for name, v in values.items()}
