"""Command-line front end: solve one instance, run benchmarks, run checks.

Exit codes: 0 ok, 1 input error, 2 solver stopped on budget without
converging, 3 invariant or config-validation failure.  Every run prints
its fully resolved configuration so results can be reproduced exactly.
"""

import argparse
import dataclasses
import sys

import numpy as np

from . import checks as checks_mod
from . import io as mgio
from .harness import run_compare
from .multilevel import build_chain
from .problem import L1LeastSquares
from .solvers import (SOLVERS, InvariantViolation, SolverConfig, _as_start,
                      run_solver)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNCONVERGED = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract reserves 2 for
    unconverged runs, so input errors map to 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_INPUT)


def _add_config_flags(p):
    p.add_argument("--eps", type=float, default=None,
                   help="tolerance on the gradient-mapping norm")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--kappa", type=float, default=None,
                   help="coarse-condition norm fraction in (0, 1]")
    p.add_argument("--theta", type=float, default=None,
                   help="relative-distance threshold to the last coarse anchor")
    p.add_argument("--Kd", dest="K_d", type=int, default=None,
                   help="consecutive-gradient-step allowance")
    p.add_argument("--tau", type=float, default=None,
                   help="line-search shrink factor in (0, 1)")
    p.add_argument("--s0", type=float, default=None,
                   help="initial line-search step")
    p.add_argument("--c", dest="armijo_c", type=float, default=None,
                   help="Armijo sufficient-decrease constant in (0, 1)")
    p.add_argument("--mu", type=float, default=None,
                   help="smoothing level for the coarse machinery")
    p.add_argument("--levels", type=int, default=None,
                   help="grid levels; 1 disables coarse correction")
    p.add_argument("--coarse-tol", type=float, default=None)
    p.add_argument("--coarse-budget", type=int, default=None)


_CONFIG_KEYS = ("eps", "max_iters", "kappa", "theta", "K_d", "armijo_c",
                "tau", "s0", "mu", "levels", "coarse_tol", "coarse_budget")


def _config_from_args(args) -> SolverConfig:
    fields = {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    return SolverConfig(**fields)


def _print_config(config: SolverConfig, extra: dict):
    parts = [f"{k}={v}" for k, v in extra.items()]
    parts += [f"{f.name}={getattr(config, f.name)}"
              for f in dataclasses.fields(config)]
    print("resolved config: " + " ".join(parts))


def _cmd_solve(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    try:
        A = mgio.read_matrix(args.matrix)
        b = mgio.read_vector(args.vector)
        problem = L1LeastSquares(A, b, lam=args.lam, bucket=args.bucket)
        if args.x0 is not None:
            x0 = mgio.read_vector(args.x0)
        elif args.x0_seed is not None:
            x0 = np.random.default_rng(args.x0_seed).standard_normal(problem.dim)
        else:
            x0 = np.zeros(problem.dim)
        x0 = _as_start(problem, x0)
        chain = None
        if args.solver == "magma":
            chain = build_chain(problem.n_x, config.levels,
                                bucket=problem.bucket, m=problem.m)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _print_config(config, {"solver": args.solver, "lambda": args.lam,
                           "bucket": args.bucket, "matrix": args.matrix,
                           "vector": args.vector})
    try:
        sol = run_solver(args.solver, problem, x0, config, chain=chain)
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if str(args.output).endswith(".mlv"):
        mgio.write_vector(args.output, sol.x)
    else:
        with open(args.output, "w") as fh:
            for value in sol.x:
                fh.write(repr(float(value)) + "\n")
    mgio.write_trace_csv(sol.trace, args.trace)
    print(f"solver={args.solver} converged={sol.converged} "
          f"iterations={sol.iterations} F={sol.objective!r} "
          f"grad_map={sol.grad_map_norm:.3e} time_s={sol.elapsed_s:.3f}")
    print(f"solution written to {args.output}, trace to {args.trace}")
    return EXIT_OK if sol.converged else EXIT_UNCONVERGED


def _cmd_bench(args) -> int:
    try:
        spec = mgio.parse_experiment_file(args.spec)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"spec {spec.spec_hash()}: m={spec.m} n={spec.n} rho={spec.rho} "
          f"k_true={spec.k_true} corruption={spec.corruption} "
          f"noise={spec.noise} seed={spec.seed} bucket={spec.bucket} "
          f"lam={spec.lam} reps={spec.reps} solvers={','.join(spec.solvers)}")
    for solver in spec.solvers:
        _print_config(spec.solver_config(solver), {"solver": solver})
    records = run_compare(spec)
    mgio.write_records_csv(records, args.output)
    print(f"{len(records)} records written to {args.output}")
    print("summary (per-solver mean time to eps over converged runs):")
    for solver in spec.solvers:
        times = [r.time_s for r in records
                 if r.solver == solver and r.converged]
        total = sum(1 for r in records if r.solver == solver)
        mean = sum(times) / len(times) if times else float("nan")
        print(f"  {solver}: converged {len(times)}/{total}, "
              f"mean_time_s={mean:.4f}")
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"FAIL config-validation: {exc}")
        return EXIT_INVARIANT
    names = [args.suite] if args.suite else None
    try:
        results = checks_mod.run_suites(names, config)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    failed = []
    for name, (ok, detail) in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"violated invariant suite(s): {', '.join(failed)}")
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mgprox",
                     description="Multilevel accelerated proximal solvers "
                                 "for l1-regularized least squares.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance from files")
    p_solve.add_argument("matrix", help="dictionary file (binary or CSV)")
    p_solve.add_argument("vector", help="observation file (binary or CSV)")
    p_solve.add_argument("--solver", choices=SOLVERS, default="fista")
    p_solve.add_argument("--lambda", dest="lam", type=float, default=1e-6,
                         help="l1 regularization weight")
    p_solve.add_argument("--bucket", action="store_true",
                         help="augment the dictionary to [A, I] for dense "
                              "error correction")
    p_solve.add_argument("--x0", default=None, help="starting-point file")
    p_solve.add_argument("--x0-seed", type=int, default=None,
                         help="seed for a random starting point")
    p_solve.add_argument("--output", default="solution.csv")
    p_solve.add_argument("--trace", default="trace.csv")
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark spec file")
    p_bench.add_argument("spec", help="key=value experiment spec file")
    p_bench.add_argument("--output", default="records.csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--suite", default=None,
                         choices=sorted(checks_mod.SUITES),
                         help="run a single suite instead of all")
    _add_config_flags(p_check)
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
