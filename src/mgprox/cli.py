"""Command-line front end: solve one instance or run a benchmark spec.

Exit codes: 0 ok, 1 input error, 2 solver stopped on budget without
converging, 3 invariant or config-validation failure.  Every run prints
its fully resolved configuration so results can be reproduced exactly.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

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
    p.add_argument("--mu", type=float, default=None,
                   help="smoothing level for the coarse machinery")
    p.add_argument("--levels", type=int, default=None,
                   help="grid levels; 1 disables coarse correction")


def _config_from_args(args) -> SolverConfig:
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(SolverConfig)
             if getattr(args, f.name, None) is not None}
    return SolverConfig(**given)


def _blas() -> str:
    """The BLAS numpy was built with, as name-version; "unknown" on numpy
    before 1.26, whose show_config cannot return it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')}-{blas.get('version')}"


def _print_config(config: SolverConfig, extra: dict):
    parts = [f"{k}={v}" for k, v in extra.items()]
    parts += [f"{f.name}={getattr(config, f.name)}"
              for f in dataclasses.fields(config)]
    # the numpy and BLAS that ran: residuals of two points round as the
    # BLAS's matrix-matrix kernel does
    parts += [f"numpy={np.__version__}", f"blas={_blas()}"]
    print("resolved config: " + " ".join(parts))


def _unwritable(*paths) -> bool:
    """Report, as an input error, the first output path that is a directory
    or lies in a missing one, before a run whose result it would lose."""
    for path in paths:
        missing = not os.path.isdir(os.path.dirname(path) or ".")
        if missing or os.path.isdir(path):
            why = "No such file or directory" if missing else "Is a directory"
            print(f"input error: {path}: {why}", file=sys.stderr)
            return True
    return False


def _cmd_solve(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if _unwritable(args.output, args.trace):
        return EXIT_INPUT
    if os.path.realpath(args.output) == os.path.realpath(args.trace):
        print(f"input error: --output and --trace both name {args.trace}, "
              "so the trace would overwrite the solution", file=sys.stderr)
        return EXIT_INPUT
    try:
        A = mgio.read_matrix(args.matrix)
        b = mgio.read_vector(args.vector)
        problem = L1LeastSquares(A, b, lam=args.lam, bucket=args.bucket)
        if args.x0 is not None:
            x0 = mgio.read_vector(args.x0)
        elif args.x0_seed is not None:
            if args.x0_seed < 0:
                raise ValueError(
                    f"--x0-seed must be nonnegative, got {args.x0_seed}")
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
    path = args.output
    try:
        if path.endswith(".mlv"):
            mgio.write_vector(path, sol.x)
        else:
            with open(path, "w") as fh:
                for value in sol.x:
                    fh.write(repr(float(value)) + "\n")
        path = args.trace
        mgio.write_trace_csv(sol.trace, path)
    except OSError as exc:  # a missing directory, no permission
        print(f"input error: {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"solver={args.solver} converged={sol.converged} "
          f"iterations={sol.iterations} F={sol.objective!r} "
          f"grad_map={sol.grad_map_norm:.3e} time_s={sol.elapsed_s:.3f}")
    print(f"solution written to {args.output}, trace to {args.trace}")
    return EXIT_OK if sol.converged else EXIT_UNCONVERGED


def _cmd_bench(args) -> int:
    if _unwritable(args.output):
        return EXIT_INPUT
    try:
        spec = mgio.parse_experiment_file(args.spec)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"spec {spec.spec_hash()}: " + " ".join(mgio.experiment_lines(spec)))
    for solver in spec.solvers:
        _print_config(spec.solver_config(solver), {"solver": solver})
    records = run_compare(spec)
    try:
        mgio.write_records_csv(records, args.output)
    except OSError as exc:
        print(f"input error: {args.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_INPUT
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
    start = p_solve.add_mutually_exclusive_group()
    start.add_argument("--x0", default=None, help="starting-point file")
    start.add_argument("--x0-seed", type=int, default=None,
                       help="seed for a random starting point")
    p_solve.add_argument("--output", default="solution.csv")
    p_solve.add_argument("--trace", default="trace.csv")
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark spec file")
    p_bench.add_argument("spec", help="key=value experiment spec file")
    p_bench.add_argument("--output", default="records.csv")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
