"""Benchmark of the mgprox library: set-up time, time to eps, peak memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        runs one workload in this process and prints, as its last line, one
        JSON object with the keys correct, attempted, failed and metrics:
        the end-to-end metrics with --trace 0, the per-layer ones with 1.
    python3 perfbench/run.py [--seed N] [--seconds S]
        runs every workload, untraced and traced, each in a fresh process,
        and prints every metric by name with its unit.
    python3 perfbench/run.py --write-spec
        writes BENCHMARK.json from the workloads and metrics in spec.py.

Run it from the root of a source tree: it imports mgprox from ./src and
exits with a non-zero status when that is missing.  BLAS is pinned to one
thread.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Must be set before numpy loads its BLAS.  Two threads on a shared
# 2-core machine spread solve times across processes about twice as much
# as one thread does.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

import spec  # noqa: E402  (after the BLAS settings)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "mgprox", "__init__.py")):
        sys.exit(f"error: no mgprox sources under {SRC}; run from a "
                 "source tree")
    sys.path.insert(0, SRC)
    import mgprox
    if not os.path.abspath(mgprox.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: mgprox was imported from {mgprox.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def run_one(args) -> int:
    _import_library()
    import bench
    workload = spec.WORKLOADS[args.workload]
    print("env", json.dumps(environment()), flush=True)
    result, notes = bench.run(workload, args.seed, args.seconds,
                              bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(f"{args.workload} operations: {result['attempted']} attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    if not os.path.isdir(os.path.join(SRC, "mgprox")):
        sys.exit(f"error: no mgprox sources under {SRC}")
    ok = True
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            print(f"== {name} ({'traced' if trace else 'timed'}): "
                  f"{result['attempted']} operations attempted, "
                  f"{result['failed']} failed, correct={result['correct']}")
            if not trace:
                print("   " + lines[0])
            for metric, m in result["metrics"].items():
                print(f"   {metric:48s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
