"""Convergence at benchmark scale: ten m=2000, n=1024 bucket instances.

The file name keeps this module out of pytest's default collection: its
twenty solves took from 27 s to three minutes on a shared 2-core x86-64
machine, as long as the rest of the suite or longer.  Run it by naming
it:

    PYTHONPATH=src python -m pytest -q -s tests/benchmark_scale.py

It gates convergence of magma and of fista in three forms on every
seed: the textbook one without restart (conftest.textbook_fista), the
Euclidean restarted one (conftest.euclidean_fista, the library's fista
before its prox steps moved to the problem's metric) and the library's,
which restarts and steps in the metric, as magma does.  It also gates
criterion 8's magma <= fista in fine products (those with B and B^T,
counted by conftest.CountingLasso) against the metric fista on every
seed, and prints both counts: 21-28 for magma (5-7 iterations, 2-3 of
them coarse) against 140-186 for fista (69-92 iterations).  The
fista/magma time ratios it prints for each form are informational.
Their medians read 124 (textbook), 15.8 (Euclidean restarted) and 5.25
(metric) on one BLAS thread of a shared 2-core x86-64 machine; the
metric fista's ranged from 3.92 to 7.19 by seed.  The desk-scale gate
is criterion 8 in test_acceptance.py.
"""

import time

import numpy as np

from conftest import CountingLasso, euclidean_fista, textbook_fista
from mgprox import ExperimentSpec, SolverConfig, build_chain, fista, gen_instance, magma


def test_bucket_m2000_convergence():
    ratios = {"textbook": [], "Euclidean restarted": [], "metric": []}
    for seed in range(10):
        spec = ExperimentSpec(m=2000, n=1024, rho=0.9, k_true=20,
                              corruption=0.1, noise=0.001, seed=seed,
                              lam=1e-6)
        base, _, _ = gen_instance(spec)
        problem = CountingLasso(base.A, base.b, base.lam, bucket=True)
        x0 = np.zeros(problem.dim)
        chain = build_chain(problem.n_x, 6, bucket=True, m=problem.m)
        cfg_m = SolverConfig(eps=1e-6, max_iters=30000, kappa=0.8, levels=6,
                             mu=1e-6)
        magma(problem, chain, x0, SolverConfig(eps=1e-2, max_iters=30000,
                                               levels=6))  # warm-up
        problem.calls = dict.fromkeys(problem.calls, 0)
        sol_m = magma(problem, chain, x0, cfg_m)
        products_m = sum(problem.calls.values())
        assert sol_m.converged
        line = (f"  seed {seed}: magma {sol_m.elapsed_s:.2f}s "
                f"({sol_m.iterations} it, {sol_m.step_counts['coarse']} "
                f"coarse, {products_m} products)")
        runs = []
        for form, reference in (("textbook", textbook_fista),
                                ("Euclidean restarted", euclidean_fista)):
            start = time.perf_counter()
            _, iterations, converged = reference(problem, x0, 1e-6, 30000)
            runs.append((form, time.perf_counter() - start, iterations))
            assert converged
        problem.calls = dict.fromkeys(problem.calls, 0)
        sol_f = fista(problem, x0, SolverConfig(eps=1e-6, max_iters=30000))
        products_f = sum(problem.calls.values())
        assert sol_f.converged
        runs.append(("metric", sol_f.elapsed_s, sol_f.iterations))
        for form, s, it in runs:
            ratios[form].append(s / sol_m.elapsed_s)
            line += (f"; {form} fista {s:.2f}s ({it} it) = "
                     f"{ratios[form][-1]:.2f}x")
        print(f"{line}; metric fista {products_f} products")
        assert products_m <= products_f, (seed, products_m, products_f)
    for form, r in ratios.items():
        print(f"  median fista/magma time ratio, {form} fista: "
              f"{float(np.median(r)):.2f} (informational)")
