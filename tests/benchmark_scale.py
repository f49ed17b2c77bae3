"""Convergence at benchmark scale: ten m=2000, n=1024 bucket instances.

The file name keeps this module out of pytest's default collection: its
twenty solves took from 27 s to three minutes on a shared 2-core x86-64
machine, as long as the rest of the suite or longer.  Run it by naming
it:

    PYTHONPATH=src python -m pytest -q -s tests/benchmark_scale.py

It gates convergence of magma and of fista in both forms, the
library's, which restarts its momentum, and the textbook one without
restart (conftest.textbook_fista), on every seed; the fista/magma time
ratios it prints for each form are informational.  The desk-scale
speedup gate is criterion 8 in test_acceptance.py.
"""

import time

import numpy as np

from conftest import textbook_fista
from mgprox import ExperimentSpec, SolverConfig, build_chain, fista, gen_instance, magma


def test_bucket_m2000_convergence():
    ratios = {"textbook": [], "restarted": []}
    for seed in range(10):
        spec = ExperimentSpec(m=2000, n=1024, rho=0.9, k_true=20,
                              corruption=0.1, noise=0.001, seed=seed,
                              lam=1e-6)
        problem, _, _ = gen_instance(spec)
        x0 = np.zeros(problem.dim)
        chain = build_chain(problem.n_x, 6, bucket=True, m=problem.m)
        cfg_m = SolverConfig(eps=1e-6, max_iters=30000, kappa=0.8, levels=6,
                             mu=1e-6)
        magma(problem, chain, x0, SolverConfig(eps=1e-2, max_iters=30000,
                                               levels=6))  # warm-up
        sol_m = magma(problem, chain, x0, cfg_m)
        assert sol_m.converged
        line = (f"  seed {seed}: magma {sol_m.elapsed_s:.2f}s "
                f"({sol_m.iterations} it, {sol_m.step_counts['coarse']} "
                f"coarse)")
        start = time.perf_counter()
        _, iterations, converged = textbook_fista(problem, x0, 1e-6, 30000)
        elapsed_s = time.perf_counter() - start
        sol_f = fista(problem, x0, SolverConfig(eps=1e-6, max_iters=30000))
        assert converged and sol_f.converged
        for form, s, it in (("textbook", elapsed_s, iterations),
                            ("restarted", sol_f.elapsed_s, sol_f.iterations)):
            ratios[form].append(s / sol_m.elapsed_s)
            line += (f"; {form} fista {s:.2f}s ({it} it) = "
                     f"{ratios[form][-1]:.2f}x")
        print(line)
    for form, r in ratios.items():
        print(f"  median fista/magma time ratio, {form} fista: "
              f"{float(np.median(r)):.2f} (informational)")
