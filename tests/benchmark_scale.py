"""Convergence at benchmark scale: ten m=2000, n=1024 bucket instances.

The file name keeps this module out of pytest's default collection: its
twenty solves took from 27 s to three minutes on a shared 2-core x86-64
machine, as long as the rest of the suite or longer.  Run it by naming
it:

    PYTHONPATH=src python -m pytest -q -s tests/benchmark_scale.py

It gates convergence of both solvers on every seed; the fista/magma
time ratios it prints are informational.  The desk-scale speedup gate is
criterion 8 in test_acceptance.py.
"""

import numpy as np

from mgprox import ExperimentSpec, SolverConfig, build_chain, fista, gen_instance, magma


def test_bucket_m2000_convergence():
    ratios = []
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
        sol_f = fista(problem, x0, SolverConfig(eps=1e-6, max_iters=30000))
        assert sol_f.converged and sol_m.converged
        ratios.append(sol_f.elapsed_s / sol_m.elapsed_s)
        print(f"  seed {seed}: fista {sol_f.elapsed_s:.2f}s "
              f"({sol_f.iterations} it) / magma {sol_m.elapsed_s:.2f}s "
              f"({sol_m.iterations} it, {sol_m.step_counts['coarse']} coarse) "
              f"= {ratios[-1]:.2f}")
    print(f"  median fista/magma time ratio: {float(np.median(ratios)):.2f} "
          f"(informational)")
