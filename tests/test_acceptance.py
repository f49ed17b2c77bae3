"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Large-scale wall-clock results from the motivating application are not
reproducible at desk scale; these checks pin the lemma-level guarantees
and scaled-down behavior instead.  Shared solver runs live in module
fixtures so the bookkeeping criterion can audit every trace produced.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from mgprox import (
    ExperimentSpec,
    L1LeastSquares,
    SmoothedView,
    SolverConfig,
    agm,
    build_chain,
    build_coarse_model,
    fista,
    gen_instance,
    ista,
    magma,
    mirror_step,
    prog,
    prox_step,
    soft_threshold,
    subgradient_residual,
)
from conftest import CountingLasso, textbook_fista


def report(criterion, name, detail=""):
    print(f"ACCEPTANCE {criterion} ({name}): PASS {detail}")


def small_instance(rng, bucket):
    m = int(rng.integers(6, 18))
    n = int(rng.integers(4, 14))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    lam = float(rng.uniform(0.01, 1.0))
    return L1LeastSquares(A, b, lam, bucket=bucket)


# ---------------------------------------------------------------------------
# Shared desk-scale runs (consumed by criteria 2, 4, 5, 7).


@pytest.fixture(scope="module")
def descent_runs():
    """20 bucket MAGMA runs at m=400, n=256, rho=0.9."""
    runs = []
    cfg = SolverConfig(eps=1e-6, max_iters=250, kappa=0.7, levels=3, mu=1e-6)
    for inst_seed in range(5):
        spec = ExperimentSpec(m=400, n=256, rho=0.9, k_true=8,
                              corruption=0.2, noise=0.01, seed=inst_seed)
        problem, _, _ = gen_instance(spec)
        chain = build_chain(problem.n_x, cfg.levels, bucket=True, m=problem.m)
        rng = np.random.default_rng(500 + inst_seed)
        for _ in range(4):
            x0 = rng.standard_normal(problem.dim)
            runs.append((cfg, magma(problem, chain, x0, cfg)))
    return runs


@pytest.fixture(scope="module")
def rate_runs():
    """10 instances at m=200, n=128 with 1e-12 reference objectives."""
    t0 = time.perf_counter()
    out = []
    for seed in range(10):
        bucket = seed >= 5
        spec = ExperimentSpec(
            m=200, n=128, rho=0.5, k_true=8,
            corruption=0.15 if bucket else 0.0,
            noise=0.005, seed=seed, lam=1e-2 if bucket else 1e-4)
        problem, _, _ = gen_instance(spec)
        ref = fista(problem, np.zeros(problem.dim),
                    SolverConfig(eps=1e-12, max_iters=80000))
        assert ref.converged, f"reference run failed on seed {seed}"
        x0 = np.random.default_rng(1000 + seed).standard_normal(problem.dim)
        theta = 0.5 * float(np.sum((x0 - ref.x) ** 2))
        chain = build_chain(problem.n_x, 2, bucket=bucket, m=problem.m)
        cfg = SolverConfig(eps=1e-13, max_iters=250, kappa=0.7, levels=2)
        sol_m = magma(problem, chain, x0, cfg)
        sol_a = agm(problem, x0, SolverConfig(eps=1e-13, max_iters=250))
        out.append(dict(problem=problem, F_star=ref.objective, theta=theta,
                        magma=sol_m, agm=sol_a))
    return dict(cases=out, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def degenerate_runs():
    """5 instances: magma with levels=1, kappa=1 next to agm."""
    out = []
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        A = rng.standard_normal((60, 40))
        b = rng.standard_normal(60)
        problem = L1LeastSquares(A, b, 0.05)
        x0 = rng.standard_normal(40)
        cfg = SolverConfig(eps=1e-9, max_iters=120, kappa=1.0, levels=1)
        chain = build_chain(problem.n_x, 1)
        out.append((magma(problem, chain, x0, cfg), agm(problem, x0, cfg)))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_coherence_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for i in range(100):
        bucket = bool(i % 2)
        problem = small_instance(rng, bucket)
        levels = int(rng.integers(2, 4))
        if 2 ** (levels - 1) > problem.n_x:
            levels = 2
        chain = build_chain(problem.n_x, levels, bucket=bucket, m=problem.m)
        x = rng.standard_normal(problem.dim) * rng.uniform(0.2, 3.0)
        mu = float(rng.uniform(1e-3, 0.2))
        model = build_coarse_model(problem, chain, x, mu)
        rhs = chain.restrict(SmoothedView(problem, mu).grad(x))
        resid = float(np.linalg.norm(model.grad(model.start) - rhs))
        assert resid <= 1e-10 * (1.0 + float(np.linalg.norm(rhs)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "coherence suite", f"[100 pairs in {elapsed:.2f}s]")


def test_criterion_2_descent_direction_suite(descent_runs):
    total_events = 0
    for cfg, sol in descent_runs:
        for ev in sol.coarse_events:
            total_events += 1
            bound = -cfg.kappa ** 2 / (2.0 * ev.L_H) * ev.grad_mu_norm ** 2
            assert ev.slope < bound + 1e-9
    assert total_events > 0, "no coarse steps executed; suite is vacuous"
    report(2, "descent-direction suite",
           f"[{total_events} coarse steps across {len(descent_runs)} runs]")


def test_criterion_3_guarantee_lemmas():
    rng = np.random.default_rng(103)
    worst_gd, worst_md = np.inf, np.inf
    for i in range(200):
        p = small_instance(rng, bool(i % 2))
        x = rng.standard_normal(p.dim) * rng.uniform(0.2, 3.0)
        y = prox_step(p, x, p.L_f)
        worst_gd = min(worst_gd,
                       p.value(x) - prog(p, x, p.L_f) - p.value(y))
    for i in range(200):
        p = small_instance(rng, bool(i % 2))
        L = p.L_f
        x = rng.standard_normal(p.dim) * rng.uniform(0.2, 3.0)
        u = rng.standard_normal(p.dim) * rng.uniform(0.2, 3.0)
        alpha = float(rng.uniform(0.02, 1.0)) / L
        xp = mirror_step(p, x, p.f_grad(x), alpha)
        lhs = alpha * (p.value(x) - p.value(u))
        # Euclidean Bregman terms V_x(u) - V_xp(u)
        rhs = alpha ** 2 * L * prog(p, x, L) \
            + 0.5 * np.sum((x - u) ** 2) - 0.5 * np.sum((xp - u) ** 2)
        worst_md = min(worst_md, rhs - lhs)
    assert worst_gd >= -1e-8
    assert worst_md >= -1e-8
    report(3, "guarantee lemmas",
           f"[min slacks gd={worst_gd:.2g} mirror={worst_md:.2g}]")


def test_criterion_4_rate_bounds(rate_runs):
    t0 = time.perf_counter()
    zeta = 1.0
    coarse_total = 0
    for case in rate_runs["cases"]:
        L = case["problem"].L_f
        F_star, theta = case["F_star"], case["theta"]
        coarse_total += case["magma"].step_counts["coarse"]
        for row in case["magma"].trace:
            T = row.k + 1
            if T >= 2:
                bound = 4.0 * L * (theta + zeta) / (T + 1) ** 2
                assert row.F - F_star <= bound
        for row in case["agm"].trace:
            T = row.k + 1
            bound = 4.0 * theta * L / T ** 2
            assert row.F - F_star <= bound
    elapsed = rate_runs["elapsed"] + time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, "rate bounds",
           f"[10 instances, {coarse_total} coarse steps, {elapsed:.1f}s total]")


def test_criterion_5_bookkeeping_invariants(descent_runs, rate_runs,
                                            degenerate_runs):
    solutions = [sol for _, sol in descent_runs]
    solutions += [c["magma"] for c in rate_runs["cases"]]
    solutions += [c["agm"] for c in rate_runs["cases"]]
    solutions += [s for pair in degenerate_runs for s in pair]
    rows_checked = 0
    for sol in solutions:
        prev = None
        for row in sol.trace:
            if prev is not None:
                resid = row.alpha ** 2 * row.eta - row.alpha \
                    + 1.0 / (4.0 * row.eta) - prev
                assert abs(resid) <= 1e-9 * max(1.0, abs(prev))
                assert 0.0 < row.t <= 1.0
                rows_checked += 1
            prev = row.alpha ** 2 * row.eta
    assert rows_checked > 0
    report(5, "bookkeeping invariants",
           f"[{rows_checked} iterations across {len(solutions)} runs]")


def test_criterion_6_oracle_equivalence():
    # converged runs on instances with L_f <= 10 (the gradient mapping is
    # 1/L_f-scaled, so the 10*eps bound presumes moderate L_f)
    rng = np.random.default_rng(106)
    checked = 0
    for eps, seed in itertools.product((1e-6, 1e-8), range(5)):
        spec = ExperimentSpec(m=40, n=8, rho=0.3, k_true=2, noise=0.05,
                              seed=seed, lam=0.05)
        problem, _, _ = gen_instance(spec)
        assert problem.L_f <= 10.0
        chain = build_chain(problem.n_x, 2)
        cfg = SolverConfig(eps=eps, max_iters=30000, kappa=0.6, levels=2)
        x0 = rng.standard_normal(problem.dim)
        for solver in (ista, fista, agm):
            sol = solver(problem, x0, cfg)
            assert sol.converged
            assert subgradient_residual(problem, sol.x) <= 10.0 * eps
            checked += 1
        sol = magma(problem, chain, x0, cfg)
        assert sol.converged
        assert subgradient_residual(problem, sol.x) <= 10.0 * eps
        checked += 1

    # closed-form soft-threshold solutions on 1-D and 2-D instances
    tight = SolverConfig(eps=1e-10, max_iters=50000)
    one_d = L1LeastSquares(np.array([[2.0]]), np.array([3.0]), 0.5)
    x_star_1 = soft_threshold(np.array([2.0 * 3.0]), 0.5) / 4.0
    a = np.array([1.5, 0.7])
    bvec = np.array([2.0, -1.0])
    two_d = L1LeastSquares(np.diag(a), bvec, 0.3)
    x_star_2 = soft_threshold(a * bvec, 0.3) / a ** 2
    for problem, x_star, levels in ((one_d, x_star_1, 1), (two_d, x_star_2, 2)):
        for solver in (ista, fista, agm):
            sol = solver(problem, np.zeros(problem.dim), tight)
            assert np.max(np.abs(sol.x - x_star)) <= 1e-8
        chain = build_chain(problem.n_x, levels)
        sol = magma(problem, chain, np.zeros(problem.dim),
                    dataclasses.replace(tight, levels=levels))
        assert np.max(np.abs(sol.x - x_star)) <= 1e-8
    report(6, "oracle equivalence", f"[{checked} converged runs, closed forms]")


def test_criterion_7_degenerate_reduction(degenerate_runs):
    worst = 0.0
    for sol_m, sol_a in degenerate_runs:
        Fm = np.array([row.F for row in sol_m.trace])
        Fa = np.array([row.F for row in sol_a.trace])
        assert len(Fm) == len(Fa)
        assert sol_m.step_counts["coarse"] == 0
        worst = max(worst, float(np.max(np.abs(Fm - Fa))))
    assert worst <= 1e-10
    report(7, "degenerate reduction", f"[max objective deviation {worst:.2g}]")


@pytest.fixture(scope="module")
def eps_stop_products():
    """Fine products with B and B^T to the eps stop, by seed, of textbook
    fista (conftest.textbook_fista, without restart), the library's
    fista, which restarts, and magma on ten desk-scale bucket instances
    of the benchmark's family (m=400, n=256).  Every solve must
    converge."""
    cfg_m = SolverConfig(eps=1e-6, max_iters=30000, kappa=0.8, levels=3,
                         mu=1e-6)
    cfg_r = SolverConfig(eps=1e-6, max_iters=30000)
    runs = []
    for seed in range(10):
        spec = ExperimentSpec(m=400, n=256, rho=0.9, k_true=20,
                              corruption=0.1, noise=1e-3, seed=seed,
                              lam=1e-6)
        base, _, _ = gen_instance(spec)
        problem = CountingLasso(base.A, base.b, base.lam, bucket=True)
        chain = build_chain(problem.n_x, cfg_m.levels, bucket=True,
                            m=problem.m)
        x0 = np.zeros(problem.dim)
        products = {}
        for name, run in (
                ("textbook fista",
                 lambda: textbook_fista(problem, x0, cfg_r.eps,
                                        cfg_r.max_iters)[2]),
                ("restarted fista",
                 lambda: fista(problem, x0, cfg_r).converged),
                ("magma",
                 lambda: magma(problem, chain, x0, cfg_m).converged)):
            problem.calls = dict.fromkeys(problem.calls, 0)
            assert run(), f"{name} did not converge on seed {seed}"
            products[name] = sum(problem.calls.values())
        runs.append((seed, products))
    return runs


def test_criterion_8_qualitative_speedup(eps_stop_products):
    """magma reaches eps in at most half of textbook fista's fine products.

    The baseline is Beck & Teboulle's fista, without restart, as in the
    paper's comparison; the report adds the library's restarted fista's
    products over magma's as information only.  This gates the
    time-to-eps phase only: at lam=1e-6 the ||D(x)|| < eps stop fires
    well before the optimum.  Only products with B and B^T on the fine
    level are counted, not magma's coarse products with A_H.  The
    benchmark-scale check (m=2000, n=1024) is in
    tests/benchmark_scale.py, which runs only when named.
    """
    ratios, restarted = [], []
    for seed, products in eps_stop_products:
        assert products["magma"] <= 0.5 * products["textbook fista"], \
            (seed, products)
        ratios.append(products["textbook fista"] / products["magma"])
        restarted.append(products["restarted fista"] / products["magma"])
    report(8, "qualitative speedup",
           f"[fista/magma fine products {min(ratios):.1f}-{max(ratios):.1f}; "
           f"restarted fista/magma {min(restarted):.2f}-"
           f"{max(restarted):.2f}, informational]")


def test_restart_cuts_fista_products(eps_stop_products):
    """On criterion 8's instances, restarted fista reaches eps in fewer
    fine products than textbook fista."""
    for seed, products in eps_stop_products:
        assert products["restarted fista"] < products["textbook fista"], \
            (seed, products)


def test_criterion_9_smoothing_suite():
    rng = np.random.default_rng(109)
    for i in range(200):
        p = small_instance(rng, bool(i % 2))
        mu = float(rng.uniform(1e-4, 0.5))
        view = SmoothedView(p, mu)
        x = rng.standard_normal(p.dim) * rng.uniform(0.1, 4.0)
        gap = view.g_value(x) - p.g_value(x)
        assert gap >= -1e-12
        assert gap <= p.lam * p.dim * mu + 1e-12
        u = rng.standard_normal(p.dim) * 2.0
        v = rng.standard_normal(p.dim) * 2.0
        lhs = float(np.linalg.norm(view.g_grad(u) - view.g_grad(v)))
        assert lhs <= (p.lam / mu) * float(np.linalg.norm(u - v)) * (1 + 1e-10)
    report(9, "smoothing suite", "[200 points, sandwich and lam/mu Lipschitz]")
