"""Built-in invariant suites for the `check` subcommand.

Each suite exercises one of the library's lemma-level guarantees on
small fixed-seed instances and reports pass/fail with a detail string.
These are runtime smoke checks; the full test suite lives in tests/.
"""

import numpy as np

from .harness import ExperimentSpec, gen_instance, subgradient_residual
from .multilevel import build_chain, build_coarse_model
from .problem import (L1LeastSquares, SmoothedView, mirror_step, prog,
                      prox_step, soft_threshold)
from .solvers import SolverConfig, fista, magma

__all__ = ["SUITES", "run_suites"]


def _small_instances(count, rng, bucket=False):
    out = []
    for i in range(count):
        m = int(rng.integers(6, 20))
        n = int(rng.integers(4, 16))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        lam = float(rng.uniform(0.01, 1.0))
        out.append(L1LeastSquares(A, b, lam, bucket=bucket))
    return out


def check_coherence():
    """grad F_H(R x) must equal R grad F_mu(x) at the anchor."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(40):
        bucket = bool(i % 2)
        problem = _small_instances(1, rng, bucket=bucket)[0]
        levels = int(rng.integers(2, 4))
        chain = build_chain(problem.n_x, levels, bucket=bucket, m=problem.m)
        x = rng.standard_normal(problem.dim)
        mu = float(rng.uniform(1e-3, 1e-1))
        model = build_coarse_model(problem, chain, x, mu)
        lhs = model.grad(model.anchor)
        rhs = chain.restrict(SmoothedView(problem, mu).grad(x))
        resid = np.linalg.norm(lhs - rhs)
        tol = 1e-10 * (1.0 + np.linalg.norm(rhs))
        worst = max(worst, resid / tol)
    ok = worst <= 1.0
    return ok, f"max coherence residual {worst:.3g}x tolerance"


def check_guarantees():
    """Gradient-descent and mirror-descent guarantee inequalities."""
    rng = np.random.default_rng(12)
    worst = np.inf
    for problem in _small_instances(60, rng):
        L = problem.L_f
        x = rng.standard_normal(problem.dim) * rng.uniform(0.2, 2.0)
        u = rng.standard_normal(problem.dim) * rng.uniform(0.2, 2.0)
        # F(prox(x)) <= F(x) - Prog(x)
        y = prox_step(problem, x, L)
        worst = min(worst, problem.value(x) - prog(problem, x, L)
                    - problem.value(y))
        # mirror descent guarantee with alpha <= 1/L
        alpha = float(rng.uniform(0.05, 1.0)) / L
        xp = mirror_step(problem, x, problem.f_grad(x), alpha)
        lhs = alpha * (problem.value(x) - problem.value(u))
        # Euclidean Bregman terms V_x(u) - V_xp(u)
        d, dp = x - u, xp - u
        rhs = alpha ** 2 * L * prog(problem, x, L) \
            + 0.5 * float(d @ d) - 0.5 * float(dp @ dp)
        worst = min(worst, rhs - lhs)
    ok = worst >= -1e-8
    return ok, f"min guarantee slack {worst:.3g}"


def check_smoothing():
    """Sandwich bounds g <= g_mu <= g + lam*dim*mu and the fd gradient."""
    rng = np.random.default_rng(13)
    worst_low, worst_high, worst_fd = np.inf, np.inf, 0.0
    for problem in _small_instances(40, rng):
        mu = float(rng.uniform(1e-3, 0.3))
        view = SmoothedView(problem, mu)
        x = rng.standard_normal(problem.dim) * rng.uniform(0.2, 3.0)
        gap = view.g_value(x) - problem.g_value(x)
        worst_low = min(worst_low, gap)
        worst_high = min(worst_high, problem.lam * problem.dim * mu - gap)
        g = view.grad(x)
        h = 1e-6
        fd = np.array([(view.value(x + h * e) - view.value(x - h * e)) / (2 * h)
                       for e in np.eye(problem.dim)])
        err = np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g)))
        worst_fd = max(worst_fd, err)
    ok = worst_low >= -1e-12 and worst_high >= -1e-12 and worst_fd <= 1e-4
    return ok, (f"sandwich slacks {worst_low:.2g}/{worst_high:.2g}, "
                f"fd error {worst_fd:.2g}")


def check_prox():
    """Shrinkage nonexpansiveness and the 1-D closed form."""
    rng = np.random.default_rng(14)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 30))
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        t = float(rng.uniform(0.01, 2.0))
        if np.linalg.norm(soft_threshold(u, t) - soft_threshold(v, t)) \
                > np.linalg.norm(u - v) + 1e-12:
            ok = False
    one_d = L1LeastSquares(np.array([[1.0]]), np.array([2.0]), 1.0)
    x_star = prox_step(one_d, np.zeros(1), 1.0)
    ok = ok and abs(x_star[0] - 1.0) < 1e-12
    return ok, "shrinkage nonexpansive, 1-D fixed point exact"


def check_descent():
    """Descent-direction inequality at every executed coarse step."""
    spec = ExperimentSpec(m=120, n=64, rho=0.9, k_true=4, corruption=0.2,
                          noise=0.01, seed=5)
    problem, _, _ = gen_instance(spec)
    chain = build_chain(problem.n_x, 2, bucket=True, m=problem.m)
    cfg = SolverConfig(eps=1e-8, max_iters=80, kappa=0.7, levels=2)
    rng = np.random.default_rng(15)
    events = 0
    worst = np.inf
    for _ in range(4):
        sol = magma(problem, chain, rng.standard_normal(problem.dim), cfg)
        for ev in sol.coarse_events:
            events += 1
            bound = -cfg.kappa ** 2 / (2 * ev.L_H) * ev.grad_mu_norm ** 2
            worst = min(worst, bound + 1e-9 - ev.slope)
    ok = events > 0 and worst > 0
    return ok, f"{events} coarse steps, min descent margin {worst:.3g}"


def check_bookkeeping():
    """Telescoping identity and t in (0, 1] from recorded traces."""
    spec = ExperimentSpec(m=80, n=48, rho=0.8, k_true=4, corruption=0.2,
                          noise=0.01, seed=6)
    problem, _, _ = gen_instance(spec)
    chain = build_chain(problem.n_x, 2, bucket=True, m=problem.m)
    cfg = SolverConfig(eps=1e-10, max_iters=60, kappa=0.7)
    sol = magma(problem, chain, np.zeros(problem.dim), cfg)
    worst = 0.0
    prev = None
    for row in sol.trace:
        if prev is not None:
            resid = row.alpha ** 2 * row.eta - row.alpha \
                + 1.0 / (4.0 * row.eta) - prev
            worst = max(worst, abs(resid) / max(1.0, abs(prev)))
            if not 0.0 < row.t <= 1.0:
                return False, f"t out of range at k={row.k}: {row.t}"
        prev = row.alpha ** 2 * row.eta
    ok = worst <= 1e-9
    return ok, f"max telescoping residual {worst:.3g} over {len(sol.trace)} rows"


def check_oracle():
    """Cross-check the gradient-mapping stop against the subgradient oracle."""
    rng = np.random.default_rng(16)
    worst = 0.0
    for seed in range(3):
        spec = ExperimentSpec(m=40, n=8, rho=0.3, k_true=2, noise=0.05,
                              seed=seed, lam=0.05)
        problem, _, _ = gen_instance(spec)
        cfg = SolverConfig(eps=1e-8, max_iters=4000)
        sol = fista(problem, rng.standard_normal(problem.dim), cfg)
        if not sol.converged:
            return False, f"reference solve failed on seed {seed}"
        worst = max(worst, subgradient_residual(problem, sol.x) / cfg.eps)
    ok = worst <= 10.0
    return ok, f"max residual {worst:.3g} eps"


SUITES = {
    "coherence": check_coherence,
    "guarantees": check_guarantees,
    "smoothing": check_smoothing,
    "prox": check_prox,
    "descent": check_descent,
    "bookkeeping": check_bookkeeping,
    "oracle": check_oracle,
}


def run_suites(names=None):
    """Run the named suites (all by default); returns {name: (ok, detail)}.

    A suite that raises fails with the exception's type and message as
    its detail, and the remaining suites still run: the solvers' live
    invariant checks raise InvariantViolation before a suite can report.
    """
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; have {sorted(SUITES)}")
    results = {}
    for name in names:
        try:
            results[name] = SUITES[name]()
        except Exception as exc:
            results[name] = (False, f"{type(exc).__name__}: {exc}")
    return results
