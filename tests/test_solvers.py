import collections
import dataclasses
import math
from unittest.mock import Mock

import numpy as np
import pytest

from mgprox import (
    ExperimentSpec,
    L1LeastSquares,
    LineSearchError,
    MagmaState,
    REJECTION_REASONS,
    RestrictionChain,
    SmoothedView,
    SolverConfig,
    agm,
    armijo_search,
    build_chain,
    build_coarse_model,
    coarse_condition,
    fista,
    gen_correlated_dictionary,
    gen_instance,
    gradient_mapping,
    ista,
    magma,
    metric_inner,
    metric_prox_step,
    mfista,
    prox_step,
    run_solver,
    update_eta_alpha,
)
from mgprox import multilevel, solvers
from conftest import (CountingLasso, dense_restriction, one_d_lasso,
                      random_lasso)


class QuadObjective:
    """Smooth test objective 0.5 x^T H x - c^T x for mfista.  Its point is
    [x, H x - c]: x and the gradient, which is affine in x."""

    def __init__(self, H, c):
        self.H, self.c = H, c
        self.dim = c.shape[0]
        self.L = float(np.linalg.eigvalsh(H)[-1])

    def lift(self, x):
        return np.concatenate([x, self.H @ x - self.c])

    def value(self, p):
        x, a = p[:self.dim], p[self.dim:]
        return 0.5 * float(x @ (a - self.c))

    def grad(self, p):
        return p[self.dim:]


def assert_telescoping(trace, L_f):
    """t in (0, 1] on every row, and the eta/alpha telescoping identity on
    every row but the seed rows, where eta = L_f and alpha = 1/L_f: the
    first row, and the first after each restart, where the chain starts
    again.  The run must have restarted."""
    seed = (L_f, 1 / L_f)
    assert (trace[0].eta, trace[0].alpha) == seed
    restarts = 0
    for prev, row in zip(trace, trace[1:]):
        assert 0 < row.t <= 1.0
        if (row.eta, row.alpha) == seed:
            restarts += 1
            continue
        prev_sum = prev.alpha ** 2 * prev.eta
        resid = row.alpha ** 2 * row.eta - row.alpha \
            + 1 / (4 * row.eta) - prev_sum
        assert abs(resid) <= 1e-9 * max(1.0, prev_sum)
    assert restarts > 0


def count_calls(monkeypatch, counts):
    """Wrap each function of ``solvers`` named by a key of ``counts`` so
    that it counts its calls there."""
    for name in counts:
        real = getattr(solvers, name)

        def wrapper(*args, real=real, name=name):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(solvers, name, wrapper)


def spy_prox_steps(monkeypatch, see):
    """Call see(x, g) with copies of the point and gradient of every prox
    step a solver takes, in the metric (its steps) or at L_f (its
    stopping tests), in the order taken."""
    for name in ("prox_step", "metric_prox_step"):
        real = getattr(solvers, name)

        def spy(problem, x, *args, real=real):
            see(x.copy(), args[-1].copy())
            return real(problem, x, *args)
        monkeypatch.setattr(solvers, name, spy)


Pass = collections.namedtuple("Pass", "y z t F")


def record_passes(monkeypatch, p):
    """Record every pass over A (``residuals_and_gradient``) of a solve on
    p: its points y and z (None in a one-point pass), its weight t, and
    F(y) from the pass's residual, which is the value agm and magma take
    for the y_{k+1} of the row the pass ends."""
    passes = []
    real = p.residuals_and_gradient

    def record(y, z=None, t=1.0):
        out = real(y, z, t)
        passes.append(Pass(y.copy(), None if z is None else z.copy(), t,
                           p.value(y, out[0])))
        return out

    monkeypatch.setattr(p, "residuals_and_gradient", record)
    return passes


def discarded_rows(trace, passes):
    """The rows of an agm or magma trace whose function restart discarded
    y_{k+1}: pass k + 1 evaluates F(y_{k+1}), and row k logs that F
    unless it keeps y_k, whose F is lower."""
    return [k for k, row in enumerate(trace) if row.F != passes[k + 1].F]


def row_points(trace, passes):
    """(y_k, z_k) of each row k of an agm or magma trace: the points of
    pass k, or (y_{k-1}, y_{k-1}) after a row that discarded its step."""
    discarded = set(discarded_rows(trace, passes))
    points = [(passes[0].y, passes[0].y)]
    for k in range(len(trace) - 1):
        y = points[-1][0]
        points.append((y, y) if k in discarded
                      else (passes[k + 1].y, passes[k + 1].z))
    return points


def bucket_instance(seed=3, m=120, n=64, lam=1e-4):
    spec = ExperimentSpec(m=m, n=n, rho=0.9, k_true=4, corruption=0.2,
                          noise=0.01, seed=seed, lam=lam)
    problem, _, _ = gen_instance(spec)
    return problem


class TestSolverConfig:
    def test_defaults_valid(self):
        SolverConfig()

    # each case keeps the id it had when the config also held magma's
    # constants; bad4-bad7, whose fields became constants, now name
    # negative and NaN values of the fields left
    BAD_VALUES = {
        "bad0": dict(eps=0.0), "bad1": dict(max_iters=0),
        "bad2": dict(kappa=0.0), "bad3": dict(kappa=2.0),
        "bad4": dict(eps=-1.0), "bad5": dict(max_iters=-1),
        "bad6": dict(kappa=math.nan), "bad7": dict(levels=-1),
        "bad9": dict(mu=0.0), "bad12": dict(levels=0),
        "bad13": dict(eps=math.inf), "bad15": dict(mu=math.inf),
    }

    @pytest.mark.parametrize("bad", list(BAD_VALUES.values()),
                             ids=list(BAD_VALUES))
    def test_bad_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
        SolverConfig) if f.type is int])
    @pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
    def test_non_integer_int_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolverConfig(**{name: value})

    def test_numpy_integer_fields_accepted(self):
        cfg = SolverConfig(max_iters=np.int64(50), levels=np.int32(2))
        assert cfg.max_iters == 50 and cfg.levels == 2

    def test_kappa_one_is_degenerate_but_legal(self):
        SolverConfig(kappa=1.0)


class TestIsta:
    def test_fixed_point_returns_immediately(self):
        p = one_d_lasso()
        sol = ista(p, np.ones(1), SolverConfig(eps=1e-8))
        assert sol.converged and sol.iterations == 0
        assert np.allclose(sol.x, [1.0])

    def test_one_step_reaches_1d_solution(self):
        # from 0 one shrinkage step lands exactly on x* = 1
        p = one_d_lasso()
        sol = ista(p, np.zeros(1), SolverConfig(eps=1e-12, max_iters=50))
        assert sol.converged
        assert np.allclose(sol.x, [1.0], atol=1e-10)

    def test_monotone_objective(self, rng):
        p = random_lasso(rng, m=15, n=10)
        sol = ista(p, rng.standard_normal(p.dim) * 2,
                   SolverConfig(eps=1e-10, max_iters=500))
        F = [row.F for row in sol.trace]
        assert all(F[i + 1] <= F[i] + 1e-12 for i in range(len(F) - 1))

    def test_budget_exhaustion_flagged(self, rng):
        p = random_lasso(rng, m=15, n=10)
        sol = ista(p, rng.standard_normal(p.dim) * 5,
                   SolverConfig(eps=1e-14, max_iters=3))
        assert not sol.converged
        assert sol.iterations == 3

    @pytest.mark.parametrize("bucket", [False, True])
    def test_lipschitz_constant_checked(self, bucket):
        # as in fista, with L_f at half its value the prox steps overshoot
        # along the top singular direction and the descent lemma fails.
        # ista's monotone steps may also settle where no step breaks the
        # lemma, and then run out their budget unconverged (the check
        # certifies only the steps taken)
        raised = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = random_lasso(rng, m=60, n=40, lam=0.1, bucket=bucket)
            cfg = SolverConfig()
            ista(p, np.zeros(p.dim), cfg)
            p.L_f *= 0.5
            try:
                assert not ista(p, np.zeros(p.dim), cfg).converged
            except solvers.InvariantViolation as exc:
                assert "fails the descent lemma" in str(exc)
                raised += 1
        assert raised >= 1

    @pytest.mark.parametrize("bucket", [False, True])
    def test_metric_checked(self, bucket):
        # as with L_f at half its value, the steps in V with a at half of
        # lambda_2 break the descent lemma on most instances.  ista's
        # monotone steps may also settle where no step breaks it (2 of the
        # 5 plain instances); an answer is then converged only by the
        # Euclidean stopping test, which does not depend on a
        raised = 0
        for p in halved_metric_instances(bucket):
            try:
                sol = ista(p, np.zeros(p.dim), SolverConfig())
            except solvers.InvariantViolation as exc:
                assert "fails the descent lemma" in str(exc)
                raised += 1
            else:
                assert sol.converged == (
                    np.linalg.norm(gradient_mapping(p, sol.x)) < 1e-6)
        assert raised >= 3


def halved_metric_instances(bucket):
    """Five spiked 60x40 problems, each after one fista solve at its own
    metric, with a then set to half of lambda_2(B^T B)."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p = L1LeastSquares(gen_correlated_dictionary(60, 40, 0.9, rng),
                           rng.standard_normal(60), 0.1, bucket=bucket)
        assert p.a < p.L_f
        assert fista(p, np.zeros(p.dim), SolverConfig()).converged
        B = np.hstack([p.A, np.eye(p.m)]) if bucket else p.A
        p.a = 0.5 * np.linalg.eigvalsh(B.T @ B)[-2]
        yield p


class TestFista:
    @pytest.mark.parametrize("bucket", [False, True])
    def test_metric_checked(self, bucket):
        # with a at half of lambda_2, V no longer bounds B^T B off the top
        # eigenvector: the prox steps overshoot there, and the descent
        # lemma in the V-norm fails
        for p in halved_metric_instances(bucket):
            with pytest.raises(solvers.InvariantViolation,
                               match="fails the descent lemma"):
                fista(p, np.zeros(p.dim), SolverConfig())

    def test_momentum_matches_textbook_reference(self, rng):
        # smooth case; 15-line reference with the textbook t-sequence,
        # which the gradient test resets to t = 1
        p = random_lasso(rng, m=12, n=8, lam=0.0)
        L = p.L_f
        x0 = rng.standard_normal(8)
        sol = fista(p, x0, SolverConfig(eps=0.5e-15, max_iters=40))

        xs = []
        restarts = 0
        x_prev, y, t = x0, x0, 1.0
        for _ in range(40):
            x = y - p.f_grad(y) / L
            xs.append(x)
            if (y - x) @ (x - x_prev) > 0:
                t, restarts = 1.0, restarts + 1
            t_next = 0.5 * (1 + math.sqrt(1 + 4 * t * t))
            y = x + ((t - 1) / t_next) * (x - x_prev)
            x_prev, t = x, t_next

        got = [row.F for row in sol.trace]
        want = [p.value(x) for x in xs]
        assert restarts > 0
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_t_sequence_start(self):
        t1 = 1.0
        t2 = 0.5 * (1 + math.sqrt(1 + 4 * t1 ** 2))
        assert t2 == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_rate_bound_random_lasso(self, rng):
        # F(x_k) - F* <= 2 L ||x0 - x*||^2 / (k+1)^2 for all logged k
        A = rng.standard_normal((50, 100))
        b = rng.standard_normal(50)
        p = L1LeastSquares(A, b, 0.05)
        ref = fista(p, np.zeros(100), SolverConfig(eps=1e-12, max_iters=50000))
        assert ref.converged
        F_star = ref.objective
        x_star = ref.x
        x0 = rng.standard_normal(100)
        theta0 = np.sum((x0 - x_star) ** 2)
        sol = fista(p, x0, SolverConfig(eps=1e-13, max_iters=300))
        for row in sol.trace:
            k = row.k + 1
            assert row.F - F_star <= 2 * p.L_f * theta0 / (k + 1) ** 2 + 1e-9

    @pytest.mark.parametrize("solver", [ista, fista])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_one_product_each_way_per_iteration(self, rng, solver, bucket):
        p = CountingLasso(rng.standard_normal((40, 30)),
                          rng.standard_normal(40), 0.5, bucket=bucket)
        cfg = SolverConfig(eps=1e-6, max_iters=20000)
        p.calls = {"apply": 0, "apply_adjoint": 0}
        sol = solver(p, np.zeros(p.dim), cfg)
        assert sol.converged and sol.iterations > 50
        k = sol.iterations
        assert k <= p.calls["apply_adjoint"] <= k + 3
        assert k <= p.calls["apply"] <= k + 3

    def test_recycled_momentum_gradient_is_exact(self, rng, monkeypatch):
        # every prox step is taken with a gradient the solver passes in;
        # at each momentum point y it is a combination of earlier
        # products, and it must match a fresh one
        p = random_lasso(rng, m=40, n=60, lam=0.05)
        seen = []
        spy_prox_steps(monkeypatch, lambda x, g: seen.append((x, g)))
        cfg = SolverConfig(eps=1e-15, max_iters=600)
        sol = fista(p, np.zeros(p.dim), cfg)
        # a stopping test at x0, a step from y and a stopping test at x
        # per iteration, and the budget exit's test at the best iterate
        assert sol.iterations == 600 and len(seen) == 2 * 600 + 2
        for x, g in seen:
            exact = p.f_grad(x)
            assert np.linalg.norm(g - exact) \
                <= 1e-12 * np.linalg.norm(exact)

    @pytest.mark.parametrize("solver", [ista, fista])
    def test_trace_row_holds_its_iterate(self, solver, monkeypatch):
        # row k holds F and ||D|| of one point, the iterate x_{k+1} that
        # the (k+1)-th prox step gave
        p = bucket_instance()
        assert p.a < p.L_f
        iterates = []
        real = solvers.metric_prox_step

        def spy(*args):
            x = real(*args)
            iterates.append(x.copy())
            return x

        monkeypatch.setattr(solvers, "metric_prox_step", spy)
        sol = solver(p, np.zeros(p.dim), SolverConfig(eps=1e-8,
                                                      max_iters=300))
        assert len(iterates) == len(sol.trace) == sol.iterations > 50
        for row, x in zip(sol.trace, iterates):
            assert row.F == pytest.approx(p.value(x), rel=1e-12)
            assert row.D_norm == pytest.approx(
                np.linalg.norm(gradient_mapping(p, x)), rel=1e-6), row.k

    def test_converged_satisfies_stop_independently(self, rng):
        p = random_lasso(rng, m=15, n=10)
        cfg = SolverConfig(eps=1e-8, max_iters=5000)
        sol = fista(p, rng.standard_normal(p.dim), cfg)
        assert sol.converged
        assert np.linalg.norm(gradient_mapping(p, sol.x)) < cfg.eps

    @pytest.mark.parametrize("bucket", [False, True])
    def test_recycled_residual_and_gradient_are_exact(self, rng, bucket,
                                                      monkeypatch):
        # the descent-lemma check of each prox step reads the residual and
        # gradient of the point y the step was taken from, combinations of
        # earlier products, and those of the new iterate; all must match
        # fresh ones
        p = random_lasso(rng, m=40, n=60, lam=0.05, bucket=bucket)
        seen = []
        real = solvers._gradient_step

        def spy(problem, y, r_y, g_y, x, r_x, k):
            seen.append((y, r_y, g_y, x, r_x))
            return real(problem, y, r_y, g_y, x, r_x, k)

        monkeypatch.setattr(solvers, "_gradient_step", spy)
        cfg = SolverConfig(eps=1e-15, max_iters=400)
        sol = fista(p, np.zeros(p.dim), cfg)
        assert len(seen) == sol.iterations == 400
        for y, r_y, g_y, x, r_x in seen:
            for point, r in ((y, r_y), (x, r_x)):
                exact = p.residual(point)
                assert np.linalg.norm(r - exact) \
                    <= 1e-12 * max(1.0, np.linalg.norm(exact))
            exact = p.f_grad(y)
            assert np.linalg.norm(g_y - exact) \
                <= 1e-12 * np.linalg.norm(exact)

    def test_restart_steps_from_the_iterate(self, rng, monkeypatch):
        # after the stopping test at x0, prox steps alternate with
        # stopping tests: the step from y_k gives x_{k+1}, tested next.
        # Where the metric's inner product
        # <y_k - x_{k+1}, V (x_{k+1} - x_k)> > 0 the momentum restarts and
        # the next step is taken from y_{k+1} = x_{k+1} itself, as after
        # the first step (t_1 = 1); elsewhere y has momentum and differs
        # from x.  The instance is spiked, so V is not L_f I
        p = bucket_instance()
        assert p.a < p.L_f
        points = []
        spy_prox_steps(monkeypatch, lambda x, g: points.append(x))
        sol = fista(p, np.zeros(p.dim), SolverConfig(eps=1e-15,
                                                     max_iters=600))
        assert sol.iterations == 600 and len(points) == 2 * 600 + 2
        assert np.array_equal(points[0], np.zeros(p.dim))
        ys, xs = points[1:1201:2], points[0:1201:2]
        assert np.array_equal(ys[1], xs[1])
        restarts = 0
        for k in range(1, 599):
            restarted = metric_inner(p, ys[k] - xs[k + 1],
                                     xs[k + 1] - xs[k]) > 0
            restarts += restarted
            assert np.array_equal(ys[k + 1], xs[k + 1]) == restarted, k
        assert restarts > 0

    @pytest.mark.parametrize("bucket", [False, True])
    def test_lipschitz_constant_checked(self, bucket):
        # each solve passes at the problem's own L_f; with L_f at half
        # its value the prox steps overshoot along the top singular
        # direction, and the descent lemma fails
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = random_lasso(rng, m=60, n=40, lam=0.1, bucket=bucket)
            cfg = SolverConfig()
            fista(p, np.zeros(p.dim), cfg)
            p.L_f *= 0.5
            with pytest.raises(solvers.InvariantViolation,
                               match="fails the descent lemma"):
                fista(p, np.zeros(p.dim), cfg)


class TestAgm:
    def test_first_iteration_collapses_to_start(self, rng):
        # t_0 = 1 means x_0 = z_0 = y_0; the first trace row records it
        p = random_lasso(rng, m=10, n=6)
        sol = agm(p, np.zeros(p.dim), SolverConfig(eps=1e-9, max_iters=5))
        assert sol.trace[0].t == pytest.approx(1.0)

    def test_alpha_t_closed_forms(self, rng):
        p = random_lasso(rng, m=10, n=6)
        sol = agm(p, rng.standard_normal(p.dim),
                  SolverConfig(eps=1e-14, max_iters=30))
        L = p.L_f
        # j counts the iterations since the last restart, or the start;
        # t = 1 only where j = 0, at the seed alpha = 1/L_f
        j, restarts = 0, 0
        for row in sol.trace:
            j = 0 if row.t == 1.0 else j + 1
            restarts += row.k > 0 and j == 0
            assert row.alpha == pytest.approx((j + 2) / (2 * L), rel=1e-12)
            assert row.t == pytest.approx(2 / (j + 2), rel=1e-12)
            assert row.eta == L
        assert restarts > 0

    def test_rate_bound(self, rng):
        # F(y_T) - F* <= 4 Theta L / T^2 with Theta = 0.5||x0 - x*||^2
        p = random_lasso(rng, m=30, n=20, lam=0.05)
        ref = fista(p, np.zeros(20), SolverConfig(eps=1e-12, max_iters=50000))
        assert ref.converged
        x0 = rng.standard_normal(20)
        theta = 0.5 * np.sum((x0 - ref.x) ** 2)
        sol = agm(p, x0, SolverConfig(eps=1e-13, max_iters=200))
        for row in sol.trace:
            T = row.k + 1
            assert row.F - ref.objective \
                <= 4 * theta * p.L_f / T ** 2 + 1e-9

    def test_smooth_1d_quadratic_converges(self):
        p = L1LeastSquares(np.array([[2.0]]), np.array([4.0]), 0.0)
        sol = agm(p, np.array([10.0]), SolverConfig(eps=1e-10, max_iters=2000))
        assert sol.converged
        assert np.allclose(sol.x, [2.0], atol=1e-8)

    @pytest.mark.parametrize("bucket", [False, True])
    def test_reads_A_once_per_iteration(self, rng, bucket, monkeypatch):
        # agm is magma on the identity chain: after the one-point pass at
        # the start, each iteration makes its two products with B and one
        # with B^T in one two-point pass, and no separate residual; a row
        # whose function restart discards its step adds one B^T at y
        p = CountingLasso(rng.standard_normal((40, 30)),
                          rng.standard_normal(40), 0.5, bucket=bucket)
        residuals = []
        real_residual = p.residual

        def residual(x):
            residuals.append(1)
            return real_residual(x)

        passes = record_passes(monkeypatch, p)
        monkeypatch.setattr(p, "residual", residual)
        p.calls = {"apply": 0, "apply_adjoint": 0}
        sol = agm(p, np.zeros(p.dim), SolverConfig(eps=1e-6, max_iters=20000))
        assert sol.converged and sol.iterations > 50
        k = sol.iterations
        restarts = len(discarded_rows(sol.trace, passes))
        assert restarts > 0
        assert [q.z is not None for q in passes] == [False] + [True] * k
        assert residuals == []
        assert p.calls == {"apply": 2 * k + 1,
                           "apply_adjoint": k + 1 + restarts}

    @pytest.mark.parametrize("solver", ["agm", "magma"])
    def test_eta_alpha_once_per_iteration(self, solver, monkeypatch):
        # the gradient-branch (eta, alpha) that weights the next anchor's
        # pass is carried into the next iteration, also after a coarse step
        spy = Mock(wraps=update_eta_alpha)
        monkeypatch.setattr(solvers, "update_eta_alpha", spy)
        p = bucket_instance(seed=13)
        sol = run_solver(solver, p, np.zeros(p.dim),
                         SolverConfig(eps=1e-6, max_iters=12000, kappa=0.7))
        assert sol.converged and sol.iterations > 50
        assert sol.step_counts["coarse"] > 0 or solver == "agm"
        grad = [c for c in spy.call_args_list if c.args[1] == "grad"]
        assert len(grad) <= sol.iterations + 1


class TestMfista:
    def test_stationary_start_unavailable(self):
        H = np.diag([1.0, 2.0])
        c = np.array([1.0, 2.0])
        obj = QuadObjective(H, c)
        res = mfista(obj, obj.lift(np.array([1.0, 1.0])), 1e-6, 100)
        assert res.iterations == 0

    def test_monotone_decrease_every_iteration(self, rng):
        H = rng.standard_normal((6, 6))
        H = H @ H.T + 0.1 * np.eye(6)
        obj = QuadObjective(H, rng.standard_normal(6))
        res = mfista(obj, obj.lift(rng.standard_normal(6) * 3), 1e-12, 300)
        assert all(res.values[i + 1] <= res.values[i] + 1e-14
                   for i in range(len(res.values) - 1))

    def test_first_step_decrease_matches_gradient_bound(self, rng):
        H = rng.standard_normal((5, 5))
        H = H @ H.T + 0.5 * np.eye(5)
        obj = QuadObjective(H, rng.standard_normal(5))
        p0 = obj.lift(rng.standard_normal(5))
        res = mfista(obj, p0, 1e-12, 50)
        g0 = obj.grad(p0)
        assert res.values[1] <= res.values[0] \
            - float(g0 @ g0) / (2 * obj.L) + 1e-12

    @staticmethod
    def _spied_solve(obj, p0, tol, max_iters):
        """mfista on obj, with the points it lifts, the values it takes
        (the start's, then one per trial) and the points it takes
        gradients at; and, per iteration, whether its trial was rejected."""
        lifted, trial_values, grads = [], [], []
        real_lift, real_value, real_grad = obj.lift, obj.value, obj.grad

        def lift(x):
            lifted.append(real_lift(x))
            return lifted[-1]

        def value(p):
            trial_values.append(real_value(p))
            return trial_values[-1]

        def grad(p):
            grads.append(p)
            return real_grad(p)

        obj.lift, obj.value, obj.grad = lift, value, grad
        res = mfista(obj, p0, tol, max_iters)
        rejected = [trial_values[j] > res.values[j - 1]
                    for j in range(1, len(res.values))]
        return res, lifted, trial_values, grads, rejected

    def test_restart_call_pattern(self, rng):
        # one lift per iteration, at the trial point, and one value per
        # iteration plus the start's.  grad runs at the start, once at
        # each accepted trial and at each momentum point of nonzero
        # weight.  The i-th accepted trial in a row, counted from the start
        # or the last rejection, has weight (t_i - 1)/t_{i+1} with t_1 = 1,
        # zero at i = 1; the last iteration forms no momentum point.  A
        # rejected trial restarts from the kept point, whose gradient is
        # known, and takes no grad
        H = np.diag(np.logspace(0, 4, 8))
        obj = QuadObjective(H, rng.standard_normal(8))
        p0 = obj.lift(rng.standard_normal(8) * 3)
        res, lifted, trial_values, grads, rejected = self._spied_solve(
            obj, p0, 1e-6, 3000)
        assert np.linalg.norm(H @ res.x - obj.c) < 1e-6
        assert 0 < sum(rejected) < res.iterations
        assert len(lifted) == res.iterations
        assert len(trial_values) == res.iterations + 1
        momentum, run = 0, 0
        for j, rej in enumerate(rejected, start=1):
            run = 0 if rej else run + 1
            momentum += run >= 2 and j < res.iterations
        assert len(grads) == 1 + (res.iterations - sum(rejected)) + momentum
        assert grads[0] is p0
        for z, rej in zip(lifted, rejected):
            assert sum(g is z for g in grads) == (0 if rej else 1)

    def test_no_two_rejections_in_a_row(self):
        # after a rejection the next trial is the plain gradient step from
        # the kept point, which a valid L makes descend
        total = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
            H = Q @ np.diag(np.logspace(0, 3, 10)) @ Q.T
            obj = QuadObjective(H, rng.standard_normal(10))
            p0 = obj.lift(rng.standard_normal(10) * 3)
            res, _, _, _, rejected = self._spied_solve(obj, p0, 1e-4, 3000)
            assert np.linalg.norm(H @ res.x - obj.c) < 1e-4
            assert not any(a and b for a, b in zip(rejected, rejected[1:]))
            total += sum(rejected)
        assert total > 20

    def test_rejected_gradient_step_exits_at_once(self, rng):
        # with L at 1% of the curvature the first trial, a plain gradient
        # step, overshoots; every later trial would repeat it
        H = rng.standard_normal((6, 6))
        obj = QuadObjective(H @ H.T + 0.1 * np.eye(6), rng.standard_normal(6))
        obj.L *= 0.01
        w0 = rng.standard_normal(6)
        p0 = obj.lift(w0)
        res, lifted, _, _, _ = self._spied_solve(obj, p0, 1e-12, 100)
        F0 = obj.value(p0)
        assert res.iterations == 1 and len(lifted) == 1
        assert res.values == [F0, F0]
        assert np.array_equal(res.x, w0)

    def test_restart_beats_monotone_fista(self, rng):
        # Beck & Teboulle's monotone FISTA keeps the momentum through a
        # rejected step, y = x + t/t' (z - x) + (t-1)/t' (x - x_prev), and
        # needs more iterations than the restarted solve to reach tol
        H = np.diag(np.logspace(0, 4, 8))
        c = rng.standard_normal(8)
        obj = QuadObjective(H, c)
        w0 = rng.standard_normal(8) * 3
        res = mfista(obj, obj.lift(w0), 1e-6, 3000)
        assert np.linalg.norm(H @ res.x - c) < 1e-6

        def F(x):
            return 0.5 * float(x @ (H @ x)) - float(c @ x)

        x_prev = y = w0
        F_prev, t = F(w0), 1.0
        for _ in range(res.iterations):
            z = y - (H @ y - c) / obj.L
            x = z if F(z) <= F_prev else x_prev
            assert np.linalg.norm(H @ x - c) >= 1e-6
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x + t / t_next * (z - x) + (t - 1.0) / t_next * (x - x_prev)
            x_prev, F_prev, t = x, F(x), t_next

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_recycled_lift_matches_fresh_evaluation(self, bucket, levels):
        # every momentum point is a combination of earlier points; wherever
        # mfista takes a gradient, over the full default budget, value and
        # grad from the point it holds match a fresh lift of its w, and
        # lift runs once per iteration.  As for the fine level's recycled
        # B^T r, the gradient error is measured against the product it
        # recycles, B_H^T r: the gradient itself is that product minus
        # nearly all of v_H and the penalty term, so a fresh evaluation is
        # no more exact than ~1e-16 of B_H^T r either
        spec = ExperimentSpec(m=120, n=64, rho=0.9, k_true=4,
                              corruption=0.2 if bucket else 0.0, noise=0.01,
                              seed=5, lam=1e-4, bucket=bucket)
        p, _, _ = gen_instance(spec)
        chain = build_chain(p.n_x, levels, bucket=bucket, m=p.m)
        cfg = SolverConfig()
        x = fista(p, np.zeros(p.dim), SolverConfig(max_iters=20)).x
        model = build_coarse_model(p, chain, x, cfg.mu)
        real_lift, real_value, real_grad = model.lift, model.value, model.grad
        lifts, checked = [], []

        def lift(w):
            lifts.append(w)
            return real_lift(w)

        def grad(q):
            fresh = real_lift(q[:model.dim])
            assert real_value(q) == pytest.approx(real_value(fresh),
                                                  rel=1e-12)
            g, g_fresh = real_grad(q), real_grad(fresh)
            product = fresh[model.dim + model.m:] - model.v_H
            assert np.linalg.norm(g - g_fresh) \
                <= 1e-12 * np.linalg.norm(product)
            checked.append(q)
            return g

        model.lift, model.grad = lift, grad
        res = mfista(model, model.start, 0.0, solvers.COARSE_BUDGET)
        assert res.iterations == solvers.COARSE_BUDGET
        assert res.values[-1] < res.values[0]
        assert len(lifts) == res.iterations
        # the start, every accepted step and every momentum point
        assert len(checked) > res.iterations

    def test_coarse_products_per_solve(self, monkeypatch):
        # building a coarse model makes one product with B_H and one with
        # B_H^T, which also give mfista its start point, and each mfista
        # iteration one more pair: iterations + 1 pairs per coarse solve
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        chain = build_chain(p.n_x, 3, bucket=True, m=p.m)
        chain.coarse_dictionary(p)  # its power iteration is not counted
        products, iterations = [], []
        real_apply, real_adjoint = multilevel._apply, multilevel._apply_adjoint
        real_mfista = solvers.mfista

        def apply(*args):
            products.append("B_H")
            return real_apply(*args)

        def apply_adjoint(*args):
            products.append("B_H^T")
            return real_adjoint(*args)

        def mfista(*args):
            res = real_mfista(*args)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(multilevel, "_apply", apply)
        monkeypatch.setattr(multilevel, "_apply_adjoint", apply_adjoint)
        monkeypatch.setattr(solvers, "mfista", mfista)
        cfg = SolverConfig(eps=1e-6, max_iters=2000, kappa=0.6, levels=3)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.step_counts["coarse"] > 0 and sum(iterations) > 50
        pairs = sum(it + 1 for it in iterations)
        assert products.count("B_H") == products.count("B_H^T") == pairs

    def test_reaches_same_minimizer_as_gradient_descent(self):
        H = np.array([[3.0]])
        c = np.array([6.0])
        obj = QuadObjective(H, c)
        res = mfista(obj, obj.lift(np.array([-5.0])), 1e-10, 2000)
        x = np.array([-5.0])
        for _ in range(20000):
            x = x - (H @ x - c) / 3.0
        assert np.allclose(res.x, x, atol=1e-8)


class TestCoarseCondition:
    def _state(self, x_tilde=None, q=0, fails=0):
        return MagmaState(k=1, alpha=1.0, eta=1.0, x_tilde=x_tilde, q=q,
                          fails=fails)

    def test_zero_gradient_false(self):
        chain = build_chain(8, 2)
        cfg = SolverConfig(kappa=0.5)
        state = self._state()
        assert not coarse_condition(state, np.zeros(8), np.zeros(8), chain, cfg)

    def test_kappa_above_operator_norm_forces_false(self, rng):
        chain = build_chain(8, 2)
        R_norm = np.linalg.svd(dense_restriction(chain),
                               compute_uv=False)[0]
        cfg = SolverConfig(kappa=min(1.0, R_norm + 1e-6))
        state = self._state()
        for _ in range(50):
            g = rng.standard_normal(8) * rng.uniform(0.1, 10)
            assert not coarse_condition(state, np.zeros(8), g, chain, cfg)

    def test_prolonged_coarse_vector_fires(self, rng):
        # a gradient lying in range(R^T) keeps a computable norm fraction
        chain = build_chain(8, 2)
        u = rng.standard_normal(4)
        g = chain.prolong(u)
        ratio = np.linalg.norm(chain.restrict(g)) / np.linalg.norm(g)
        assert ratio > 0.5
        cfg = SolverConfig(kappa=0.5)
        assert coarse_condition(self._state(), np.zeros(8), g, chain, cfg)

    def test_first_call_skips_proximity_clause(self, rng, monkeypatch):
        chain = build_chain(8, 2)
        monkeypatch.setattr(solvers, "K_D", 5)
        cfg = SolverConfig(kappa=0.1)
        g = chain.prolong(rng.standard_normal(4))
        state = self._state(x_tilde=None, q=10 ** 9)
        assert coarse_condition(state, np.zeros(8), g, chain, cfg)

    def test_proximity_blocks_until_retry_allowance(self, rng, monkeypatch):
        chain = build_chain(8, 2)
        monkeypatch.setattr(solvers, "K_D", 5)
        monkeypatch.setattr(solvers, "THETA", 0.5)
        cfg = SolverConfig(kappa=0.1)
        g = chain.prolong(rng.standard_normal(4))
        anchor = np.ones(8)
        near = anchor + 1e-3
        assert not coarse_condition(self._state(anchor, q=0), near, g, chain, cfg)
        assert coarse_condition(self._state(anchor, q=5), near, g, chain, cfg)
        far = anchor * 3
        assert coarse_condition(self._state(anchor, q=0), far, g, chain, cfg)

    def test_failed_attempts_widen_retry_allowance(self, rng, monkeypatch):
        # each failed attempt in a row doubles the allowance K_D, up to 64x
        chain = build_chain(8, 2)
        monkeypatch.setattr(solvers, "K_D", 5)
        monkeypatch.setattr(solvers, "THETA", 0.5)
        cfg = SolverConfig(kappa=0.1)
        g = chain.prolong(rng.standard_normal(4))
        anchor = np.ones(8)
        near = anchor + 1e-3
        for fails, allowance in ((1, 10), (3, 40), (6, 320), (9, 320)):
            for q, fires in ((allowance - 1, False), (allowance, True)):
                state = self._state(anchor, q=q, fails=fails)
                assert coarse_condition(state, near, g, chain, cfg) == fires


class TestArmijo:
    def _quadratic_view(self):
        # lam = 0 makes F_mu(x) = 0.5 x^2 regardless of mu
        p = L1LeastSquares(np.array([[1.0]]), np.zeros(1), 0.0)
        return SmoothedView(p, 1e-3)

    @staticmethod
    def _grid(monkeypatch, c, s0, tau):
        monkeypatch.setattr(solvers, "ARMIJO_C", c)
        monkeypatch.setattr(solvers, "S0", s0)
        monkeypatch.setattr(solvers, "TAU", tau)

    def test_hand_computed_step(self, monkeypatch):
        view = self._quadratic_view()
        self._grid(monkeypatch, c=0.5, s0=10.0, tau=0.5)
        s = armijo_search(view, np.array([1.0]), np.array([-1.0]))
        assert s == pytest.approx(0.625)

    def test_weak_constant_accepts_s0(self, monkeypatch):
        view = self._quadratic_view()
        self._grid(monkeypatch, c=1e-12, s0=1.0, tau=0.5)
        s = armijo_search(view, np.array([1.0]), np.array([-1.0]))
        assert s == 1.0

    def test_accepted_step_satisfies_contract(self, rng, monkeypatch):
        self._grid(monkeypatch, c=1e-4, s0=10.0, tau=0.5)
        for _ in range(25):
            p = random_lasso(rng, m=10, n=6)
            view = SmoothedView(p, 1e-2)
            x = rng.standard_normal(p.dim)
            d = -view.grad(x)
            if np.linalg.norm(d) < 1e-12:
                continue
            s = armijo_search(view, x, d)
            slope = float(d @ view.grad(x))
            assert view.value(x + s * d) \
                <= view.value(x) + solvers.ARMIJO_C * s * slope + 1e-12

    def test_warm_start_matches_cold_scan(self, rng, monkeypatch):
        self._grid(monkeypatch, c=1e-4, s0=10.0, tau=0.7)
        for _ in range(25):
            p = random_lasso(rng, m=10, n=6)
            view = SmoothedView(p, 1e-2)
            x = rng.standard_normal(p.dim)
            d = -view.grad(x)
            if np.linalg.norm(d) < 1e-12:
                continue
            cold = armijo_search(view, x, d)
            warm = armijo_search(view, x, d, s_start=cold * solvers.TAU ** 3)
            assert warm == pytest.approx(cold, rel=1e-9)

    @pytest.mark.parametrize("bucket", [False, True])
    def test_residual_probes_match_direct_probes(self, rng, bucket,
                                                 monkeypatch):
        # each probe takes its residual as r_x + s B d; the step chosen
        # must be the one a top-down scan of direct F_mu evaluations picks
        c, s0, tau = 1e-4, 10.0, 0.7
        self._grid(monkeypatch, c, s0, tau)
        for _ in range(25):
            p = random_lasso(rng, m=12, n=7, bucket=bucket)
            view = SmoothedView(p, 1e-2)
            x = rng.standard_normal(p.dim)
            d = -view.grad(x) + 0.1 * rng.standard_normal(p.dim)
            slope = float(d @ view.grad(x))
            if not slope < 0:
                continue
            s_direct = s0
            while view.value(x + s_direct * d) \
                    > view.value(x) + c * s_direct * slope:
                s_direct *= tau
            assert armijo_search(view, x, d) \
                == pytest.approx(s_direct, rel=1e-9)
            assert armijo_search(view, x, d, slope=slope,
                                 r_x=p.residual(x), Bd=p.apply(d),
                                 s_start=s_direct * tau ** 2) \
                == pytest.approx(s_direct, rel=1e-9)

    def test_non_descent_rejected(self):
        view = self._quadratic_view()
        with pytest.raises(ValueError):
            armijo_search(view, np.array([1.0]), np.array([1.0]))

    def test_cap_exhaustion_raises(self, monkeypatch):
        view = self._quadratic_view()
        # huge c forces rejection of every step in the capped grid
        monkeypatch.setattr(solvers, "LINE_SEARCH_CAP", 5)
        self._grid(monkeypatch, c=1 - 1e-12, s0=1e6, tau=0.9)
        with pytest.raises(LineSearchError):
            armijo_search(view, np.array([1.0]), np.array([-1.0]))


class TestUpdateEtaAlpha:
    def test_pure_gradient_reproduces_agm_sequence(self):
        L = 3.7
        cfg = SolverConfig()
        state = MagmaState(k=0, alpha=0.0, eta=L)
        for k in range(40):
            eta, alpha = update_eta_alpha(state, "grad", None, L, None, cfg)
            assert alpha == pytest.approx((k + 2) / (2 * L), rel=1e-12)
            state.k, state.alpha, state.eta = k + 1, alpha, eta

    def test_telescoping_identity_mixed_branches(self, rng, monkeypatch):
        L = 2.0
        monkeypatch.setattr(solvers, "ARMIJO_C", 1e-4)
        cfg = SolverConfig(kappa=0.8)
        state = MagmaState(k=0, alpha=0.0, eta=L)
        for k in range(60):
            branch = "grad" if k == 0 or rng.uniform() < 0.6 else "coarse"
            eta, alpha = update_eta_alpha(
                state, branch, float(rng.uniform(0.1, 10)), L,
                float(rng.uniform(0.5, 50)), cfg)
            if k >= 1:
                resid = alpha ** 2 * eta - alpha + 1 / (4 * eta) \
                    - state.alpha ** 2 * state.eta
                assert abs(resid) <= 1e-9 * max(1.0, state.alpha ** 2 * state.eta)
                assert 0 < 1.0 / (alpha * eta) <= 1 + 1e-12
            state.k, state.alpha, state.eta = k + 1, alpha, eta


class TestMagma:
    def test_degenerate_reduction_equals_agm(self, rng):
        # levels=1 and kappa=1: trajectory must reproduce agm exactly
        for seed in range(3):
            r = np.random.default_rng(seed)
            p = random_lasso(r, m=25, n=12)
            x0 = r.standard_normal(p.dim)
            cfg = SolverConfig(eps=1e-9, max_iters=120, kappa=1.0, levels=1)
            chain = build_chain(p.n_x, 1)
            sol_m = magma(p, chain, x0, cfg)
            sol_a = agm(p, x0, cfg)
            Fm = [row.F for row in sol_m.trace]
            Fa = [row.F for row in sol_a.trace]
            assert len(Fm) == len(Fa)
            assert np.max(np.abs(np.array(Fm) - np.array(Fa))) <= 1e-10

    def test_high_precision_objective_matches_fista(self):
        # both solvers to eps=1e-10 on a bucket instance, same objective
        spec = ExperimentSpec(m=400, n=256, rho=0.9, k_true=4,
                              corruption=0.1, noise=0.01, seed=7, lam=0.01)
        p, _, _ = gen_instance(spec)
        x0 = np.zeros(p.dim)
        sol_f = fista(p, x0, SolverConfig(eps=1e-10, max_iters=40000))
        chain = build_chain(p.n_x, 3, bucket=True, m=p.m)
        sol_m = magma(p, chain, x0, SolverConfig(
            eps=1e-10, max_iters=40000, kappa=0.9, levels=3))
        assert sol_f.converged and sol_m.converged
        assert abs(sol_f.objective - sol_m.objective) <= 1e-8

    def test_coarse_steps_fire_and_descend(self):
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-7, max_iters=400, kappa=0.7, levels=2)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert len(sol.coarse_events) > 0
        for ev in sol.coarse_events:
            bound = -cfg.kappa ** 2 / (2 * ev.L_H) * ev.grad_mu_norm ** 2
            assert ev.slope < bound + 1e-9

    def test_bookkeeping_from_trace(self):
        p = bucket_instance(seed=5)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-9, max_iters=200, kappa=0.7)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert_telescoping(sol.trace, p.L_f)

    def test_last_step_is_gradient(self):
        p = bucket_instance(seed=11)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        # small budget makes it likely the loop ends right after a burst;
        # the budget bounds the iterations, and the last one is a plain
        # gradient step
        for max_iters in (2, 3, 5, 40):
            cfg = SolverConfig(eps=1e-12, max_iters=max_iters, kappa=0.6)
            sol = magma(p, chain, np.zeros(p.dim), cfg)
            assert not sol.converged
            assert sol.iterations == len(sol.trace) <= max_iters
            assert sol.trace[-1].step_kind == "grad"

    def test_converged_stop_reverified(self):
        p = bucket_instance(seed=13)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-6, max_iters=12000, kappa=0.7)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.converged
        assert np.linalg.norm(gradient_mapping(p, sol.x)) < cfg.eps

    def test_trace_timestamps_monotone(self):
        p = bucket_instance(seed=17)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        sol = magma(p, chain, np.zeros(p.dim),
                    SolverConfig(eps=1e-8, max_iters=100))
        ts = [row.elapsed_ns for row in sol.trace]
        assert all(ts[i + 1] >= ts[i] for i in range(len(ts) - 1))

    @pytest.mark.parametrize("bucket", [False, True])
    def test_products_per_iteration(self, bucket, monkeypatch):
        # one pass at the start and one per iteration (two B, one B^T);
        # a coarse attempt that reaches the line search adds one B (B d)
        # and no B^T, and every function restart one B^T at the y it
        # keeps
        spec = ExperimentSpec(m=200, n=128, rho=0.9, k_true=4,
                              corruption=0.2 if bucket else 0.0, noise=0.01,
                              seed=3, lam=1e-3)
        base, _, _ = gen_instance(spec)
        p = CountingLasso(base.A, base.b, base.lam, bucket=bucket)
        chain = build_chain(p.n_x, 2, bucket=bucket, m=p.m)
        cfg = SolverConfig(eps=1e-6, max_iters=5000, kappa=0.7, levels=2)
        passes = record_passes(monkeypatch, p)
        p.calls = {"apply": 0, "apply_adjoint": 0}
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.converged and sol.iterations > 50
        if bucket:
            assert sol.step_counts["coarse"] > 0
        k = sol.iterations
        restarts = len(discarded_rows(sol.trace, passes))
        searched = sol.step_counts["coarse"] \
            + sol.rejections["line_search_failed"] \
            + sol.rejections["objective_rejected"]
        assert p.calls["apply"] == 2 * k + 1 + searched
        assert p.calls["apply_adjoint"] == k + 1 + restarts

    def test_budget_exit_products(self, monkeypatch):
        # a run stopped by its budget makes the same passes, and its exit
        # tests the kept point with one more B^T: the last pass's gradient
        # goes unused
        base = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        p = CountingLasso(base.A, base.b, base.lam, bucket=True)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-12, max_iters=300, kappa=0.7, levels=2)
        passes = record_passes(monkeypatch, p)
        p.calls = {"apply": 0, "apply_adjoint": 0}
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert not sol.converged and sol.iterations == cfg.max_iters
        assert sol.step_counts["coarse"] > 0
        k = sol.iterations
        restarts = len(discarded_rows(sol.trace, passes))
        assert restarts > 0
        searched = sol.step_counts["coarse"] \
            + sol.rejections["line_search_failed"] \
            + sol.rejections["objective_rejected"]
        assert p.calls["apply"] == 2 * k + 1 + searched
        assert p.calls["apply_adjoint"] == k + 1 + restarts + 1

    def test_recycled_products_are_exact(self, monkeypatch):
        # anchor residuals and gradients, the line search's B d and every
        # F(y) come from combinations of earlier products; each must match
        # a fresh evaluation
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-3)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        seen = {"anchor": 0, "coarse": 0, "armijo": 0, "objective": 0}

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

        def spy(name, attr, check):
            real = getattr(solvers, attr)

            def wrapper(*args, **kwargs):
                check(*args, **kwargs)
                seen[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(solvers, attr, wrapper)

        def check_anchor(problem, x, r_x, g, p_x, r_p, k):
            assert close(r_x, p.residual(x))
            assert close(g, p.f_grad(x))
            assert close(r_p, p.residual(p_x))

        def check_coarse(problem, chain, x, mu, grad_H):
            assert close(grad_H,
                         chain.restrict(SmoothedView(problem, mu).grad(x)))

        def check_armijo(view, x, d, r_x, Bd, **kwargs):
            assert close(r_x, view.problem.residual(x))
            assert close(Bd, view.problem.apply(d))

        real_value = L1LeastSquares.value

        def value(problem, x, r=None):
            if r is not None:
                assert close(r, problem.residual(x))
                assert real_value(problem, x, r) \
                    == pytest.approx(real_value(problem, x), rel=1e-12)
                seen["objective"] += 1
            return real_value(problem, x, r)

        spy("anchor", "_gradient_step", check_anchor)
        spy("coarse", "build_coarse_model", check_coarse)
        spy("armijo", "armijo_search", check_armijo)
        monkeypatch.setattr(L1LeastSquares, "value", value)
        cfg = SolverConfig(eps=1e-9, max_iters=600, kappa=0.7, levels=2)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.step_counts["coarse"] > 0
        assert seen["anchor"] == sol.iterations - sol.step_counts["coarse"]
        assert seen["coarse"] >= seen["armijo"] >= sol.step_counts["coarse"]
        assert seen["objective"] >= sol.iterations + 1

    def test_restart_steps_from_the_iterate(self, monkeypatch):
        # row k steps from its anchor x_k = t z_k + (1-t) y_k, with the
        # row's own t (a coarse row's included), to y_{k+1}.  Where the
        # metric's inner product <x_k - y_{k+1}, V (y_{k+1} - y_k)> > 0
        # magma takes no mirror step: z_{k+1} = y_{k+1} and the
        # recursion restarts at its seed, so the next row has t = 1 and
        # steps from y_{k+1} itself, and its bookkeeping check is
        # skipped.  Elsewhere z_{k+1} is the mirror step and the next
        # anchor is not y_{k+1}, except after a seed row
        # (eta, alpha) = (L_f, 1/L_f): there z_k = y_k = x_k, and the
        # mirror step is the metric prox step up to rounding.  A row
        # whose function restart discards y_{k+1} (this run's row 3,
        # right after a coarse step) takes its mirror step or not by the
        # same test, and the next row steps from y_k and skips its
        # bookkeeping check.  The instance is spiked, so V is not L_f I
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        assert p.a < p.L_f
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        seen = {"_check_bookkeeping": 0, "mirror_step": 0}
        # the start's pass, then one per row: (y_{k+1}, z_{k+1}) and the
        # next row's gradient-branch t
        passes = record_passes(monkeypatch, p)
        count_calls(monkeypatch, seen)
        cfg = SolverConfig(eps=1e-7, max_iters=400, kappa=0.7, levels=2)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        K = sol.iterations
        assert len(passes) == K + 1
        assert sol.step_counts["coarse"] > 0
        points = row_points(sol.trace, passes)
        discarded = set(discarded_rows(sol.trace, passes))
        assert discarded
        restarted = []
        for k, row in enumerate(sol.trace):
            (y, z), q = points[k], passes[k + 1]
            x = row.t * z + (1.0 - row.t) * y
            restart = metric_inner(p, x - q.y, q.y - y) > 0.0
            restarted.append(restart)
            if k + 1 < K:
                t = sol.trace[k + 1].t
                y1, z1 = points[k + 1]
                steps_from_y = t == 1.0 \
                    and np.array_equal(t * z1 + (1.0 - t) * y1, y1)
            if restart:
                assert np.array_equal(q.z, q.y) and q.t == 1.0, k
                assert k + 1 == K or steps_from_y, k
            elif (row.eta, row.alpha) != (p.L_f, 1 / p.L_f):
                assert not np.array_equal(q.z, q.y), k
                assert k + 1 == K or steps_from_y == (k in discarded), k
        restarts = sum(restarted)
        assert restarts > 0
        assert seen["mirror_step"] == K - restarts
        again = [r or k in discarded for k, r in enumerate(restarted[:-1])]
        assert seen["_check_bookkeeping"] == K - 1 - sum(again)

    def test_converged_run_takes_no_discarded_step(self, monkeypatch):
        # this run converges at the anchor right after a coarse step and
        # returns that anchor: no mirror step follows the last row, and
        # no prox step but the stopping test's, in the metric or at L_f.
        # Its ||D|| is 2.2e-3 or more up to the coarse step at row 2, and
        # 1.8e-3 at the anchor after it
        p = bucket_instance(seed=14, m=200, n=128, lam=1e-5)
        assert p.a < p.L_f
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        steps = {"mirror_step": 0, "prox_step": 0, "metric_prox_step": 0}
        at_last_row = {}
        real_log = solvers._SolveRecord.log

        def log(run, *args):
            real_log(run, *args)
            at_last_row.update(steps)

        count_calls(monkeypatch, steps)
        monkeypatch.setattr(solvers._SolveRecord, "log", log)
        cfg = SolverConfig(eps=2e-3, max_iters=3000, kappa=0.7, levels=2)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.converged and sol.trace[-1].step_kind == "coarse"
        assert steps == {"mirror_step": at_last_row["mirror_step"],
                         "prox_step": at_last_row["prox_step"] + 1,
                         "metric_prox_step": at_last_row["metric_prox_step"]}
        assert sol.iterations == len(sol.trace)
        assert sum(sol.step_counts.values()) == sol.iterations

    def test_single_step_coarse_solve_accepted(self, monkeypatch):
        # one mfista step from the anchor does at least as well as a
        # gradient step there, which is all the descent bound needs
        p = bucket_instance(seed=3)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        monkeypatch.setattr(solvers, "COARSE_BUDGET", 1)
        cfg = SolverConfig(eps=1e-8, max_iters=200, kappa=0.6)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.step_counts["coarse"] > 0
        assert all(ev.coarse_iters == 1 for ev in sol.coarse_events)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "reason", ["entry_stationary", "no_decrease", "line_search_failed"])
    def test_forced_rejection_reason(self, reason, monkeypatch):
        # each setting stops every coarse attempt at the same test; a
        # coarse Lipschitz bound at 1% of the spectral part makes every
        # mfista step overshoot, so the monotone solve never moves
        name, value = {"entry_stationary": ("COARSE_TOL", 1e6),
                       "no_decrease": ("COARSE_BUDGET", 3),
                       "line_search_failed": ("S0", 1e12)}[reason]
        monkeypatch.setattr(solvers, name, value)
        if reason == "line_search_failed":
            monkeypatch.setattr(solvers, "LINE_SEARCH_CAP", 1)
        if reason == "no_decrease":
            real = RestrictionChain.coarse_dictionary

            def understated(self, problem):
                A_H, spectral = real(self, problem)
                return A_H, 0.01 * spectral

            monkeypatch.setattr(RestrictionChain, "coarse_dictionary",
                                understated)
        p = bucket_instance(seed=3)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-8, max_iters=200, kappa=0.6)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.step_counts["coarse"] == 0
        assert sol.step_counts["fallback"] > 0
        expected = dict.fromkeys(REJECTION_REASONS, 0)
        expected[reason] = sol.step_counts["fallback"]
        assert sol.rejections == expected

    def test_proximity_clause_first_changes_no_decision(self, monkeypatch):
        # magma tests the proximity clause before it forms the smoothed
        # gradient; a run forced through the full coarse condition at every
        # iteration takes the same steps and ends on the same point.  This
        # run has accepted coarse steps and fallbacks.
        p = bucket_instance(seed=3, lam=1e-3)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-8, max_iters=200, kappa=0.6, mu=1.0)
        real_clause, real_condition = (solvers._proximity_clause,
                                       solvers.coarse_condition)
        inside, conditions = [], []

        def clause(state, x):
            # only coarse_condition sees the real clause
            return real_clause(state, x) if inside else True

        def condition(*args, **kwargs):
            conditions.append(1)
            inside.append(1)
            try:
                return real_condition(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(solvers, "coarse_condition", condition)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        plain_conditions = len(conditions)
        conditions.clear()
        monkeypatch.setattr(solvers, "_proximity_clause", clause)
        forced = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.step_counts["coarse"] > 0
        assert sol.rejections["objective_rejected"] >= 1
        # once at every iteration but the first and the last, and no
        # second time in an attempt
        assert len(conditions) == cfg.max_iters - 2
        assert plain_conditions < len(conditions)
        assert forced.iterations == sol.iterations
        assert forced.step_counts == sol.step_counts
        assert forced.rejections == sol.rejections
        assert forced.coarse_events == sol.coarse_events
        assert forced.objective == sol.objective
        assert np.array_equal(forced.x, sol.x)

    def test_rejections_sum_to_fallbacks(self):
        # at mu = 1 three of this run's Armijo steps raise the true
        # objective
        p = bucket_instance(seed=3, lam=1e-3)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-8, max_iters=200, kappa=0.6, mu=1.0)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert set(sol.rejections) == set(REJECTION_REASONS)
        assert sum(sol.rejections.values()) == sol.step_counts["fallback"]
        assert sol.rejections["objective_rejected"] >= 1
        assert sol.step_counts["coarse"] > 0

    def test_coarse_models_smoothed_at_config_mu(self, monkeypatch):
        # config.mu is the one smoothing level of a solve: magma makes one
        # smoothed view, and every coarse model is built at its mu
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-6, max_iters=2000, kappa=0.6)
        views, mus = [], []
        real_view, real_build = solvers.SmoothedView, solvers.build_coarse_model

        def view(problem, mu):
            views.append(mu)
            return real_view(problem, mu)

        def build(problem, chain, x, mu, **kwargs):
            mus.append(mu)
            return real_build(problem, chain, x, mu, **kwargs)

        monkeypatch.setattr(solvers, "SmoothedView", view)
        monkeypatch.setattr(solvers, "build_coarse_model", build)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.converged and sol.step_counts["coarse"] > 0
        assert views == [cfg.mu]
        assert len(mus) >= sol.step_counts["coarse"]
        assert all(mu == cfg.mu for mu in mus)
        assert_telescoping(sol.trace, p.L_f)

    def test_attempt_starts_from_the_rows_anchor(self, monkeypatch):
        # a coarse attempt builds its model at the row's anchor x_k, bit
        # for bit the point the row's gradient step was taken from, and
        # restricts the smoothed gradient the row formed there from its
        # own grad f(x_k)
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        steps, built = [], []
        real_step, real_build = (solvers.metric_prox_step,
                                 solvers.build_coarse_model)

        def step(problem, x, g):
            steps.append((x.copy(), g.copy()))
            return real_step(problem, x, g)

        def build(problem, chain, x, mu, grad_H):
            x_row, g_row = steps[-1]
            grad_mu = g_row + SmoothedView(problem, mu).g_grad(x_row)
            built.append(x.tobytes() == x_row.tobytes()
                         and grad_H.tobytes()
                         == chain.restrict(grad_mu).tobytes())
            return real_build(problem, chain, x, mu, grad_H=grad_H)

        monkeypatch.setattr(solvers, "metric_prox_step", step)
        monkeypatch.setattr(solvers, "build_coarse_model", build)
        cfg = SolverConfig(eps=1e-7, max_iters=400, kappa=0.7, levels=2)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert len(steps) == sol.iterations
        assert len(built) >= sol.step_counts["coarse"] > 0
        assert all(built)

    def test_attempt_costs_one_product_with_B(self, monkeypatch):
        # a coarse attempt takes the row's residual and gradient at its
        # anchor: it makes no product with B^T, and one with B, B d,
        # when it reaches the line search.  Each row's pass makes two
        # products with B and one with B^T, and a discarded row one
        # more B^T
        base = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        p = CountingLasso(base.A, base.b, base.lam, bucket=True)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        calls, searched = [], set()
        real_search, real_log = solvers.armijo_search, solvers._SolveRecord.log

        def search(*args, **kwargs):
            searched.add(len(calls))
            return real_search(*args, **kwargs)

        def log(run, *args):
            real_log(run, *args)
            calls.append(dict(p.calls))

        passes = record_passes(monkeypatch, p)
        monkeypatch.setattr(solvers, "armijo_search", search)
        monkeypatch.setattr(solvers._SolveRecord, "log", log)
        cfg = SolverConfig(eps=1e-9, max_iters=400, kappa=0.7)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        discarded = set(discarded_rows(sol.trace, passes))
        attempts = [row.k for row in sol.trace if row.step_kind != "grad"]
        assert sol.step_counts["coarse"] > 0
        assert searched >= {e.k for e in sol.coarse_events}
        for k in attempts:
            apply, adjoint = (calls[k][op] - calls[k - 1][op]
                              for op in ("apply", "apply_adjoint"))
            assert apply == 2 + (k in searched), k
            assert adjoint == 1 + (k in discarded), k

    def test_event_L_H_is_the_solved_models_lipschitz(self, monkeypatch):
        # the coarse-branch eta and mfista's step take one L_H
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
        cfg = SolverConfig(eps=1e-6, max_iters=2000, kappa=0.6)
        solved, event_models = [], []
        real_mfista, real_event = solvers.mfista, solvers.CoarseEvent

        def mfista(model, *args):
            solved.append(model.L)
            return real_mfista(model, *args)

        def event(*args):
            event_models.append(solved[-1])
            return real_event(*args)

        monkeypatch.setattr(solvers, "mfista", mfista)
        monkeypatch.setattr(solvers, "CoarseEvent", event)
        sol = magma(p, chain, np.zeros(p.dim), cfg)
        assert sol.step_counts["coarse"] > 0
        assert [ev.L_H for ev in sol.coarse_events] == event_models

    @pytest.mark.parametrize("name", ["agm", "magma"])
    def test_gradient_step_is_the_metric_step(self, name, monkeypatch):
        # on a spiked instance the y_{k+1} of every grad and fallback row
        # is the prox step in V from the row's anchor
        # x_k = t z_k + (1-t) y_k, taken with grad f(x_k); on most rows it
        # is not the Euclidean prox step at L_f, and a row whose function
        # restart discards y_{k+1} takes that step too.  magma's run has
        # coarse steps and fallbacks, and both runs discard one step
        p = bucket_instance(seed=1, lam=1e-3)
        assert p.a < p.L_f
        steps = []
        real_step = solvers._gradient_step

        def record_step(problem, x, r_x, g, y_next, r_y, k):
            steps.append((k, x.copy(), g.copy(), y_next.copy()))
            return real_step(problem, x, r_x, g, y_next, r_y, k)

        passes = record_passes(monkeypatch, p)
        monkeypatch.setattr(solvers, "_gradient_step", record_step)
        cfg = SolverConfig(eps=1e-8, max_iters=200, kappa=0.6, mu=1.0)
        sol = run_solver(name, p, np.zeros(p.dim), cfg)
        rows = [row.k for row in sol.trace if row.step_kind != "coarse"]
        assert [k for k, *_ in steps] == rows
        if name == "magma":
            assert sol.step_counts["coarse"] > 0
            assert sol.step_counts["fallback"] > 0
        # a row that discards its step took it all the same
        assert set(discarded_rows(sol.trace, passes)) & set(rows)
        points = row_points(sol.trace, passes)
        euclidean = 0
        for k, x, g, y_next in steps:
            y, z = points[k]
            t = sol.trace[k].t
            assert np.array_equal(x, t * z + (1.0 - t) * y), k
            assert np.linalg.norm(g - p.f_grad(x)) \
                <= 1e-12 * np.linalg.norm(g)
            assert np.array_equal(y_next, passes[k + 1].y), k
            assert y_next.tobytes() == metric_prox_step(p, x, g).tobytes(), k
            euclidean += np.array_equal(y_next, prox_step(p, x, p.L_f, g))
        assert euclidean < 0.1 * len(steps)

    @pytest.mark.parametrize("name", ["agm", "magma"])
    def test_metric_checked(self, name):
        # each gradient step, in V, passes the descent lemma in the V-norm
        # wherever B^T B <= V.  With a at half of lambda_2 that no longer
        # holds, and the steps break the lemma in V on every bucket
        # instance
        for p in halved_metric_instances(bucket=True):
            with pytest.raises(solvers.InvariantViolation,
                               match="fails the descent lemma"):
                run_solver(name, p, np.zeros(p.dim), SolverConfig())

    def test_lipschitz_constant_certified(self):
        # f(x) = 0.5 (2x - 1)^2 has L = 4; with L_f forced to 1 the first
        # prox step breaks the descent lemma
        p = L1LeastSquares(np.array([[2.0]]), np.array([1.0]), 0.01)
        chain = build_chain(1, 1)
        cfg = SolverConfig(eps=1e-9, max_iters=50, levels=1)
        assert magma(p, chain, np.zeros(1), cfg).converged
        p.L_f = 1.0
        with pytest.raises(solvers.InvariantViolation, match="L_f = 1 "):
            magma(p, chain, np.zeros(1), cfg)

    def test_dimension_mismatch_rejected(self, rng):
        p = random_lasso(rng, m=10, n=8)
        chain = build_chain(8, 2, bucket=True, m=10)
        with pytest.raises(ValueError):
            magma(p, chain, np.zeros(p.dim), SolverConfig())

    def test_chain_for_other_problem_rejected_at_entry(self, rng):
        # a bucket chain with n=8, m=4 acts on 12 entries, as many as this
        # plain problem has; magma must reject it before any product
        p = CountingLasso(rng.standard_normal((20, 12)),
                          rng.standard_normal(20), 0.1)
        chain = build_chain(8, 2, bucket=True, m=4)
        assert chain.fine_dim == p.dim
        before = dict(p.calls)
        with pytest.raises(ValueError, match=(
                "chain is for n=8, bucket=True, m=4; "
                "problem has n_x=12, bucket=False, m=20")):
            magma(p, chain, np.zeros(p.dim), SolverConfig(max_iters=50))
        assert p.calls == before

    @pytest.mark.parametrize("levels", [1, 3])
    def test_level_mismatch_rejected(self, rng, levels):
        # the chain's level count must be the one the config asks for
        p = random_lasso(rng, m=10, n=8)
        chain = build_chain(8, levels)
        with pytest.raises(ValueError, match=f"chain has {levels} levels"):
            magma(p, chain, np.zeros(p.dim), SolverConfig(levels=2))
        assert magma(p, chain, np.zeros(p.dim),
                     SolverConfig(levels=levels, max_iters=3)).iterations >= 1


class TestFunctionRestart:
    """agm's and magma's function restart: a row whose y_{k+1} has a
    higher F than y_k discards it, keeps y_k and restarts the coupling
    there, unless the row is anchored at y_k (t = 1)."""

    @pytest.mark.parametrize("name", ["agm", "magma"])
    def test_trace_F_never_rises(self, name, monkeypatch):
        # each row logs the F of the y it keeps, which never rises but by
        # rounding on a row anchored at y, whose prox step the descent
        # lemma makes monotone.  Some rows of these runs discard a step
        # that raised F
        discarded = 0
        for seed, lam in [(3, 1e-5), (14, 1e-5), (5, 1e-3), (8, 1e-3)]:
            p = bucket_instance(seed=seed, m=200, n=128, lam=lam)
            assert p.a < p.L_f
            passes = record_passes(monkeypatch, p)
            cfg = SolverConfig(eps=1e-9, max_iters=600, kappa=0.7)
            sol = run_solver(name, p, np.zeros(p.dim), cfg)
            F = [passes[0].F] + [row.F for row in sol.trace]
            for prev, row in zip(F, sol.trace):
                assert row.F <= prev or (
                    row.t == 1.0 and row.F <= prev + 1e-12 * abs(prev)), row
            discarded += len(discarded_rows(sol.trace, passes))
            if name == "magma":
                assert sol.step_counts["coarse"] > 0
        assert discarded > 0

    @pytest.mark.parametrize("name", ["agm", "magma"])
    def test_restart_costs_one_adjoint(self, name, monkeypatch):
        # a row that discards its step makes one more product with B^T,
        # at the y it keeps, and the next row has t = 1 and steps from
        # that y itself, bit for bit.  A coarse attempt adds no B^T
        base = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        p = CountingLasso(base.A, base.b, base.lam, bucket=True)
        anchors, calls = {}, []
        real_step, real_log = solvers._gradient_step, solvers._SolveRecord.log

        def step(problem, x, *args):
            anchors[args[-1]] = x.copy()
            return real_step(problem, x, *args)

        def log(run, *args):
            real_log(run, *args)
            calls.append(dict(p.calls))

        passes = record_passes(monkeypatch, p)
        monkeypatch.setattr(solvers, "_gradient_step", step)
        monkeypatch.setattr(solvers._SolveRecord, "log", log)
        cfg = SolverConfig(eps=1e-9, max_iters=400, kappa=0.7)
        sol = run_solver(name, p, np.zeros(p.dim), cfg)
        discarded = set(discarded_rows(sol.trace, passes))
        assert discarded
        points = row_points(sol.trace, passes)
        for k, row in enumerate(sol.trace[1:], start=1):
            adjoint = calls[k]["apply_adjoint"] - calls[k - 1]["apply_adjoint"]
            assert adjoint == 1 + (k in discarded), k
            if row.step_kind == "grad":
                assert calls[k]["apply"] - calls[k - 1]["apply"] == 2, k
        for k in discarded:
            y, _ = points[k]
            assert sol.trace[k + 1].t == 1.0, k
            assert points[k + 1][0] is y and points[k + 1][1] is y
            if sol.trace[k + 1].step_kind != "coarse":
                assert anchors[k + 1].tobytes() == y.tobytes(), k

    @pytest.mark.parametrize("name", ["agm", "magma"])
    def test_not_applied_on_rows_anchored_at_y(self, name, monkeypatch):
        # an objective that reads higher at each call makes every row's
        # y_{k+1} look worse than y_k.  A row anchored at y (t = 1: the
        # first, and the first after each restart) keeps its step all the
        # same, or the run would take that step again forever; the row
        # after it discards its step, so the rows alternate
        p = bucket_instance(seed=3, m=200, n=128, lam=1e-5)
        real_value, calls = L1LeastSquares.value, []

        def rising(problem, x, r=None):
            calls.append(1)
            return real_value(problem, x, r) + len(calls)

        monkeypatch.setattr(L1LeastSquares, "value", rising)
        cfg = SolverConfig(eps=1e-12, max_iters=40, kappa=0.7)
        sol = run_solver(name, p, np.zeros(p.dim), cfg)
        trace = sol.trace
        assert len(trace) == cfg.max_iters
        assert [row.t == 1.0 for row in trace] \
            == [k % 2 == 0 for k in range(len(trace))]
        for k in range(1, len(trace)):
            assert (trace[k].F == trace[k - 1].F) == (k % 2 == 1), k


class TestSolverAgreement:
    def test_all_solvers_reach_same_objective(self):
        # desk-scale suite: every solver lands within 1e-7 of the others
        for seed in (0, 1):
            spec = ExperimentSpec(m=60, n=40, rho=0.7, k_true=3,
                                  corruption=0.15, noise=0.01, seed=seed,
                                  lam=1e-3)
            p, _, _ = gen_instance(spec)
            x0 = np.zeros(p.dim)
            cfg = SolverConfig(eps=1e-9, max_iters=60000, kappa=0.7)
            chain = build_chain(p.n_x, 2, bucket=True, m=p.m)
            vals = [
                ista(p, x0, cfg).objective,
                fista(p, x0, cfg).objective,
                agm(p, x0, cfg).objective,
                magma(p, chain, x0, cfg).objective,
            ]
            assert max(vals) - min(vals) <= 1e-7

    @pytest.mark.parametrize("max_iters", [40, 60000])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_objective_is_value_of_returned_point(self, bucket, max_iters):
        # every exit reports the objective it already holds for the point
        # it returns.  ista and fista form that point's residual with a
        # product, as F(x) does, so the two agree exactly; magma, and agm,
        # which is magma on the identity chain, take the residuals of their
        # anchors and coarse steps from combinations of earlier products.
        if bucket:
            spec = ExperimentSpec(m=60, n=40, rho=0.7, k_true=3,
                                  corruption=0.15, noise=0.01, seed=0,
                                  lam=1e-3)
            p, _, _ = gen_instance(spec)
        else:
            rng = np.random.default_rng(5)
            p = L1LeastSquares(rng.standard_normal((30, 20)),
                               rng.standard_normal(30), 0.1)
        cfg = SolverConfig(eps=1e-8, max_iters=max_iters, kappa=0.7)
        x0 = np.random.default_rng(7).standard_normal(p.dim) * 0.1
        for name in solvers.SOLVERS:
            sol = run_solver(name, p, x0, cfg)
            assert sol.converged == (max_iters > 40)
            if name in ("agm", "magma"):
                assert sol.objective == pytest.approx(p.value(sol.x),
                                                      rel=1e-12)
            else:
                assert sol.objective == p.value(sol.x)

    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_budget_exit_reports_stopping_test(self, name):
        # agm's best iterate passes the stopping test only at the budget
        # exit (||D|| = 9.37e-7 < eps); every solver must report it as
        # converged there, as magma with levels=1, kappa=1 does
        rng = np.random.default_rng(292)
        p = L1LeastSquares(rng.standard_normal((20, 12)),
                           rng.standard_normal(20), 0.1)
        x0 = rng.standard_normal(12)
        cfg = SolverConfig(eps=1e-6, max_iters=57, levels=1, kappa=1.0)
        sol = run_solver(name, p, x0, cfg)
        assert sol.converged == (sol.grad_map_norm < cfg.eps)
        if name in ("agm", "magma"):
            assert sol.iterations == 57 and sol.converged


class TestSolveEnd:
    """Every solver stops and reports through the same test and exits."""

    def _bucket(self, seed=0):
        spec = ExperimentSpec(m=60, n=40, rho=0.7, k_true=3, corruption=0.15,
                              noise=0.01, seed=seed, lam=1e-3)
        base, _, _ = gen_instance(spec)
        return CountingLasso(base.A, base.b, base.lam, bucket=True)

    @pytest.mark.parametrize("name, seed, budget", [
        pytest.param("fista", 5, 12, id="fista"),
        pytest.param("agm", 8, 13, id="agm"),
        pytest.param("magma", 7, 18, id="magma"),
    ])
    def test_budget_exit_returns_lowest_point(self, name, seed, budget,
                                              monkeypatch):
        # the exit returns the kept point, the lowest of the run, and
        # tests it with one product with B^T and no product with B.  At
        # its budget fista's last iterate is above its best (its 12th on
        # seed 5 by 3.6%), so its exit must go back to the kept point.
        # agm's and magma's function restart keeps their trace F from
        # rising, except by rounding on a row anchored at y (t = 1), so
        # their last iterate is their best (without it agm's 13th on
        # seed 8 was 1.7% above its best, and magma's 18th on seed 7
        # 0.04%)
        p = self._bucket(seed)
        cfg = SolverConfig(eps=1e-12, max_iters=budget, kappa=0.7)
        at_last_row = {}
        real_log = solvers._SolveRecord.log

        def log(run, *args, **kwargs):
            real_log(run, *args, **kwargs)
            at_last_row.update(p.calls)

        monkeypatch.setattr(solvers._SolveRecord, "log", log)
        x0 = np.zeros(p.dim)
        sol = run_solver(name, p, x0, cfg)
        after = dict(p.calls)
        F = [row.F for row in sol.trace]
        assert not sol.converged and sol.iterations == len(F) == budget
        assert min(F) < p.value(x0)
        if name == "fista":
            assert F[-1] > min(F)
        else:
            for prev, row in zip(F, sol.trace[1:]):
                assert row.F <= prev or (
                    row.t == 1.0 and row.F <= prev + 1e-12 * abs(prev))
            assert F[-1] == min(F)
        assert sol.objective == min(F)
        assert p.value(sol.x) == pytest.approx(sol.objective, rel=1e-12)
        assert after["apply_adjoint"] - at_last_row["apply_adjoint"] == 1
        assert after["apply"] == at_last_row["apply"]
        if name == "magma":
            assert sol.step_counts["coarse"] > 0

    @pytest.mark.parametrize("max_iters", [30, 40000])
    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_trace_clock(self, name, max_iters):
        # one clock times the trace and the solve: elapsed_ns never
        # decreases, and the last row comes before the end of the solve
        p = self._bucket()
        cfg = SolverConfig(eps=1e-6, max_iters=max_iters, kappa=0.7)
        sol = run_solver(name, p, np.zeros(p.dim), cfg)
        assert sol.converged == (max_iters > 30)
        ns = [row.elapsed_ns for row in sol.trace]
        assert all(isinstance(v, int) for v in ns)
        assert all(a <= b for a, b in zip(ns, ns[1:]))
        assert 0 <= ns[-1] <= sol.elapsed_s * 1e9


class TestSolveTallies:
    """A Solution's iterations, step counts, rejections and coarse events
    agree with its trace, at every exit."""

    @pytest.mark.parametrize("exit", ["start", "converged", "budget"])
    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_tallies_match_trace(self, name, exit):
        spec = ExperimentSpec(m=60, n=40, rho=0.7, k_true=3, corruption=0.15,
                              noise=0.01, seed=0, lam=1e-3)
        p, _, _ = gen_instance(spec)
        x0 = np.zeros(p.dim)
        if exit == "start":  # a point that passes the test below
            x0 = fista(p, x0, SolverConfig(eps=1e-6, max_iters=5000)).x
        cfg = SolverConfig(eps=1e-4, kappa=0.7,
                           max_iters=24 if exit == "budget" else 5000)
        sol = run_solver(name, p, x0, cfg)
        assert sol.converged == (exit != "budget")
        if exit == "start":  # every solver tests x0 before its first step
            assert sol.iterations == 0 and sol.trace == []
            assert np.array_equal(sol.x, x0)
        trace = sol.trace
        assert sol.iterations == len(trace)
        assert [row.k for row in trace] == list(range(len(trace)))
        coupled = name in ("agm", "magma")
        kinds = ("grad", "coarse", "fallback") if coupled else ("grad",)
        assert sol.step_counts == {
            kind: sum(row.step_kind == kind for row in trace)
            for kind in kinds}
        assert set(sol.rejections) == set(REJECTION_REASONS if coupled
                                          else ())
        assert sum(sol.rejections.values()) == \
            sol.step_counts.get("fallback", 0)
        assert len(sol.coarse_events) == sol.step_counts.get("coarse", 0)
        assert [e.k for e in sol.coarse_events] == \
            [row.k for row in trace if row.step_kind == "coarse"]
        if name == "magma" and exit != "start":
            assert sol.step_counts["coarse"] > 0


class TestAnchorWeight:
    """A row's t is the anchor weight min(1/(alpha eta), 1) of its own eta
    and alpha on every gradient and fallback row.  A coarse row steps
    from the same anchor: its t is the weight of the gradient branch's
    eta and alpha, formed from the row before's, or 1 after a restart
    (the seed pair), and its own eta and alpha are the coarse branch's at
    the accepted step."""

    @pytest.mark.parametrize("corruption", [0.0, 0.15],
                             ids=["plain", "bucket"])
    def test_t_is_weight_of_row_eta_alpha(self, corruption):
        spec = ExperimentSpec(m=60, n=40, rho=0.7, k_true=3,
                              corruption=corruption, noise=0.01, seed=0,
                              lam=1e-3)
        p, _, _ = gen_instance(spec)
        cfg = SolverConfig(eps=1e-5, kappa=0.5, max_iters=5000)
        for name in ("agm", "magma"):
            sol = run_solver(name, p, np.zeros(p.dim), cfg)
            assert sol.converged
            if name == "magma":
                assert sol.step_counts["coarse"] > 0
                assert sol.step_counts["fallback"] > 0
            rows = [row for row in sol.trace if row.step_kind != "coarse"]
            assert len(rows) == sol.step_counts["grad"] + \
                sol.step_counts["fallback"]
            for row in rows:
                assert row.t == min(1.0 / (row.alpha * row.eta), 1.0), row
            seed = (p.L_f, 1.0 / p.L_f)
            for prev, row in zip(sol.trace, sol.trace[1:]):
                if row.step_kind != "coarse":
                    continue
                eta, alpha = seed
                if (row.eta, row.alpha) != seed:
                    state = MagmaState(k=1, alpha=prev.alpha, eta=prev.eta)
                    eta, alpha = update_eta_alpha(state, "grad", None,
                                                  p.L_f, None, cfg)
                    assert (eta, alpha) != (row.eta, row.alpha), row
                assert row.t == min(1.0 / (alpha * eta), 1.0), row


class TestDualityGap:
    """Solution.gap bounds the objective error of the returned point."""

    @pytest.mark.parametrize("max_iters", [30, 40000])
    @pytest.mark.parametrize("bucket", [False, True])
    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_nonnegative(self, name, bucket, max_iters):
        if bucket:
            p = bucket_instance(seed=5, m=60, n=32, lam=0.05)
        else:
            p = random_lasso(np.random.default_rng(9), m=30, n=16, lam=0.2)
        cfg = SolverConfig(eps=1e-6, max_iters=max_iters, kappa=0.7)
        sol = run_solver(name, p, np.zeros(p.dim), cfg)
        assert sol.converged == (max_iters > 30)
        assert sol.gap >= -1e-12 * max(1.0, sol.objective)

    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_vanishes_at_a_tight_stop(self, name):
        p = random_lasso(np.random.default_rng(4), m=20, n=12, lam=0.3)
        cfg = SolverConfig(eps=1e-12, max_iters=200000, levels=1,
                           kappa=1.0)
        sol = run_solver(name, p, np.zeros(p.dim), cfg)
        assert sol.converged
        assert abs(sol.gap) <= 1e-10 * sol.objective

    @pytest.mark.parametrize("name", solvers.SOLVERS)
    def test_bounds_error_on_closed_form_instance(self, name):
        # A = diag(d): the minimizer is T_lam(d b) / d^2 entrywise, and
        # every budget-stopped run must report a gap >= F - F*
        d = np.linspace(0.2, 1.0, 8)
        b = np.array([2.0, -1.5, 0.3, 4.0, -0.1, 1.2, -3.0, 0.6])
        lam = 0.5
        p = L1LeastSquares(np.diag(d), b, lam)
        x_star = np.sign(d * b) * np.maximum(np.abs(d * b) - lam, 0) / d ** 2
        F_star = p.value(x_star)
        for max_iters in (1, 2, 5, 10, 20):
            cfg = SolverConfig(eps=1e-14, max_iters=max_iters)
            sol = run_solver(name, p, np.zeros(8), cfg)
            assert sol.gap >= sol.objective - F_star - 1e-12 * F_star
            if max_iters == 1:
                assert sol.objective - F_star > 1e-3
