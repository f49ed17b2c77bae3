import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgprox import problem as problem_module
from mgprox import (
    L1LeastSquares,
    SmoothedView,
    build_chain,
    build_coarse_model,
    gradient_mapping,
    lipschitz_estimate,
    mirror_step,
    power_iteration,
    prog,
    prox_step,
    soft_threshold,
    fista,
    SolverConfig,
)
from conftest import one_d_lasso, random_lasso

SAFETY = 1.01


class TestGradF:
    def test_identity_dictionary(self):
        p = L1LeastSquares(np.eye(2), np.zeros(2), 0.1)
        assert np.allclose(p.f_grad(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_hand_multiply(self):
        p = L1LeastSquares(np.array([[1.0, 0.0], [0.0, 2.0]]),
                           np.array([1.0, 1.0]), 0.1)
        assert np.allclose(p.f_grad(np.zeros(2)), [-1.0, -2.0])

    def test_bucket_blockwise(self):
        # r = 1*1 + 1 - 3 = -1, gradient blocks [A^T r, r]
        p = L1LeastSquares(np.eye(1), np.array([3.0]), 0.1, bucket=True)
        assert np.allclose(p.f_grad(np.array([1.0, 1.0])), [-1.0, -1.0])

    def test_bucket_matches_dense_augmentation(self, rng):
        p = random_lasso(rng, m=6, n=4, bucket=True)
        B = np.hstack([p.A, np.eye(6)])
        w = rng.standard_normal(10)
        dense = B.T @ (B @ w - p.b)
        assert np.allclose(p.f_grad(w), dense, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = one_d_lasso()
        with pytest.raises(ValueError):
            p.f_grad(np.zeros(3))


class TestProxStep:
    def test_soft_threshold_by_one(self):
        # b = A x makes grad f vanish at x, so prox is plain shrinkage
        p = L1LeastSquares(np.ones((1, 3)), np.array([1.5]), 1.0)
        out = prox_step(p, np.array([2.0, -0.5, 0.0]), 1.0)
        assert np.allclose(out, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("t", [1e-6, 0.0, 1.0, 5e-324])
    def test_soft_threshold_matches_sign_abs_formula(self, rng, t):
        # the clip form agrees with sgn(v) (|v| - t)_+ entry for entry,
        # NaN and +-inf included; == does not see the sign of a zero
        tiny = np.finfo(float).smallest_subnormal
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, t, -t,
                          np.nextafter(t, np.inf), np.nextafter(-t, -np.inf),
                          tiny, -tiny, 1e-310, -1e-310, 3 * tiny])
        v = np.concatenate([edges, rng.standard_normal(500) * t,
                            rng.standard_normal(500) * 10.0 ** rng.uniform(
                                -320, 300, 500)])
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        np.testing.assert_array_equal(soft_threshold(v, t), expected)

    def test_smooth_case_is_gradient_step(self, rng):
        p = random_lasso(rng, lam=0.0)
        x = rng.standard_normal(p.dim)
        out = prox_step(p, x, p.L_f)
        assert np.allclose(out, x - p.f_grad(x) / p.L_f, atol=1e-14)

    def test_one_d_closed_form(self):
        p = one_d_lasso()
        assert np.allclose(prox_step(p, np.zeros(1), 1.0), [1.0])

    def test_matches_grid_oracle_on_1d_slices(self, rng):
        # prox must be the exact minimizer of the prox subproblem
        for _ in range(20):
            p = one_d_lasso(a=float(rng.uniform(0.5, 2)),
                            b=float(rng.uniform(-3, 3)),
                            lam=float(rng.uniform(0.05, 2)))
            x = rng.standard_normal(1) * 2
            L = float(rng.uniform(0.5, 4))
            y_star = prox_step(p, x, L)
            gfx = p.f_grad(x)

            def obj(y):
                return 0.5 * L * (y - x[0]) ** 2 + gfx[0] * (y - x[0]) \
                    + p.lam * abs(y)

            grid = np.linspace(y_star[0] - 1.0, y_star[0] + 1.0, 20001)
            assert obj(y_star[0]) <= np.min([obj(y) for y in grid]) + 1e-9

    def test_nonpositive_L_rejected(self):
        with pytest.raises(ValueError):
            prox_step(one_d_lasso(), np.zeros(1), 0.0)


class TestProg:
    def test_smooth_case_value(self, rng):
        p = random_lasso(rng, lam=0.0)
        x = rng.standard_normal(p.dim)
        g = p.f_grad(x)
        L = 2.5
        assert prog(p, x, L) == pytest.approx(float(g @ g) / (2 * L), rel=1e-12)

    def test_zero_at_fixed_point(self):
        p = one_d_lasso()
        assert prog(p, np.ones(1), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_one_d_hand_value(self):
        assert prog(one_d_lasso(), np.zeros(1), 1.0) == pytest.approx(0.5)

    def test_nonnegative(self, rng):
        for _ in range(50):
            p = random_lasso(rng)
            x = rng.standard_normal(p.dim) * 3
            assert prog(p, x, p.L_f) >= -1e-12


class TestGradientMapping:
    def test_vanishes_at_high_precision_solution(self, rng):
        p = random_lasso(rng, m=20, n=10, lam=0.2)
        sol = fista(p, np.zeros(p.dim), SolverConfig(eps=1e-12, max_iters=20000))
        assert sol.converged
        assert np.linalg.norm(gradient_mapping(p, sol.x)) <= 1e-10

    def test_smooth_case_is_scaled_gradient(self, rng):
        p = random_lasso(rng, lam=0.0)
        x = rng.standard_normal(p.dim)
        assert np.allclose(gradient_mapping(p, x), p.f_grad(x) / p.L_f,
                           atol=1e-14)

    def test_one_d_zero_at_minimizer(self):
        assert np.allclose(gradient_mapping(one_d_lasso(), np.ones(1)), [0.0],
                           atol=1e-15)


class TestValue:
    @pytest.mark.parametrize("bucket", [False, True])
    def test_residual_given_is_bitwise(self, rng, bucket):
        # F(x) from a residual the caller holds is the F(x) that forms it,
        # and is f(x) + g(x)
        for _ in range(50):
            p = random_lasso(rng, bucket=bucket)
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 3)
            F = p.value(x)
            assert p.value(x, p.residual(x)) == F
            assert F == p.f_value(x) + p.g_value(x)

    def test_residual_given_makes_no_product(self, monkeypatch):
        p = random_lasso(np.random.default_rng(2), m=6, n=4)
        x, r = np.ones(4), p.residual(np.ones(4))
        monkeypatch.setattr(p, "apply", None)
        assert p.value(x, r) == 0.5 * float(r @ r) + p.g_value(x)


class TestResidualsAndGradient:
    """The one-pass residuals and gradient against separate products."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 9), bucket=st.booleans(),
           two=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           t=st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True,
                                 exclude_max=True)),
           rows=st.one_of(st.none(), st.integers(0, 12)))
    def test_matches_separate_products(self, m, n, bucket, two, seed, t,
                                       rows):
        # rows None keeps the default block size, which holds all of A
        # here; otherwise the block size is that of `rows` rows of A (0:
        # less than one row), which splits most A into several blocks, the
        # last often shorter than the others
        rng = np.random.default_rng(seed)
        p = L1LeastSquares(rng.standard_normal((m, n)),
                           rng.standard_normal(m), 0.1, bucket=bucket)
        y = rng.standard_normal(p.dim)
        z = rng.standard_normal(p.dim) if two else None
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(problem_module, "PASS_BLOCK_BYTES",
                           max(rows * 8 * n, 8 * n - 1))
            out = p.residuals_and_gradient(y, z, t)
        if two:
            # the two points share one matrix-matrix product per block,
            # which rounds otherwise than A @ w: each entry is within
            # 1e-13 of the size of the terms it sums
            r_y, r_z, r_x, g = out
            for w, r in ((y, r_y), (z, r_z)):
                scale = np.abs(p.A) @ np.abs(w[:n]) + np.abs(p.b)
                if bucket:
                    scale += np.abs(w[n:])
                assert np.all(np.abs(r - p.residual(w)) <= 1e-13 * scale)
            assert np.array_equal(r_x, t * r_z + (1.0 - t) * r_y)
        else:
            r_y, g = out
            r_x = r_y
            assert np.array_equal(r_y, p.residual(y))
        ref = p.apply_adjoint(r_x)
        if rows is None:
            assert np.array_equal(g, ref)
        else:
            # blocks change only the order of summation: each entry of
            # B^T r_x is within 1e-13 of the size of the terms it sums
            scale = np.abs(p.A).T @ np.abs(r_x)
            if bucket:
                scale = np.concatenate([scale, np.abs(r_x)])
            assert np.all(np.abs(g - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("m", [9, 13, 16, 17])
    def test_blocks_of_four_rows(self, m, monkeypatch):
        # a block smaller than a row still takes 4 rows, and a last block
        # of one row joins the block before it; the problem is built
        # before the spy, since its Lipschitz estimate makes passes too
        monkeypatch.setattr(problem_module, "PASS_BLOCK_BYTES", 1)
        p = L1LeastSquares(np.ones((m, 3)), np.ones(m), 0.1)
        seen = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda a, *args, **kwargs:
                            seen.append(len(a)) or real(a, *args, **kwargs))
        p.residuals_and_gradient(np.ones(3))
        assert seen == {9: [4, 5], 13: [4, 4, 5], 16: [4, 4, 4, 4],
                        17: [4, 4, 4, 5]}[m]

    @pytest.mark.parametrize("bucket", [False, True])
    @pytest.mark.parametrize("block_bytes, edges", [
        (None, [0, 10]), (1, [0, 4, 8, 10])])
    def test_two_points_one_product_per_block(self, bucket, block_bytes,
                                              edges, monkeypatch):
        # a view of A that records the operand shapes of every matmul it
        # takes part in; block_bytes 1 gives blocks of 4 rows
        calls = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    calls.append(tuple(np.shape(a) for a in inputs))
                return getattr(ufunc, method)(
                    *(np.asarray(a) for a in inputs), **kwargs)

        rng = np.random.default_rng(3)
        n = 3
        p = L1LeastSquares(rng.standard_normal((10, n)),
                           rng.standard_normal(10), 0.1, bucket=bucket)
        if block_bytes is not None:
            monkeypatch.setattr(problem_module, "PASS_BLOCK_BYTES",
                                block_bytes)
        monkeypatch.setattr(p, "A", p.A.view(Spy))
        p.residuals_and_gradient(rng.standard_normal(p.dim),
                                 rng.standard_normal(p.dim), 0.3)
        expected = []
        for lo, hi in zip(edges, edges[1:]):
            # both points' residuals, then the block's share of B^T r_x
            expected += [((2, n), (n, hi - lo)), ((n, hi - lo), (hi - lo,))]
        assert calls == expected

    def test_rejects_wrong_length(self):
        p = random_lasso(np.random.default_rng(1), m=5, n=3)
        with pytest.raises(ValueError, match="length 3"):
            p.residuals_and_gradient(np.ones(3), np.ones(4))


class TestDualityGap:
    def test_zero_at_closed_form_minimizer(self):
        # A = I: x* = T_lam(b), and theta = B x* - b is dual optimal
        b = np.array([3.0, -0.5, 0.2, -2.0])
        p = L1LeastSquares(np.eye(4), b, 1.0)
        x = soft_threshold(b, 1.0)
        r = p.residual(x)
        assert p.duality_gap(p.value(x, r), r, p.apply_adjoint(r)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_infeasible_residual_is_scaled(self):
        # at x = 0, ||B^T r||_inf = 3 > lam = 1, so theta = r/3
        b = np.array([3.0, -0.5])
        p = L1LeastSquares(np.eye(2), b, 1.0)
        x = np.zeros(2)
        r = p.residual(x)
        theta = r / 3.0
        expected = p.value(x) + theta @ b + 0.5 * theta @ theta
        assert p.duality_gap(p.value(x), r, p.apply_adjoint(r)) \
            == pytest.approx(expected, rel=1e-15)

    def test_zero_gradient_without_penalty(self):
        # lam = 0 and g = 0: theta = r, gap = F + <r, b> + ||r||^2/2 = 0
        # for the least-squares solution
        p = L1LeastSquares(np.eye(2), np.array([1.0, 2.0]), 0.0)
        x = np.array([1.0, 2.0])
        r = p.residual(x)
        assert p.duality_gap(p.value(x, r), r, p.apply_adjoint(r)) == 0.0


class TestSmoothing:
    def test_value_at_origin(self):
        # g_mu(0) = lam * n * mu on top of f(0) = 0, since b = 0
        p = L1LeastSquares(np.ones((1, 3)), np.zeros(1), 1.0)
        view = SmoothedView(p, 0.1)
        assert view.value(np.zeros(3)) == pytest.approx(0.3)

    def test_grad_zero_at_origin(self):
        # grad f(0) = -A^T b = 0, since b = 0
        p = L1LeastSquares(np.ones((2, 4)), np.zeros(2), 0.7)
        view = SmoothedView(p, 0.05)
        assert np.allclose(view.grad(np.zeros(4)), 0.0)

    def test_sandwich_200_points(self, rng):
        for _ in range(200):
            p = random_lasso(rng)
            mu = float(rng.uniform(1e-4, 0.5))
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 4)
            gap = SmoothedView(p, mu).g_value(x) - p.g_value(x)
            assert -1e-12 <= gap <= p.lam * p.dim * mu + 1e-12

    def test_finite_difference_gradient(self, rng):
        h = 1e-6
        for _ in range(50):
            p = random_lasso(rng)
            view = SmoothedView(p, float(rng.uniform(1e-3, 0.3)))
            x = rng.standard_normal(p.dim)
            g = view.grad(x)
            fd = np.array([
                (view.value(x + h * e) - view.value(x - h * e)) / (2 * h)
                for e in np.eye(p.dim)])
            assert np.max(np.abs(g - fd)) <= 1e-4 * (1 + np.max(np.abs(g)))

    def test_gradient_lipschitz_lam_over_mu(self, rng):
        # the l1 smoothing has exactly (lam/mu)-Lipschitz gradient
        for _ in range(100):
            p = random_lasso(rng)
            mu = float(rng.uniform(1e-3, 0.5))
            view = SmoothedView(p, mu)
            u = rng.standard_normal(p.dim) * 2
            v = rng.standard_normal(p.dim) * 2
            lhs = np.linalg.norm(view.g_grad(u) - view.g_grad(v))
            assert lhs <= (p.lam / mu) * np.linalg.norm(u - v) * (1 + 1e-10)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            SmoothedView(one_d_lasso(), 0.0)


class TestGradientDescentGuarantee:
    def test_200_random_pairs(self, rng):
        for _ in range(200):
            p = random_lasso(rng, bucket=bool(rng.integers(2)))
            x = rng.standard_normal(p.dim) * rng.uniform(0.1, 3)
            y = prox_step(p, x, p.L_f)
            assert p.value(y) <= p.value(x) - prog(p, x, p.L_f) + 1e-10


class TestGradientLipschitz:
    def test_sampled_pairs(self, rng):
        for _ in range(100):
            p = random_lasso(rng, bucket=bool(rng.integers(2)))
            u = rng.standard_normal(p.dim) * 3
            v = rng.standard_normal(p.dim) * 3
            lhs = np.linalg.norm(p.f_grad(u) - p.f_grad(v))
            assert lhs <= p.L_f * np.linalg.norm(u - v) * (1 + 1e-12)


class TestProxNonexpansive:
    def test_random_pairs(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 20))
            u, v = rng.standard_normal(n), rng.standard_normal(n)
            t = float(rng.uniform(0.01, 3))
            assert np.linalg.norm(soft_threshold(u, t) - soft_threshold(v, t)) \
                <= np.linalg.norm(u - v) + 1e-12


class TestLipschitzEstimate:
    def test_identity(self):
        p = L1LeastSquares(np.eye(4), np.zeros(4), 0.1)
        assert p.L_f == pytest.approx(SAFETY, rel=1e-6)

    def test_diagonal(self):
        p = L1LeastSquares(np.diag([1.0, 3.0]), np.zeros(2), 0.1)
        assert p.L_f == pytest.approx(9.0 * SAFETY, rel=1e-6)

    def test_random_matches_svd(self, rng):
        A = rng.standard_normal((20, 30))
        p = L1LeastSquares(A, np.zeros(20), 0.1)
        smax2 = np.linalg.svd(A, compute_uv=False)[0] ** 2
        assert lipschitz_estimate(p) / SAFETY == pytest.approx(smax2, rel=1e-4)

    def test_bucket_matches_svd_of_augmented(self, rng):
        A = rng.standard_normal((8, 5))
        p = L1LeastSquares(A, np.zeros(8), 0.1, bucket=True)
        B = np.hstack([A, np.eye(8)])
        smax2 = np.linalg.svd(B, compute_uv=False)[0] ** 2
        assert p.L_f / SAFETY == pytest.approx(smax2, rel=1e-4)

    def test_estimate_is_upper_bound(self, rng):
        for _ in range(20):
            A = rng.standard_normal((10, 7))
            p = L1LeastSquares(A, np.zeros(10), 0.1)
            smax2 = np.linalg.svd(A, compute_uv=False)[0] ** 2
            assert p.L_f >= smax2

    def test_nonconvergence_warns_with_best_estimate(self):
        # two equal top eigenvalues make the Rayleigh quotient stall only
        # in contrived cases; force the warning with a tiny budget instead
        op = np.diag([3.0, 1.0])
        with pytest.warns(RuntimeWarning):
            est, ok = power_iteration(lambda v: op @ v, 2, rel_tol=1e-16,
                                      max_iters=2)
        assert not ok
        assert est > 0

    @pytest.mark.parametrize("out", [
        np.array([1.0, np.nan, 2.0]), np.array([np.inf, 0.0, 1.0]),
        np.array([np.inf, -np.inf, 0.0]), np.full(3, 1e200)])
    def test_non_finite_output_stops_at_once(self, out):
        # a NaN or an infinity in the output, or a norm that overflows,
        # is returned at the first call, with no warning
        calls = []

        def op(v):
            calls.append(v)
            return out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, ok = power_iteration(op, 3)
        assert len(calls) == 1 and not ok and not np.isfinite(est)

    @pytest.mark.parametrize("bucket", [False, True])
    @pytest.mark.parametrize("m, n", [(40, 10), (37, 6), (9, 30)])
    def test_one_pass_per_step(self, m, n, bucket, monkeypatch):
        # each step forms B^T B v in one pass over A: with A one block it
        # is apply_adjoint(apply(v)) bit for bit; blocks of 4 rows change
        # only the order of summation of B^T r
        A = np.random.default_rng(m * n).standard_normal((m, n))
        p = L1LeastSquares(A, np.zeros(m), 0.1, bucket=bucket)
        est, ok = power_iteration(lambda v: p.apply_adjoint(p.apply(v)),
                                  p.dim)
        assert ok and p.L_f == SAFETY * est
        monkeypatch.setattr(problem_module, "PASS_BLOCK_BYTES", 1)
        blocked = L1LeastSquares(A, np.zeros(m), 0.1, bucket=bucket)
        assert blocked.L_f == pytest.approx(p.L_f, rel=1e-15, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", [
    "prox_step", "prog", "g_prox", "mirror_step", "SmoothedView",
    "build_coarse_model"])
def test_step_constant_must_be_finite_and_positive(entry, bad):
    p = L1LeastSquares(np.eye(2), np.ones(2), 0.1)
    x = np.zeros(2)
    call = {
        "prox_step": lambda: prox_step(p, x, bad),
        "prog": lambda: prog(p, x, bad),
        "g_prox": lambda: p.g_prox(x, bad),
        "mirror_step": lambda: mirror_step(p, x, np.ones(2), bad),
        "SmoothedView": lambda: SmoothedView(p, bad),
        "build_coarse_model": lambda: build_coarse_model(
            p, build_chain(2, 2), x, bad),
    }[entry]
    with pytest.raises(ValueError, match="must be finite and positive"):
        call()


class TestConstruction:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            L1LeastSquares(np.ones((2, 2)), np.ones(3), 0.1)
        with pytest.raises(ValueError):
            L1LeastSquares(np.ones(4), np.ones(2), 0.1)
        with pytest.raises(ValueError):
            L1LeastSquares(np.ones((2, 2)), np.ones(2), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected_by_name(self, bad):
        A = np.ones((3, 2))
        A[1, 0] = bad
        with pytest.raises(ValueError, match="^A has 1 non-finite"):
            L1LeastSquares(A, np.ones(3), 0.1)
        b = np.ones(3)
        b[2] = bad
        with pytest.raises(ValueError, match="^b has 1 non-finite"):
            L1LeastSquares(np.ones((3, 2)), b, 0.1, bucket=True)
        with pytest.raises(ValueError, match="^A has 1 non-finite"):
            L1LeastSquares(A, b, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 9), bucket=st.booleans(),
           blocked=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           planted=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                      st.sampled_from([np.nan, np.inf,
                                                       -np.inf])),
                            min_size=1, max_size=6))
    def test_non_finite_dictionary_counted(self, m, n, bucket, blocked,
                                           seed, planted):
        # A NaN or an infinity anywhere in A, with A one block or blocks
        # of 4 rows, is rejected with the count of such entries, and no
        # numpy warning escapes the power iteration that finds it
        A = np.random.default_rng(seed).standard_normal((m, n))
        for k, bad in planted:
            A.flat[k % A.size] = bad
        count = int(np.sum(~np.isfinite(A)))
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            if blocked:
                mp.setattr(problem_module, "PASS_BLOCK_BYTES", 1)
            with pytest.raises(ValueError) as info:
                L1LeastSquares(A, np.ones(m), 0.1, bucket=bucket)
        assert str(info.value) == \
            f"A has {count} non-finite entries (NaN or Inf)"

    @pytest.mark.parametrize("scale", [1e100, 1e200])
    @pytest.mark.parametrize("bucket", [False, True])
    def test_overflowing_dictionary_rejected(self, scale, bucket):
        # A is finite, but B^T B v (1e200) or its norm (1e100) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^L_f overflows"):
                L1LeastSquares(np.full((5, 3), scale), np.ones(5), 0.1,
                               bucket=bucket)

    @pytest.mark.parametrize("shape", [(4, 0), (0, 3)])
    def test_empty_dictionary_rejected(self, shape):
        with pytest.raises(ValueError, match="at least one row and one column"):
            L1LeastSquares(np.zeros(shape), np.zeros(shape[0]), 0.1)

    def test_zero_dictionary_rejected(self):
        # f is constant, so L_f = 0 and no prox step 1/L_f exists
        with pytest.raises(ValueError, match="L_f is 0"):
            L1LeastSquares(np.zeros((4, 3)), np.ones(4), 0.1)
        # the identity block of B = [A, I] keeps L_f at 1
        p = L1LeastSquares(np.zeros((4, 3)), np.ones(4), 0.1, bucket=True)
        assert p.L_f == pytest.approx(SAFETY, rel=1e-6)

    def test_bucket_effective_dimension(self):
        p = L1LeastSquares(np.ones((3, 2)), np.ones(3), 0.1, bucket=True)
        assert p.dim == 5
