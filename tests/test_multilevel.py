import tracemalloc

import numpy as np
import pytest

from mgprox import (
    CoarseModel,
    L1LeastSquares,
    RestrictionChain,
    SmoothedView,
    build_chain,
    build_coarse_model,
)
from conftest import dense_prolongation, dense_restriction, random_lasso

SAFETY = 1.01


def _full_weighting(n):
    """Dense one-level full-weighting restriction, shape (n/2, n)."""
    nh = n // 2
    R = np.zeros((nh, n))
    R[0, 0] = 0.5
    R[0, 1] = 0.25
    for i in range(1, nh):
        R[i, 2 * i - 1] = 0.25
        R[i, 2 * i] = 0.5
        R[i, 2 * i + 1] = 0.25
    return R


def _dense_chain(n, levels):
    """Reference chain: dense stencil products on the padded size.

    The product is formed from the coarse end, so its cost stays near
    n_H n^2 flops; every entry is an exact dyadic rational in any order.
    """
    factor = 2 ** (levels - 1)
    n_H = (n + factor - 1) // factor
    R = np.eye(n_H)
    size = n_H
    for _ in range(levels - 1):
        size *= 2
        R = R @ _full_weighting(size)
    return R[:, :n]


class TestFullWeighting:
    def test_printed_stencil_n8(self):
        expected = 0.25 * np.array([
            [2, 1, 0, 0, 0, 0, 0, 0],
            [0, 1, 2, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 2, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 2, 1],
        ])
        assert np.array_equal(dense_restriction(build_chain(8, 2)), expected)

    def test_row_action_on_ones(self):
        assert np.allclose(build_chain(8, 2).restrict(np.ones(8)),
                           [0.75, 1, 1, 1])


class TestBuildChain:
    def test_two_levels_shape(self):
        chain = build_chain(8, 2)
        R = dense_restriction(chain)
        assert R.shape == (4, 8)
        assert np.array_equal(R, _full_weighting(8))

    def test_four_levels_single_coarse_var(self):
        chain = build_chain(8, 4)
        assert chain.n_H == 1
        assert dense_restriction(chain).shape == (1, 8)

    @pytest.mark.parametrize("n, bucket, m, problem", [
        (8, False, 0, dict(m=6, n=10)),
        (8, True, 4, dict(m=4, n=8)),
        (8, True, 4, dict(m=5, n=8, bucket=True)),
        (8, False, 0, dict(m=4, n=8, bucket=True))],
        ids=["n", "bucket_chain", "m", "plain_chain"])
    def test_coarse_dictionary_rejects_other_problem(self, rng, n, bucket,
                                                     m, problem):
        # a chain built for another size would restrict the first n
        # columns of A, or fail later in a product
        chain = build_chain(n, 2, bucket=bucket, m=m)
        p = random_lasso(rng, **problem)
        with pytest.raises(ValueError, match=(
                f"chain is for n={n}, bucket={bucket}, m={m}; problem has "
                f"n_x={p.n_x}, bucket={p.bucket}, m={p.m}")):
            chain.coarse_dictionary(p)
        assert len(chain._model_cache) == 0

    def test_too_deep_reports_max_depth(self):
        with pytest.raises(ValueError, match="maximum feasible depth is 4"):
            build_chain(8, 5)
        # a spec file may ask for any levels: no 2^(levels-1) is formed
        with pytest.raises(ValueError, match="maximum feasible depth is 4"):
            build_chain(8, 2 ** 62)

    def test_levels_one_is_identity(self):
        chain = build_chain(5, 1)
        assert chain.is_identity
        assert np.array_equal(dense_restriction(chain), np.eye(5))

    def test_padding_keeps_stencil_valid(self):
        # n = 9 pads to 10 for one halving; columns beyond n are dropped
        chain = build_chain(9, 2)
        R = dense_restriction(chain)
        assert R.shape == (5, 9)
        assert np.array_equal(R, _full_weighting(10)[:, :9])

    def test_composed_is_product_of_stencils(self):
        chain = build_chain(16, 3)
        assert np.array_equal(dense_restriction(chain),
                              _full_weighting(8) @ _full_weighting(16))

    @pytest.mark.parametrize("n, levels", [
        (10, 2), (256, 3), (1000, 4), (1023, 10), (4096, 6)])
    def test_matches_dense_stencil_product_bitwise(self, n, levels):
        # restricting and prolonging unit vectors both give the product
        chain = build_chain(n, levels)
        R = _dense_chain(n, levels)
        assert np.array_equal(dense_restriction(chain), R)
        assert np.array_equal(dense_prolongation(chain), R.T)

    @pytest.mark.parametrize("n, levels, bucket", [
        (256, 3, False), (1000, 4, False), (1023, 10, False),
        (4096, 6, False), (37, 3, True), (1024, 6, True)])
    def test_matches_dense_stencil_products_on_random_data(
            self, rng, n, levels, bucket):
        # the kernel sums in another order than a dense product, so
        # general inputs agree to rounding
        m = 7
        chain = build_chain(n, levels, bucket=bucket, m=m)
        R = _dense_chain(n, levels)
        p = random_lasso(rng, m=m, n=n, bucket=bucket)
        A_H, _ = chain.coarse_dictionary(p)
        expected = p.A @ R.T
        assert np.linalg.norm(A_H - expected) \
            <= 1e-14 * np.linalg.norm(expected)
        for _ in range(5):
            w = rng.standard_normal(chain.fine_dim)
            u = rng.standard_normal(chain.coarse_dim)
            Rw, Pu = R @ w[:n], R.T @ u[:chain.n_H]
            if bucket:
                Rw, Pu = np.concatenate([Rw, w[n:]]), np.concatenate(
                    [Pu, u[chain.n_H:]])
            assert np.linalg.norm(chain.restrict(w) - Rw) \
                <= 1e-14 * np.linalg.norm(Rw)
            assert np.linalg.norm(chain.prolong(u) - Pu) \
                <= 1e-14 * np.linalg.norm(Pu)

    def test_large_chain_is_linear_in_n(self, rng):
        # a dense R_x would take 16 MB at this size; the kernel takes 2 KB
        n, levels = 2 ** 14, 8
        tracemalloc.start()
        try:
            chain = build_chain(n, levels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        n_H = n // 2 ** (levels - 1)
        assert chain.n_H == n >> (levels - 1)
        for _ in range(5):
            w = rng.standard_normal(n)
            u = rng.standard_normal(n_H)
            lhs = chain.restrict(w) @ u
            assert abs(lhs - w @ chain.prolong(u)) <= 1e-12 * (1 + abs(lhs))

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_plain_operator_norm_below_default_kappa(self, n, levels):
        # ||R g|| <= ||R_x||_2 ||g|| with ||R_x||_2 just under
        # 2^(-(levels-1)/2), so on a plain problem the coarse condition
        # ||R g|| > kappa ||g|| cannot hold at the default kappa = 0.8
        norm = np.linalg.norm(dense_restriction(build_chain(n, levels)), 2)
        limit = 2.0 ** (-(levels - 1) / 2)
        assert limit - 1e-3 < norm <= limit

    def test_bucket_requires_m(self):
        with pytest.raises(ValueError):
            build_chain(8, 2, bucket=True, m=0)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((8, 0), {}, "levels must be >= 1"),
        ((0, 1), {}, "n must be >= 1"),
        ((8, 2), {"bucket": True},
         "bucket chains need the error-block size m"),
        ((8, 5), {}, "n=8 is too small for 5 levels; maximum feasible "
                     "depth is 4"),
    ], ids=["levels_zero", "n_zero", "bucket_without_m", "too_deep"])
    def test_constructor_rejects_bad_arguments(self, args, kwargs, message):
        # the constructor used to take any kernel and check nothing
        assert build_chain is RestrictionChain
        with pytest.raises(ValueError) as info:
            RestrictionChain(*args, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_constructor_derives_stencil(self, levels):
        chain = RestrictionChain(8, levels, bucket=True, m=3)
        f = 2 ** (levels - 1)
        assert (chain.n, chain.levels, chain.n_H) == (8, levels, 8 // f)
        assert chain.bucket and chain.m == 3
        assert np.array_equal(dense_restriction(chain),
                              _dense_chain(8, levels))


class TestTransfer:
    def test_restrict_zero(self):
        chain = build_chain(8, 2)
        assert np.array_equal(chain.restrict(np.zeros(8)), np.zeros(4))

    def test_adjoint_identity(self, rng):
        for levels, n in ((2, 8), (3, 16), (2, 9)):
            chain = build_chain(n, levels)
            for _ in range(20):
                w = rng.standard_normal(n)
                u = rng.standard_normal(chain.n_H)
                assert abs(chain.restrict(w) @ u - w @ chain.prolong(u)) \
                    <= 1e-12

    def test_bucket_adjoint_and_identity_block(self, rng):
        chain = build_chain(8, 2, bucket=True, m=5)
        w = rng.standard_normal(13)
        u = rng.standard_normal(9)
        assert abs(chain.restrict(w) @ u - w @ chain.prolong(u)) <= 1e-12
        # e-block passes through unchanged in both directions
        assert np.array_equal(chain.restrict(w)[4:], w[8:])
        assert np.array_equal(chain.prolong(u)[8:], u[4:])

    def test_prolongation_shares_restriction_array(self):
        # P = R^T structurally: one stored kernel for both directions
        for n, levels in ((8, 2), (9, 2), (37, 3), (64, 4)):
            chain = build_chain(n, levels)
            assert np.array_equal(dense_prolongation(chain),
                                  dense_restriction(chain).T)

    def test_dimension_mismatch(self):
        chain = build_chain(8, 2)
        with pytest.raises(ValueError):
            chain.restrict(np.zeros(7))
        with pytest.raises(ValueError):
            chain.prolong(np.zeros(5))


class TestCoarseModel:
    def test_degenerate_chain_gives_zero_correction(self, rng):
        p = random_lasso(rng, m=6, n=5)
        chain = build_chain(5, 1)
        model = build_coarse_model(p, chain, rng.standard_normal(5), 1e-2)
        assert np.max(np.abs(model.v_H)) <= 1e-12

    def test_zero_anchor_zero_data_gives_zero_correction(self, rng):
        A = rng.standard_normal((6, 8))
        p = L1LeastSquares(A, np.zeros(6), 0.3)
        chain = build_chain(8, 2)
        model = build_coarse_model(p, chain, np.zeros(8), 5e-2)
        assert np.max(np.abs(model.v_H)) <= 1e-14

    def test_first_order_coherence_100_random(self, rng):
        for _ in range(100):
            bucket = bool(rng.integers(2))
            p = random_lasso(rng, m=int(rng.integers(5, 12)),
                             n=int(rng.integers(4, 12)), bucket=bucket)
            levels = int(rng.integers(2, 4))
            if 2 ** (levels - 1) > p.n_x:
                levels = 2
            chain = build_chain(p.n_x, levels, bucket=bucket, m=p.m)
            x = rng.standard_normal(p.dim) * rng.uniform(0.2, 3)
            mu = float(rng.uniform(1e-3, 0.2))
            model = build_coarse_model(p, chain, x, mu)
            rhs = chain.restrict(SmoothedView(p, mu).grad(x))
            resid = np.linalg.norm(model.grad(model.start) - rhs)
            assert resid <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_coarse_dictionary_is_A_R_transpose(self, rng):
        p = random_lasso(rng, m=5, n=8)
        chain = build_chain(8, 2)
        A_H, _ = chain.coarse_dictionary(p)
        R = dense_restriction(chain)
        expected = np.column_stack(
            [p.A @ R[j] for j in range(chain.n_H)])
        assert np.allclose(A_H, expected, atol=1e-14)

    def test_value_at_origin(self, rng):
        # w_H = 0, b = 0 and a zero restricted gradient at the origin give
        # v_H = 0: value reduces to lam * dim * mu
        A = rng.standard_normal((4, 3))
        for bucket, dim in ((True, 7), (False, 3)):
            p = L1LeastSquares(A, np.zeros(4), 0.5, bucket=bucket)
            chain = build_chain(3, 1, bucket=bucket, m=4)
            model = CoarseModel(p, chain, np.zeros(dim), 0.2)
            assert np.array_equal(model.v_H, np.zeros(dim))
            assert model.value(model.lift(np.zeros(dim))) == pytest.approx(
                0.5 * dim * 0.2)

    @pytest.mark.parametrize("bucket", [False, True])
    def test_matches_dense_formula(self, rng, bucket):
        # the gradient at the start point, the anchor's, is the grad_H
        # passed in, and at random points value and grad match
        # 0.5||B_H w - b||^2 + g_mu(w) + <v_H, w> with the dense
        # B_H = [A_H, I] (bucket) or A_H
        p = random_lasso(rng, m=9, n=16, bucket=bucket)
        chain = build_chain(16, 3, bucket=bucket, m=p.m)
        A_H, _ = chain.coarse_dictionary(p)
        mu = 0.05
        x = rng.standard_normal(p.dim)
        grad_H = rng.standard_normal(chain.coarse_dim)
        model = CoarseModel(p, chain, x, mu, grad_H=grad_H)
        assert np.array_equal(model.start, model.lift(chain.restrict(x)))
        assert np.linalg.norm(model.grad(model.start) - grad_H) \
            <= 1e-12 * np.linalg.norm(grad_H)
        B_H = np.hstack([A_H, np.eye(p.m)]) if bucket else A_H
        for _ in range(20):
            w = rng.standard_normal(model.dim) * rng.uniform(0.1, 3)
            r = B_H @ w - p.b
            pen = np.sqrt(mu ** 2 + w ** 2)
            value = 0.5 * r @ r + p.lam * np.sum(pen) + model.v_H @ w
            grad = B_H.T @ r + p.lam * w / pen + model.v_H
            assert model.value(model.lift(w)) == pytest.approx(value,
                                                               rel=1e-12)
            assert np.linalg.norm(model.grad(model.lift(w)) - grad) \
                <= 1e-12 * np.linalg.norm(grad)

    def test_finite_difference_gradient(self, rng):
        p = random_lasso(rng, m=6, n=8, bucket=True)
        chain = build_chain(8, 2, bucket=True, m=6)
        model = build_coarse_model(p, chain, rng.standard_normal(14), 1e-2)
        w = rng.standard_normal(model.dim)
        g = model.grad(model.lift(w))
        h = 1e-6
        fd = np.array([
            (model.value(model.lift(w + h * e))
             - model.value(model.lift(w - h * e)))
            / (2 * h) for e in np.eye(model.dim)])
        assert np.max(np.abs(g - fd)) <= 1e-4 * (1 + np.max(np.abs(g)))

    def test_linear_term_shift(self, rng):
        p = random_lasso(rng, m=6, n=8)
        chain = build_chain(8, 2)
        model = build_coarse_model(p, chain, rng.standard_normal(8), 1e-2)
        w = rng.standard_normal(model.dim)
        delta = rng.standard_normal(model.dim)
        before = model.value(model.lift(w))
        model.v_H = model.v_H + delta
        assert model.value(model.lift(w)) - before == pytest.approx(
            float(delta @ w), rel=1e-12, abs=1e-12)

    def test_point_length_checked(self, rng):
        # value and grad read a point [w, r, B_H^T r + v_H], not w
        p = random_lasso(rng, m=6, n=8, bucket=True)
        chain = build_chain(8, 2, bucket=True, m=6)
        model = build_coarse_model(p, chain, rng.standard_normal(14), 1e-2)
        assert model.start.shape == (2 * model.dim + model.m,)
        for method in (model.value, model.grad):
            with pytest.raises(ValueError, match="length"):
                method(model.anchor)

    @pytest.mark.parametrize("bucket", [False, True])
    def test_constructor_takes_system_and_anchor_from_chain(self, rng,
                                                            bucket):
        # the one way to build a model: its A_H is the chain's cached
        # object and its L the chain's L_H at its mu
        assert build_coarse_model is CoarseModel
        p = random_lasso(rng, m=9, n=16, bucket=bucket)
        chain = build_chain(16, 3, bucket=bucket, m=p.m)
        x, mu = rng.standard_normal(p.dim), 0.05
        model = build_coarse_model(p, chain, x, mu)
        A_H, L_H = chain.coarse_system(p, mu)
        assert model.A_H is A_H and model.L == L_H
        assert np.array_equal(model.anchor, chain.restrict(x))

    def test_nonpositive_mu_rejected(self, rng):
        p = random_lasso(rng, m=5, n=8)
        chain = build_chain(8, 2)
        with pytest.raises(ValueError):
            build_coarse_model(p, chain, np.zeros(8), 0.0)


class TestCoarseLipschitz:
    def test_identity_dictionary_value(self):
        p = L1LeastSquares(np.eye(2), np.zeros(2), 1.0)
        model = CoarseModel(p, build_chain(2, 1), np.zeros(2), 1.0)
        assert model.L == pytest.approx(SAFETY + 1.0)

    def test_lam_zero_limit_is_spectral_part(self, rng):
        p = random_lasso(rng, m=6, n=8, lam=0.0)
        chain = build_chain(8, 2)
        model = build_coarse_model(p, chain, np.zeros(8), 1.0)
        A_H, spectral = chain.coarse_dictionary(p)
        assert model.L == pytest.approx(spectral)

    def test_small_random_vs_svd(self, rng):
        p = random_lasso(rng, m=7, n=8, bucket=True)
        chain = build_chain(8, 2, bucket=True, m=7)
        mu = 0.05
        model = build_coarse_model(p, chain, np.zeros(p.dim), mu)
        A_H, _ = chain.coarse_dictionary(p)
        dense = np.hstack([A_H, np.eye(7)])
        smax2 = np.linalg.svd(dense, compute_uv=False)[0] ** 2
        expected = SAFETY * smax2 + p.lam / mu
        assert model.L == pytest.approx(expected, rel=1e-4)

    def test_upper_bounds_true_curvature(self, rng):
        # L_H must dominate the largest Hessian eigenvalue of the model
        p = random_lasso(rng, m=6, n=8)
        chain = build_chain(8, 2)
        mu = 0.1
        model = build_coarse_model(p, chain, rng.standard_normal(8), mu)
        A_H, _ = chain.coarse_dictionary(p)
        w = rng.standard_normal(model.dim) * 0.1
        hess = A_H.T @ A_H + np.diag(
            p.lam * mu ** 2 / (mu ** 2 + w ** 2) ** 1.5)
        assert model.L >= np.linalg.eigvalsh(hess)[-1]
