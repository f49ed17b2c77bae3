import numpy as np
import pytest

from mgprox import (
    CoarseModel,
    L1LeastSquares,
    SmoothedView,
    build_chain,
    build_coarse_model,
)
from conftest import random_lasso

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
    """Reference chain: dense stencil products on a padded identity."""
    factor = 2 ** (levels - 1)
    n_pad = ((n + factor - 1) // factor) * factor
    R = np.eye(n_pad)
    size = n_pad
    for _ in range(levels - 1):
        R = _full_weighting(size) @ R
        size //= 2
    return R[:, :n]


class TestFullWeighting:
    def test_printed_stencil_n8(self):
        expected = 0.25 * np.array([
            [2, 1, 0, 0, 0, 0, 0, 0],
            [0, 1, 2, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 2, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 2, 1],
        ])
        assert np.array_equal(build_chain(8, 2).R_x, expected)

    def test_row_action_on_ones(self):
        assert np.allclose(build_chain(8, 2).R_x @ np.ones(8),
                           [0.75, 1, 1, 1])


class TestBuildChain:
    def test_two_levels_shape(self):
        chain = build_chain(8, 2)
        assert chain.R_x.shape == (4, 8)
        assert np.array_equal(chain.R_x, _full_weighting(8))

    def test_four_levels_single_coarse_var(self):
        chain = build_chain(8, 4)
        assert chain.n_H == 1
        assert chain.level_dims == [8, 4, 2, 1]

    def test_too_deep_reports_max_depth(self):
        with pytest.raises(ValueError, match="maximum feasible depth is 4"):
            build_chain(8, 5)

    def test_levels_one_is_identity(self):
        chain = build_chain(5, 1)
        assert chain.is_identity
        assert np.array_equal(chain.R_x, np.eye(5))

    def test_padding_keeps_stencil_valid(self):
        # n = 9 pads to 10 for one halving; columns beyond n are dropped
        chain = build_chain(9, 2)
        assert chain.R_x.shape == (5, 9)
        assert np.array_equal(chain.R_x, _full_weighting(10)[:, :9])

    def test_composed_is_product_of_stencils(self):
        chain = build_chain(16, 3)
        assert np.array_equal(chain.R_x,
                              _full_weighting(8) @ _full_weighting(16))

    @pytest.mark.parametrize("n, levels", [
        (10, 2), (256, 3), (1000, 4), (1023, 10)])
    def test_matches_dense_stencil_product_bitwise(self, n, levels):
        chain = build_chain(n, levels)
        assert np.array_equal(chain.R_x, _dense_chain(n, levels))
        assert chain.R_x.flags["C_CONTIGUOUS"]

    def test_large_chain_is_linear_in_n(self, rng):
        # the dense construction would need a 2 GB identity at this size
        n, levels = 2 ** 14, 8
        chain = build_chain(n, levels)
        n_H = n // 2 ** (levels - 1)
        assert chain.R_x.shape == (n_H, n)
        assert chain.R_x.nbytes == 8 * n_H * n
        assert chain.level_dims == [n >> k for k in range(levels)]
        for _ in range(5):
            w = rng.standard_normal(n)
            u = rng.standard_normal(n_H)
            lhs = chain.restrict(w) @ u
            assert abs(lhs - w @ chain.prolong(u)) <= 1e-12 * (1 + abs(lhs))

    def test_bucket_requires_m(self):
        with pytest.raises(ValueError):
            build_chain(8, 2, bucket=True, m=0)


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
        # P = R^T structurally: one stored operator for both directions
        chain = build_chain(8, 2)
        assert chain.prolong(np.eye(4)[0]) @ np.eye(8)[0] \
            == chain.R_x[0, 0]

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
            resid = np.linalg.norm(model.grad(model.anchor) - rhs)
            assert resid <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_coarse_dictionary_is_A_R_transpose(self, rng):
        p = random_lasso(rng, m=5, n=8)
        chain = build_chain(8, 2)
        A_H, _ = chain.coarse_dictionary(p)
        expected = np.column_stack(
            [p.A @ chain.R_x.T[:, j] for j in range(chain.n_H)])
        assert np.allclose(A_H, expected, atol=1e-14)

    def test_value_at_origin(self, rng):
        # w_H = 0, b = 0, v_H = 0: value reduces to lam * dim * mu_H
        A_H = rng.standard_normal((4, 3))
        model = CoarseModel(A_H, np.zeros(4), lam=0.5, mu_H=0.2, bucket=True,
                            v_H=np.zeros(7), anchor=np.zeros(7), L=1.0)
        assert model.value(np.zeros(7)) == pytest.approx(0.5 * 7 * 0.2)
        model_nb = CoarseModel(A_H, np.zeros(4), lam=0.5, mu_H=0.2,
                               bucket=False, v_H=np.zeros(3),
                               anchor=np.zeros(3), L=1.0)
        assert model_nb.value(np.zeros(3)) == pytest.approx(0.5 * 3 * 0.2)

    def test_finite_difference_gradient(self, rng):
        p = random_lasso(rng, m=6, n=8, bucket=True)
        chain = build_chain(8, 2, bucket=True, m=6)
        model = build_coarse_model(p, chain, rng.standard_normal(14), 1e-2)
        w = rng.standard_normal(model.dim)
        g = model.grad(w)
        h = 1e-6
        fd = np.array([
            (model.value(w + h * e) - model.value(w - h * e))
            / (2 * h) for e in np.eye(model.dim)])
        assert np.max(np.abs(g - fd)) <= 1e-4 * (1 + np.max(np.abs(g)))

    def test_linear_term_shift(self, rng):
        p = random_lasso(rng, m=6, n=8)
        chain = build_chain(8, 2)
        model = build_coarse_model(p, chain, rng.standard_normal(8), 1e-2)
        w = rng.standard_normal(model.dim)
        delta = rng.standard_normal(model.dim)
        before = model.value(w)
        model.v_H = model.v_H + delta
        assert model.value(w) - before == pytest.approx(
            float(delta @ w), rel=1e-12, abs=1e-12)

    def test_nonpositive_mu_rejected(self, rng):
        p = random_lasso(rng, m=5, n=8)
        chain = build_chain(8, 2)
        with pytest.raises(ValueError):
            build_coarse_model(p, chain, np.zeros(8), 0.0)


class TestCoarseLipschitz:
    def test_identity_dictionary_value(self):
        model = CoarseModel(np.eye(2), np.zeros(2), lam=1.0, mu_H=1.0,
                            bucket=False, v_H=np.zeros(2), anchor=np.zeros(2),
                            L=SAFETY * 1.0 + 1.0)
        assert model.lipschitz() == pytest.approx(SAFETY + 1.0)

    def test_lam_zero_limit_is_spectral_part(self, rng):
        p = random_lasso(rng, m=6, n=8, lam=0.0)
        chain = build_chain(8, 2)
        model = build_coarse_model(p, chain, np.zeros(8), 1.0)
        A_H, spectral = chain.coarse_dictionary(p)
        assert model.lipschitz() == pytest.approx(spectral)

    def test_small_random_vs_svd(self, rng):
        p = random_lasso(rng, m=7, n=8, bucket=True)
        chain = build_chain(8, 2, bucket=True, m=7)
        mu = 0.05
        model = build_coarse_model(p, chain, np.zeros(p.dim), mu)
        A_H, _ = chain.coarse_dictionary(p)
        dense = np.hstack([A_H, np.eye(7)])
        smax2 = np.linalg.svd(dense, compute_uv=False)[0] ** 2
        expected = SAFETY * smax2 + p.lam / mu
        assert model.lipschitz() == pytest.approx(expected, rel=1e-4)

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
        assert model.lipschitz() >= np.linalg.eigvalsh(hess)[-1]
