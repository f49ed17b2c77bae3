import numpy as np
import pytest

from mgprox import mirror_step, prog, prox_step
from conftest import random_lasso


class TestMirrorStep:
    def test_stationary_with_zero_direction(self, rng):
        p = random_lasso(rng, lam=0.0)
        z = rng.standard_normal(p.dim)
        out = mirror_step(p, z, np.zeros(p.dim), 0.5)
        assert np.allclose(out, z)

    def test_smooth_translation(self, rng):
        p = random_lasso(rng, n=2, lam=0.0)
        out = mirror_step(p, np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.5)
        assert np.allclose(out, [0.5, 1.0])

    def test_l1_soft_threshold(self, rng):
        p = random_lasso(rng, n=2, lam=1.0)
        out = mirror_step(p, np.array([2.0, 0.0]), np.zeros(2), 1.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_coincides_with_prox_at_inverse_lipschitz_step(self, rng):
        for _ in range(30):
            p = random_lasso(rng, bucket=bool(rng.integers(2)))
            x = rng.standard_normal(p.dim)
            lhs = mirror_step(p, x, p.f_grad(x), 1.0 / p.L_f)
            assert np.allclose(lhs, prox_step(p, x, p.L_f), atol=1e-14)

    def test_nonpositive_alpha_rejected(self, rng):
        p = random_lasso(rng)
        with pytest.raises(ValueError):
            mirror_step(p, np.zeros(p.dim), np.zeros(p.dim), 0.0)

    def test_shape_mismatch_rejected(self, rng):
        p = random_lasso(rng, n=4)
        with pytest.raises(ValueError):
            mirror_step(p, np.zeros(4), np.zeros(3), 1.0)


class TestMirrorDescentGuarantee:
    def test_100_random_triples(self, rng):
        # alpha (F(x) - F(u)) <= alpha^2 L prog + V_x(u) - V_x+(u)
        for _ in range(100):
            p = random_lasso(rng, bucket=bool(rng.integers(2)))
            L = p.L_f
            x = rng.standard_normal(p.dim) * rng.uniform(0.2, 3)
            u = rng.standard_normal(p.dim) * rng.uniform(0.2, 3)
            alpha = float(rng.uniform(0.02, 1.0)) / L
            xp = mirror_step(p, x, p.f_grad(x), alpha)
            lhs = alpha * (p.value(x) - p.value(u))
            # Euclidean Bregman terms V_x(u) - V_xp(u)
            rhs = alpha ** 2 * L * prog(p, x, L) \
                + 0.5 * np.sum((x - u) ** 2) - 0.5 * np.sum((xp - u) ** 2)
            assert lhs <= rhs + 1e-8
