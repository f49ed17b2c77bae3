import numpy as np
import pytest

from mgprox import (ExperimentSpec, gen_instance, metric_inner, mirror_step,
                    prog, prox_step)
from conftest import metric_prog, random_lasso


class TestMirrorStep:
    def test_stationary_with_zero_direction(self, rng):
        p = random_lasso(rng, lam=0.0)
        z = rng.standard_normal(p.dim)
        out = mirror_step(p, z, np.zeros(p.dim), 0.5)
        assert np.allclose(out, z)

    # the next three are the Euclidean step, on instances whose metric is
    # L_f I (a = L_f), so M = I

    def test_smooth_translation(self, rng):
        p = random_lasso(rng, m=30, n=3, lam=0.0)
        assert p.a == p.L_f
        out = mirror_step(p, np.ones(3), np.array([1.0, 0.0, 0.0]), 0.5)
        assert np.allclose(out, [0.5, 1.0, 1.0])

    def test_l1_soft_threshold(self, rng):
        p = random_lasso(rng, m=30, n=3, lam=1.0)
        assert p.a == p.L_f
        out = mirror_step(p, np.array([2.0, 0.0, -0.5]), np.zeros(3), 1.0)
        assert np.allclose(out, [1.0, 0.0, 0.0])

    def test_coincides_with_prox_at_inverse_lipschitz_step(self, rng):
        for _ in range(30):
            p = random_lasso(rng, m=30, n=20, bucket=bool(rng.integers(2)))
            assert p.a == p.L_f
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


def spiked_bucket(seed):
    """A 60x40 bucket instance of the benchmark's family, whose metric
    V = a (I - v v^T) + L_f v v^T has a < L_f."""
    spec = ExperimentSpec(m=60, n=40, rho=0.9, k_true=4, corruption=0.15,
                          noise=0.01, seed=seed, lam=0.05)
    p, _, _ = gen_instance(spec)
    assert p.a < p.L_f
    return p


class TestMirrorDescentGuarantee:
    def test_100_random_triples(self, rng):
        # alpha (F(x) - F(u)) <= alpha^2 L prog + V_x(u) - V_x+(u)
        for _ in range(100):
            p = random_lasso(rng, bucket=bool(rng.integers(2)))
            p.a = p.L_f  # the Euclidean step: M = I
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

    def test_spiked_metric_triples(self, rng):
        # the same inequality in the normalised metric M = V / L_f, in
        # which f is L_f-smooth: Bregman terms 1/2 ||.||_M^2 and prog in V
        slack = []
        for seed in range(20):
            p = spiked_bucket(seed)
            L = p.L_f
            for _ in range(5):
                x = rng.standard_normal(p.dim) * rng.uniform(0.2, 3)
                u = rng.standard_normal(p.dim) * rng.uniform(0.2, 3)
                alpha = float(rng.uniform(0.02, 1.0)) / L
                xp = mirror_step(p, x, p.f_grad(x), alpha)
                lhs = alpha * (p.value(x) - p.value(u))
                rhs = alpha ** 2 * L * metric_prog(p, x) \
                    + 0.5 * metric_inner(p, x - u, x - u) / L \
                    - 0.5 * metric_inner(p, xp - u, xp - u) / L
                slack.append(rhs - lhs)
        assert min(slack) >= -1e-8
