import dataclasses

import numpy as np
import pytest

import mgprox.harness as harness
from mgprox import (
    ExperimentSpec,
    SolverConfig,
    fista,
    gen_correlated_dictionary,
    gen_instance,
    gradient_mapping,
    run_compare,
    subgradient_residual,
)
from mgprox.io import read_records_csv, write_records_csv
from conftest import one_d_lasso


class TestCorrelatedDictionary:
    def test_unit_columns(self, rng):
        A = gen_correlated_dictionary(50, 20, 0.6, rng)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)

    def test_uncorrelated_case_small_inner_products(self):
        m = 400
        A = gen_correlated_dictionary(m, 30, 0.0, 5)
        G = A.T @ A
        off = np.abs(G[~np.eye(30, dtype=bool)])
        assert np.mean(off) <= 3 / np.sqrt(m)

    def test_high_correlation_monte_carlo(self):
        means = []
        for seed in range(10):
            A = gen_correlated_dictionary(400, 64, 0.9, seed)
            G = A.T @ A
            means.append(np.mean(G[~np.eye(64, dtype=bool)]))
        assert 0.85 <= np.mean(means) <= 0.95

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            gen_correlated_dictionary(10, 5, 1.0, 0)


class TestGenInstance:
    def test_determinism(self):
        spec = ExperimentSpec(m=30, n=20, rho=0.5, k_true=3, corruption=0.1,
                              noise=0.01, seed=42)
        p1, x1, e1 = gen_instance(spec)
        p2, x2, e2 = gen_instance(spec)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(x1, x2)
        assert np.array_equal(e1, e2)
        p3, _, _ = gen_instance(dataclasses.replace(spec, seed=43))
        assert not np.array_equal(p1.A, p3.A)

    def test_bucket_follows_corruption(self):
        clean = ExperimentSpec(m=10, n=5, corruption=0.0)
        assert not clean.bucket
        dirty = ExperimentSpec(m=10, n=5, corruption=0.3)
        assert dirty.bucket
        forced = ExperimentSpec(m=10, n=5, corruption=0.3, bucket=False)
        assert not forced.bucket

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
        ExperimentSpec) if f.type is float])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentSpec(m=10, n=5, **{name: value})

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
        ExperimentSpec) if f.type is int])
    @pytest.mark.parametrize("value", [2.0, True], ids=["float", "bool"])
    def test_non_integer_int_field_rejected(self, name, value):
        fields = {"m": 10, "n": 5, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentSpec(**fields)

    def test_numpy_integer_fields_accepted(self):
        spec = ExperimentSpec(m=np.int64(10), n=np.int32(5),
                              reps=np.int64(2))
        assert len(run_compare(spec)) == 2

    def test_negative_seed_rejected(self):
        # gen_instance used to fail in np.random.default_rng instead
        with pytest.raises(ValueError,
                           match=r"^seed must be nonnegative, got -1$"):
            ExperimentSpec(m=10, n=5, seed=-1)
        ExperimentSpec(m=10, n=5, seed=0)

    def test_empty_solver_list_rejected(self):
        with pytest.raises(ValueError, match="solvers must name at least"):
            ExperimentSpec(m=10, n=5, solvers=())

    def test_spec_hash_ignores_key_order(self):
        config = {"eps": 1e-3, "max_iters": 5}
        overrides = {"magma": {"levels": 2, "kappa": 0.6},
                     "fista": {"max_iters": 7}}
        a = ExperimentSpec(m=6, n=4, solvers=("fista", "magma"),
                           config=config, overrides=overrides)
        b = ExperimentSpec(
            m=6, n=4, solvers=("fista", "magma"),
            config=dict(reversed(config.items())),
            overrides={k: dict(reversed(v.items()))
                       for k, v in reversed(overrides.items())})
        assert a == b and a.spec_hash() == b.spec_hash()
        c = dataclasses.replace(a, config={"eps": 1e-3, "max_iters": 6})
        assert c.spec_hash() != a.spec_hash()

    def test_spec_hash_of_sorted_keys_unchanged(self):
        # hashing sorts the keys of config and overrides; a spec whose
        # keys were already sorted keeps the hash it had before
        spec = ExperimentSpec(m=6, n=4, config={"eps": 1e-3, "max_iters": 5})
        assert spec.spec_hash() == "ed9fb252693ded31"

    @pytest.mark.parametrize("config, overrides, message", [
        ({"kappa": 2.0}, {}, "kappa must lie in"),
        ({}, {"magma": {"eps": float("nan")}}, "eps must be finite"),
        ({}, {"wibble": {"kappa": 0.5}}, "unknown solver 'wibble'"),
    ], ids=["global", "override", "unknown_solver"])
    def test_bad_solver_config_rejected(self, config, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(m=10, n=5, config=config, overrides=overrides)

    def test_magma_levels_too_deep_for_n_rejected(self):
        # n=4 fits at most 3 levels (2^(levels-1) <= n); only magma uses them
        with pytest.raises(ValueError, match="n=4 is too small for 5 levels"):
            ExperimentSpec(m=6, n=4, solvers=("fista", "magma"),
                           overrides={"magma": {"levels": 5}})
        with pytest.raises(ValueError, match="n=4 is too small for 4 levels"):
            ExperimentSpec(m=6, n=4, solvers=("magma",), config={"levels": 4})
        ExperimentSpec(m=6, n=4, solvers=("fista", "magma"),
                       overrides={"magma": {"levels": 3}})
        ExperimentSpec(m=6, n=4, solvers=("fista",), config={"levels": 5})

    def test_planted_support_recovered_in_easy_regime(self):
        # rho <= 0.5, k_true <= m/20, no noise: the planted support shows
        # up at threshold 1e-4 in at least 9 of 10 seeds
        hits = 0
        for seed in range(10):
            spec = ExperimentSpec(m=80, n=40, rho=0.3, k_true=3,
                                  corruption=0.0, noise=0.0, seed=seed,
                                  lam=1e-6)
            p, x_true, _ = gen_instance(spec)
            sol = fista(p, np.zeros(p.dim),
                        SolverConfig(eps=1e-9, max_iters=20000))
            got = set(np.flatnonzero(np.abs(sol.x) > 1e-4))
            if set(np.flatnonzero(x_true)) <= got:
                hits += 1
        assert hits >= 9

    def test_zero_signal_zero_solution_for_large_lam(self):
        spec = ExperimentSpec(m=20, n=10, rho=0.2, k_true=0, corruption=0.0,
                              noise=0.1, seed=1, lam=0.0)
        p, _, _ = gen_instance(spec)
        lam_big = 2 * np.max(np.abs(p.A.T @ p.b))
        p_big = type(p)(p.A, p.b, lam_big)
        assert subgradient_residual(p_big, np.zeros(10)) == 0.0
        sol = fista(p_big, np.ones(10), SolverConfig(eps=1e-10,
                                                     max_iters=2000))
        assert np.allclose(sol.x, 0.0, atol=1e-8)

    def test_corrupted_entries_scale_with_signal(self):
        spec = ExperimentSpec(m=100, n=30, rho=0.4, k_true=5,
                              corruption=0.2, noise=0.0, seed=9)
        p, x_true, e_true = gen_instance(spec)
        assert np.count_nonzero(e_true) == 20
        sig_rms = np.sqrt(np.mean((p.A[:, :] @ x_true) ** 2))
        corr_rms = np.sqrt(np.mean(e_true[e_true != 0] ** 2))
        assert 0.1 * sig_rms <= corr_rms <= 10 * sig_rms


class TestSubgradientResidual:
    def test_one_d_optimum(self):
        assert subgradient_residual(one_d_lasso(), np.ones(1)) \
            == pytest.approx(0.0, abs=1e-15)

    def test_zero_point_with_dominant_lam(self, rng):
        A = rng.standard_normal((10, 6))
        b = rng.standard_normal(10)
        lam = 2 * np.max(np.abs(A.T @ b))
        p = harness.L1LeastSquares(A, b, lam)
        assert subgradient_residual(p, np.zeros(6)) == 0.0

    def test_tracks_gradient_mapping(self, rng):
        # both vanish together; on stable coordinates the ratio is L_f
        for _ in range(100):
            m, n = int(rng.integers(5, 15)), int(rng.integers(3, 10))
            A = rng.standard_normal((m, n))
            p = harness.L1LeastSquares(A, rng.standard_normal(m),
                                       float(rng.uniform(0.05, 1.0)))
            x = rng.standard_normal(n)
            res = subgradient_residual(p, x)
            d_inf = np.max(np.abs(gradient_mapping(p, x)))
            assert res <= p.L_f * (d_inf + np.max(np.abs(x))) + p.lam + 1e-9

    def test_vanishes_at_converged_point(self, rng):
        p = harness.L1LeastSquares(rng.standard_normal((12, 8)),
                                   rng.standard_normal(12), 0.1)
        sol = fista(p, np.zeros(8), SolverConfig(eps=1e-11, max_iters=20000))
        assert sol.converged
        assert subgradient_residual(p, sol.x) <= 1e-9


class TestRunCompare:
    def _spec(self, **kw):
        base = dict(m=40, n=16, rho=0.4, k_true=2, corruption=0.0,
                    noise=0.05, seed=21, lam=0.05,
                    solvers=("ista", "fista"), reps=2,
                    config=dict(eps=1e-9, max_iters=20000))
        base.update(kw)
        return ExperimentSpec(**base)

    def test_record_cardinality(self):
        records = run_compare(self._spec())
        assert len(records) == 4
        assert {(r.solver, r.rep) for r in records} \
            == {("ista", 0), ("ista", 1), ("fista", 0), ("fista", 1)}

    def test_matched_starts_same_objective(self):
        records = run_compare(self._spec())
        by_rep = {}
        for r in records:
            by_rep.setdefault(r.rep, []).append(r.objective)
        for rep, vals in by_rep.items():
            assert max(vals) - min(vals) <= 1e-7

    def test_replay_is_bitwise(self):
        rec1 = run_compare(self._spec())
        rec2 = run_compare(self._spec())
        for a, b in zip(rec1, rec2):
            assert repr(a.objective) == repr(b.objective)
            assert a.iterations == b.iterations

    def test_converged_runs_pass_subgradient_oracle(self):
        # residual <= 10 eps needs L_f <= 10-ish instances
        spec = self._spec(m=40, n=8, rho=0.3)
        problem, _, _ = gen_instance(spec)
        assert problem.L_f <= 10.0
        eps = spec.solver_config("fista").eps
        for r in run_compare(spec):
            assert r.converged
        sol = fista(problem, np.zeros(problem.dim),
                    SolverConfig(eps=eps, max_iters=20000))
        assert subgradient_residual(problem, sol.x) <= 10 * eps

    def test_solver_failure_recorded_not_raised(self, monkeypatch):
        calls = {"n": 0}
        real = harness.run_solver

        def flaky(name, problem, x0, config, chain=None):
            if name == "ista" and config.max_iters > 3:
                raise RuntimeError("injected failure")
            return real(name, problem, x0, config, chain=chain)

        monkeypatch.setattr(harness, "run_solver", flaky)
        records = run_compare(self._spec())
        ista_records = [r for r in records if r.solver == "ista"]
        assert len(ista_records) == 2
        assert all(not r.converged for r in ista_records)
        assert all(np.isnan(r.objective) for r in ista_records)
        fista_records = [r for r in records if r.solver == "fista"]
        assert all(r.converged for r in fista_records)

    def test_solver_failure_reason_recorded(self, monkeypatch, tmp_path):
        real = harness.run_solver

        def failing(name, problem, x0, config, chain=None):
            if name == "ista" and config.max_iters > 3:
                raise FloatingPointError("overflow in step, 'x' = 1e308")
            return real(name, problem, x0, config, chain=chain)

        monkeypatch.setattr(harness, "run_solver", failing)
        records = run_compare(self._spec())
        reason = "FloatingPointError: overflow in step, 'x' = 1e308"
        assert [r.error for r in records if r.solver == "ista"] == [reason] * 2
        assert all(r.error == "" for r in records if r.solver == "fista")
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert [r.error for r in read_records_csv(path)] == \
            [r.error for r in records]

    def test_warm_up_runs_solver_config(self, monkeypatch):
        # the discarded warm-up solve runs each solver's own config cut to
        # three iterations, so magma's levels reach it and it raises nothing
        real = harness.run_solver
        seen = []

        def spy(name, problem, x0, config, chain=None):
            seen.append((name, config))
            return real(name, problem, x0, config, chain=chain)

        monkeypatch.setattr(harness, "run_solver", spy)
        spec = self._spec(solvers=("fista", "magma"), reps=1, overrides={
            "magma": dict(kappa=0.7, levels=3, mu=1e-5)})
        records = run_compare(spec)
        assert all(r.error == "" for r in records)
        warm_ups = [seen[0], seen[2]]
        assert [name for name, _ in warm_ups] == ["fista", "magma"]
        for name, config in warm_ups:
            assert config == dataclasses.replace(spec.solver_config(name),
                                                 max_iters=3)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            self._spec(solvers=("newton",))

    def test_per_solver_override_applied(self):
        spec = self._spec(overrides={"fista": {"max_iters": 2}})
        records = run_compare(spec)
        fista_records = [r for r in records if r.solver == "fista"]
        assert all(r.iterations == 2 and not r.converged
                   for r in fista_records)

    def test_four_repetitions_protocol(self):
        # four distinct random starting points per solver
        records = run_compare(self._spec(reps=4, solvers=("fista",)))
        assert len(records) == 4
        assert len({r.iterations for r in records}) > 1
