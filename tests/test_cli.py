import re
from unittest.mock import Mock

import numpy as np
import pytest

from mgprox import InvariantViolation, cli
from mgprox.cli import main
from mgprox.io import (
    read_records_csv,
    read_trace_csv,
    read_vector,
    write_matrix,
    write_vector,
)


@pytest.fixture
def tiny_instance(tmp_path, rng):
    A = rng.standard_normal((12, 6))
    b = rng.standard_normal(12)
    mpath, vpath = tmp_path / "A.mlm", tmp_path / "b.mlv"
    write_matrix(mpath, A)
    write_vector(vpath, b)
    return str(mpath), str(vpath)


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse error path
        return exc.code


class TestSolve:
    def test_smoke_exit_zero_and_outputs(self, tiny_instance, tmp_path, capsys):
        mpath, vpath = tiny_instance
        out = tmp_path / "x.csv"
        trace = tmp_path / "trace.csv"
        code = run_cli(["solve", mpath, vpath, "--solver", "fista",
                        "--lambda", "0.05", "--eps", "1e-8",
                        "--max-iters", "5000",
                        "--output", str(out), "--trace", str(trace)])
        assert code == 0
        assert len(read_trace_csv(trace)) >= 1
        assert read_vector(out).shape == (6,)
        printed = capsys.readouterr().out
        assert "resolved config" in printed
        assert "lambda=0.05" in printed
        assert f" numpy={np.__version__} " in printed
        assert re.search(r" blas=\S+\n", printed)

    def test_blas_unknown_without_show_config_dicts(self, tiny_instance,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        # numpy before 1.26 has show_config() with no mode
        monkeypatch.setattr(np, "show_config", lambda: None)
        assert run_cli(["solve", *tiny_instance,
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")]) == 0
        assert " blas=unknown\n" in capsys.readouterr().out

    def test_binary_solution_output(self, tiny_instance, tmp_path):
        mpath, vpath = tiny_instance
        out = tmp_path / "x.mlv"
        code = run_cli(["solve", mpath, vpath, "--lambda", "0.05",
                        "--eps", "1e-8", "--max-iters", "5000",
                        "--output", str(out),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 0
        assert read_vector(out).shape == (6,)

    def test_truncated_matrix_exit_one_with_offset(self, tmp_path, capsys):
        mpath = tmp_path / "A.mlm"
        write_matrix(mpath, np.ones((4, 4)))
        mpath.write_bytes(mpath.read_bytes()[:30])
        vpath = tmp_path / "b.mlv"
        write_vector(vpath, np.ones(4))
        code = run_cli(["solve", str(mpath), str(vpath)])
        assert code == 1
        assert "byte offset" in capsys.readouterr().err

    def test_lying_vector_header_exit_one(self, tmp_path, capsys):
        mpath, vpath = tmp_path / "A.mlm", tmp_path / "b.mlv"
        write_matrix(mpath, np.ones((4, 3)))
        write_vector(vpath, np.ones(4))
        raw = vpath.read_bytes()
        vpath.write_bytes(raw[:6] + (2 ** 62).to_bytes(8, "little") + raw[14:])
        code = run_cli(["solve", str(mpath), str(vpath)])
        assert code == 1
        err = capsys.readouterr().err
        assert "input error" in err and "byte offset 6" in err

    def test_non_finite_vector_exit_one(self, tmp_path, capsys):
        mpath, vpath = tmp_path / "A.mlm", tmp_path / "b.mlv"
        write_matrix(mpath, np.ones((4, 3)))
        write_vector(vpath, np.array([1.0, np.nan, 0.0, 2.0]))
        code = run_cli(["solve", str(mpath), str(vpath), "--solver", "fista",
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "input error" in err and "b has 1 non-finite" in err

    def test_non_utf8_csv_exit_one(self, tmp_path, capsys):
        mpath, vpath = tmp_path / "A.mlm", tmp_path / "b.csv"
        write_matrix(mpath, np.ones((2, 3)))
        vpath.write_bytes(b"1.0\n\xff\xfe\n")
        code = run_cli(["solve", str(mpath), str(vpath),
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "input error" in err and "line 2: not UTF-8" in err

    def test_zero_dictionary_exit_one(self, tmp_path, capsys):
        # L_f = 0 is rejected when the problem is built, before any solver
        # divides by it (an exception escaping main fails here)
        mpath, vpath = tmp_path / "A.mlm", tmp_path / "b.mlv"
        write_matrix(mpath, np.zeros((4, 3)))
        write_vector(vpath, np.ones(4))
        code = run_cli(["solve", str(mpath), str(vpath),
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: A is zero")
        assert "Traceback" not in captured.err
        assert "resolved config" not in captured.out

    @pytest.mark.parametrize("entry, message", [
        ("nan", "A has 1 non-finite entries (NaN or Inf)"),
        ("1e200", "L_f overflows"),
    ])
    def test_bad_csv_dictionary_exit_one(self, tmp_path, capsys, entry,
                                         message):
        # a NaN, or entries whose products overflow, are found by the
        # Lipschitz power iteration when the problem is built
        mpath, vpath = tmp_path / "A.csv", tmp_path / "b.csv"
        mpath.write_text(f"{entry},0\n0,1\n1,1\n")
        vpath.write_text("1\n2\n3\n")
        code = run_cli(["solve", str(mpath), str(vpath),
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {message}")
        assert "Traceback" not in captured.err
        assert "resolved config" not in captured.out

    @pytest.mark.parametrize("x0, message", [
        (np.zeros(5), "x0 has shape (5,), expected (6,)"),
        (np.full(6, np.nan), "x0 has 6 non-finite"),
    ])
    def test_bad_start_exit_one(self, tiny_instance, tmp_path, capsys, x0,
                                message):
        # rejected before the run: no config line, no traceback, no solve
        mpath, vpath = tiny_instance
        x0_path = tmp_path / "x0.mlv"
        write_vector(x0_path, x0)
        code = run_cli(["solve", mpath, vpath, "--solver", "magma",
                        "--x0", str(x0_path),
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert "input error" in captured.err and message in captured.err
        assert "resolved config" not in captured.out

    @pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
    def test_bad_lambda_exit_one(self, tiny_instance, tmp_path, capsys, lam):
        mpath, vpath = tiny_instance
        code = run_cli(["solve", mpath, vpath, "--lambda", lam,
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        assert "lam must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eps", "--s0", "--mu"])
    def test_infinite_parameter_exit_three(self, tiny_instance, capsys, flag):
        mpath, vpath = tiny_instance
        assert run_cli(["solve", mpath, vpath, flag, "inf"]) == 3
        assert "must be finite" in capsys.readouterr().err

    def test_budget_exhaustion_exit_two(self, tiny_instance, tmp_path):
        mpath, vpath = tiny_instance
        code = run_cli(["solve", mpath, vpath, "--lambda", "0.05",
                        "--eps", "1e-14", "--max-iters", "2",
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 2

    def test_magma_levels_one_matches_agm_trace(self, tiny_instance, tmp_path):
        mpath, vpath = tiny_instance
        traces = {}
        for solver, extra in (("magma", ["--levels", "1"]),
                              ("agm", [])):
            tpath = tmp_path / f"{solver}.csv"
            code = run_cli(["solve", mpath, vpath, "--solver", solver,
                            "--lambda", "0.05", "--eps", "1e-9",
                            "--max-iters", "500",
                            "--output", str(tmp_path / f"{solver}_x.csv"),
                            "--trace", str(tpath)] + extra)
            assert code == 0
            traces[solver] = read_trace_csv(tpath)
        Fm = [r.F for r in traces["magma"]]
        Fa = [r.F for r in traces["agm"]]
        assert len(Fm) == len(Fa)
        assert np.max(np.abs(np.array(Fm) - np.array(Fa))) <= 1e-10

    def test_x0_and_x0_seed_exit_one(self, tiny_instance, tmp_path, capsys):
        # the seed used to be ignored, and the run went on from the file
        mpath, vpath = tiny_instance
        x0_path = tmp_path / "x0.mlv"
        write_vector(x0_path, np.zeros(6))
        code = run_cli(["solve", mpath, vpath, "--x0", str(x0_path),
                        "--x0-seed", "3", "--max-iters", "2",
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert "resolved config" not in captured.out
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_flag_exit_one(self, tiny_instance):
        mpath, vpath = tiny_instance
        assert run_cli(["solve", mpath, vpath, "--wibble", "3"]) == 1

    def test_invalid_config_exit_three(self, tiny_instance, capsys):
        mpath, vpath = tiny_instance
        code = run_cli(["solve", mpath, vpath, "--kappa", "2.0"])
        assert code == 3
        assert "kappa" in capsys.readouterr().err

    def test_invariant_violation_exit_three(self, tiny_instance, tmp_path,
                                            monkeypatch, capsys):
        # a live invariant check inside a solver raises out of the solve
        monkeypatch.setattr("mgprox.cli.run_solver", Mock(
            side_effect=InvariantViolation("telescoping identity violated")))
        mpath, vpath = tiny_instance
        code = run_cli(["solve", mpath, vpath,
                        "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")])
        assert code == 3
        assert capsys.readouterr().err == \
            "invariant failure: telescoping identity violated\n"


class TestBench:
    def _write_spec(self, tmp_path, reps=2):
        spec = tmp_path / "spec.txt"
        spec.write_text(
            "m=40\nn=16\nrho=0.4\nk_true=2\nnoise=0.05\nseed=21\nlam=0.05\n"
            f"solvers=ista,fista\nreps={reps}\neps=1e-9\nmax_iters=20000\n")
        return str(spec)

    def test_cardinality_and_summary(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "records.csv"
        code = run_cli(["bench", spec, "--output", str(out)])
        assert code == 0
        records = read_records_csv(out)
        assert len(records) == 4
        printed = capsys.readouterr().out
        assert "summary" in printed
        # summary means must equal hand-computed means of the rows
        for solver in ("ista", "fista"):
            times = [r.time_s for r in records
                     if r.solver == solver and r.converged]
            mean = sum(times) / len(times)
            assert f"{solver}: converged {len(times)}/2" in printed
            assert f"mean_time_s={mean:.4f}" in printed

    def test_replay_objectives_bitwise(self, tmp_path):
        spec = self._write_spec(tmp_path)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(["bench", spec, "--output", str(out1)]) == 0
        assert run_cli(["bench", spec, "--output", str(out2)]) == 0
        rec1 = read_records_csv(out1)
        rec2 = read_records_csv(out2)
        for a, b in zip(rec1, rec2):
            assert repr(a.objective) == repr(b.objective)

    def test_missing_spec_exit_one(self, tmp_path, capsys):
        assert run_cli(["bench", str(tmp_path / "nope.txt")]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        *(pytest.param("lam", v, id=v) for v in ("-1", "nan", "inf")),
        ("noise", "nan"), ("noise", "inf")])
    def test_bad_lam_spec_exit_one(self, tmp_path, capsys, key, value):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"m=40\nn=16\n{key}={value}\n")
        out = tmp_path / "records.csv"
        assert run_cli(["bench", str(spec), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and f"{key} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("kappa=2.0", "kappa must lie in"),
        ("magma.eps=nan", "eps must be finite"),
        ("wibble.kappa=0.5", "unknown solver 'wibble'"),
    ], ids=["global", "override", "unknown_solver"])
    def test_bad_config_spec_exit_one(self, tmp_path, capsys, line, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"m=40\nn=16\n{line}\n")
        out = tmp_path / "records.csv"
        assert run_cli(["bench", str(spec), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and message in err
        assert not out.exists()

    def test_magma_levels_too_deep_exit_one(self, tmp_path, capsys,
                                            monkeypatch):
        # n=4 fits at most 3 levels; the spec is refused before fista runs
        run_compare = Mock()
        monkeypatch.setattr("mgprox.cli.run_compare", run_compare)
        spec = tmp_path / "spec.txt"
        spec.write_text("m=6\nn=4\nsolvers=fista,magma\nmagma.levels=5\n")
        out = tmp_path / "records.csv"
        assert run_cli(["bench", str(spec), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert "n=4 is too small for 5 levels" in err
        run_compare.assert_not_called()
        assert not out.exists()

    def test_empty_solver_list_exit_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("m=40\nn=16\nsolvers=\n")
        out = tmp_path / "records.csv"
        assert run_cli(["bench", str(spec), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1
        assert "solvers must name at least one" in captured.err
        assert captured.out == "" and not out.exists()

    def test_spec_hash_ignores_line_order(self, tmp_path, capsys):
        hashes = []
        for lines in ("eps=1e-3\nmax_iters=5\n", "max_iters=5\neps=1e-3\n"):
            spec = tmp_path / "spec.txt"
            spec.write_text("m=40\nn=16\n" + lines)
            out = tmp_path / "records.csv"
            run_cli(["bench", str(spec), "--output", str(out)])
            hashes.append(capsys.readouterr().out.split()[1])
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("lines", [
        "m=6\nn=4\nm=8\n", "m=6\nn=4\neps=1e-3\neps=1e-4\n",
        "m=6\nn=4\nsolvers=magma\nmagma.levels=2\nmagma.levels=3\n",
        "m=6\nn=4\n.eps=1e-3\n"],
        ids=["field", "config", "override", "empty_prefix"])
    def test_repeated_or_prefixless_key_exit_one(self, tmp_path, capsys,
                                                 lines, monkeypatch):
        run_compare = Mock()
        monkeypatch.setattr("mgprox.cli.run_compare", run_compare)
        spec = tmp_path / "spec.txt"
        spec.write_text(lines)
        out = tmp_path / "records.csv"
        assert run_cli(["bench", str(spec), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == "" and not out.exists()
        run_compare.assert_not_called()

    def test_bad_spec_exit_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("m=40\nn=16\nwibble=1\n")
        assert run_cli(["bench", str(spec)]) == 1
        assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("solve", "--output"), ("solve", "--trace"), ("bench", "--output")])
def test_unwritable_output_exit_one(tiny_instance, tmp_path, capsys,
                                    monkeypatch, command, flag):
    # an output path that cannot be written ends the command with one line
    # before any solve starts
    run_solver, run_compare = Mock(), Mock()
    monkeypatch.setattr("mgprox.cli.run_solver", run_solver)
    monkeypatch.setattr("mgprox.cli.run_compare", run_compare)
    spec = tmp_path / "spec.txt"
    spec.write_text("m=40\nn=16\nsolvers=fista\nreps=1\n")
    inputs = {"solve": [*tiny_instance, "--output", str(tmp_path / "x.csv"),
                        "--trace", str(tmp_path / "t.csv")],
              "bench": [str(spec)]}
    for bad, reason in ((tmp_path / "nodir" / "f.csv",
                         "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert run_cli([command, *inputs[command], flag, str(bad)]) == 1
        assert capsys.readouterr().err == f"input error: {bad}: {reason}\n"
    run_solver.assert_not_called()
    run_compare.assert_not_called()


@pytest.mark.parametrize("trace", ["x.csv", "./x.csv", "sub/../x.csv"])
def test_output_and_trace_one_file_exit_one(tiny_instance, tmp_path, capsys,
                                            monkeypatch, trace):
    # the trace would overwrite the solution, so nothing runs
    run_solver = Mock()
    monkeypatch.setattr("mgprox.cli.run_solver", run_solver)
    (tmp_path / "sub").mkdir()
    out, trace = str(tmp_path / "x.csv"), f"{tmp_path}/{trace}"
    assert run_cli(["solve", *tiny_instance, "--output", out,
                    "--trace", trace]) == 1
    assert capsys.readouterr().err == (
        f"input error: --output and --trace both name {trace}, so the "
        "trace would overwrite the solution\n")
    run_solver.assert_not_called()
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_after_run_exit_one(tiny_instance, tmp_path,
                                              capsys, monkeypatch):
    # a directory removed while the solve runs is still reported in one line
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    real = cli.run_solver

    def solve_then_remove(*args, **kwargs):
        sol = real(*args, **kwargs)
        out_dir.rmdir()
        return sol

    monkeypatch.setattr("mgprox.cli.run_solver", solve_then_remove)
    out = str(out_dir / "x.csv")
    assert run_cli(["solve", *tiny_instance, "--output", out,
                    "--trace", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {out}: ") and err.count("\n") == 1
