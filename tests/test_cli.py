import numpy as np
import pytest

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

    def test_unknown_flag_exit_one(self, tiny_instance):
        mpath, vpath = tiny_instance
        assert run_cli(["solve", mpath, vpath, "--wibble", "3"]) == 1

    def test_invalid_config_exit_three(self, tiny_instance, capsys):
        mpath, vpath = tiny_instance
        code = run_cli(["solve", mpath, vpath, "--kappa", "2.0"])
        assert code == 3
        assert "kappa" in capsys.readouterr().err


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

    @pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
    def test_bad_lam_spec_exit_one(self, tmp_path, capsys, lam):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"m=40\nn=16\nlam={lam}\n")
        out = tmp_path / "records.csv"
        assert run_cli(["bench", str(spec), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "lam must be finite" in err
        assert not out.exists()

    def test_bad_spec_exit_one(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text("m=40\nn=16\nwibble=1\n")
        assert run_cli(["bench", str(spec)]) == 1
        assert "line 3" in capsys.readouterr().err


class TestCheck:
    def test_single_suite_pass(self, capsys):
        assert run_cli(["check", "--suite", "prox"]) == 0
        assert "PASS prox" in capsys.readouterr().out

    def test_invalid_kappa_exit_three_named(self, capsys):
        code = run_cli(["check", "--kappa", "2.0"])
        assert code == 3
        assert "config-validation" in capsys.readouterr().out

    def test_unknown_suite_exit_one(self):
        assert run_cli(["check", "--suite", "wibble"]) == 1
