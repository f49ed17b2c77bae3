import csv

import numpy as np
import pytest

from mgprox import ExperimentSpec, RunRecord, SolverConfig, TraceRow
from mgprox.io import (
    FileFormatError,
    parse_experiment_file,
    read_matrix,
    read_records_csv,
    read_trace_csv,
    read_vector,
    write_experiment_file,
    write_matrix,
    write_records_csv,
    write_trace_csv,
    write_vector,
)


class TestBinaryFormats:
    def test_vector_round_trip(self, tmp_path, rng):
        v = rng.standard_normal(17)
        path = tmp_path / "v.mlv"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), v)

    def test_matrix_round_trip(self, tmp_path, rng):
        A = rng.standard_normal((5, 9))
        path = tmp_path / "a.mlm"
        write_matrix(path, A)
        assert np.array_equal(read_matrix(path), A)

    @pytest.mark.parametrize("write, bad", [
        (write_vector, 3.0), (write_vector, np.float64(3.0)),
        (write_matrix, 3.0), (write_matrix, [1.0, 2.0])],
        ids=["vector_scalar", "vector_0d", "matrix_scalar", "matrix_1d"])
    def test_wrong_dimensions_rejected(self, tmp_path, write, bad):
        # a scalar is not a length-1 vector; nothing is written
        path = tmp_path / "a.bin"
        with pytest.raises(ValueError, match="expected a [12]-D array"):
            write(path, bad)
        assert not path.exists()

    def test_magic_layout(self, tmp_path):
        path = tmp_path / "v.mlv"
        write_vector(path, np.array([1.5]))
        raw = path.read_bytes()
        assert raw[:6] == b"MLVEC1"
        assert int.from_bytes(raw[6:14], "little") == 1
        assert np.frombuffer(raw[14:], dtype="<f8")[0] == 1.5

    def test_truncated_vector_reports_offset(self, tmp_path):
        path = tmp_path / "v.mlv"
        write_vector(path, np.arange(4.0))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(FileFormatError, match="byte offset"):
            read_vector(path)

    def test_truncated_matrix_reports_offset(self, tmp_path):
        path = tmp_path / "a.mlm"
        write_matrix(path, np.ones((3, 3)))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(FileFormatError, match="byte offset"):
            read_matrix(path)

    # The claimed sizes below are never allocated: the header is checked
    # against the file size first.
    @pytest.mark.parametrize("n", [2 ** 62, 5])
    def test_vector_header_larger_than_file_rejected(self, tmp_path, n):
        path = tmp_path / "v.mlv"
        write_vector(path, np.arange(4.0))
        raw = path.read_bytes()
        path.write_bytes(raw[:6] + n.to_bytes(8, "little") + raw[14:])
        with pytest.raises(FileFormatError,
                           match="byte offset 6: header claims") as info:
            read_vector(path)
        assert info.value.offset == 6

    @pytest.mark.parametrize("rows, cols", [(2 ** 62, 2 ** 62), (3, 4),
                                            (2 ** 62, 1)])
    def test_matrix_header_larger_than_file_rejected(self, tmp_path, rows,
                                                     cols):
        path = tmp_path / "a.mlm"
        write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:6] + rows.to_bytes(8, "little")
                         + cols.to_bytes(8, "little") + raw[22:])
        with pytest.raises(FileFormatError,
                           match="byte offset 6: header claims") as info:
            read_matrix(path)
        assert info.value.offset == 6

    def test_kind_mismatch_rejected(self, tmp_path):
        vpath = tmp_path / "v.mlv"
        write_vector(vpath, np.ones(2))
        with pytest.raises(FileFormatError, match="vector file"):
            read_matrix(vpath)
        mpath = tmp_path / "a.mlm"
        write_matrix(mpath, np.ones((2, 2)))
        with pytest.raises(FileFormatError, match="matrix file"):
            read_vector(mpath)


class TestCsvFormats:
    def test_vector_one_value_per_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.5\n-2.25\n3.0\n")
        assert np.array_equal(read_vector(path), [1.5, -2.25, 3.0])

    def test_vector_single_comma_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0, 2.0, 3.0\n")
        assert np.array_equal(read_vector(path), [1.0, 2.0, 3.0])

    def test_matrix_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        assert np.array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_matrix(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0\nbogus\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_vector(path)

    @pytest.mark.parametrize("read", [read_vector, read_matrix])
    def test_non_utf8_reports_line(self, tmp_path, read):
        path = tmp_path / "v.csv"
        path.write_bytes(b"1.0\n\xff\xfe\n")
        with pytest.raises(FileFormatError, match="line 2: not UTF-8"):
            read(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(FileFormatError):
            read_vector(path)


class TestTraceRecordsCsv:
    def test_trace_round_trip_lossless(self, tmp_path, rng):
        rows = [
            TraceRow(k, "coarse" if k % 3 == 0 else "grad",
                     float(rng.standard_normal()) * 10 ** int(rng.integers(-9, 9)),
                     abs(float(rng.standard_normal())), 1.0 + rng.uniform(),
                     rng.uniform(), rng.uniform(), float("nan"),
                     int(rng.integers(0, 10 ** 12)))
            for k in range(20)
        ]
        path = tmp_path / "trace.csv"
        write_trace_csv(rows, path)
        back = read_trace_csv(path)
        for a, b in zip(rows, back):
            assert a.k == b.k and a.step_kind == b.step_kind
            assert repr(a.F) == repr(b.F)
            assert repr(a.eta) == repr(b.eta)
            assert a.elapsed_ns == b.elapsed_ns

    def test_records_round_trip_lossless(self, tmp_path, rng):
        records = [
            RunRecord("abcd" * 4, "fista", rep, bool(rep % 2),
                      int(rng.integers(1, 10 ** 6)),
                      float(rng.standard_normal()),
                      abs(float(rng.standard_normal())) * 1e-7,
                      abs(float(rng.standard_normal())),
                      int(rng.integers(0, 100)),
                      float(rng.uniform(0, 100)))
            for rep in range(6)
        ]
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        for a, b in zip(records, back):
            assert a.spec_hash == b.spec_hash
            assert a.converged == b.converged
            assert repr(a.objective) == repr(b.objective)
            assert repr(a.time_s) == repr(b.time_s)
            assert a.support_size == b.support_size

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("k,foo\n")
        with pytest.raises(FileFormatError):
            read_trace_csv(path)

    @pytest.mark.parametrize("write, read, row", [
        (write_trace_csv, read_trace_csv,
         TraceRow(0, "grad", 1.5, 0.25, 1.0, 0.5, 1.0, float("nan"), 7)),
        (write_records_csv, read_records_csv,
         RunRecord("ab", "ista", 0, True, 3, 1.5, 1e-7, 2.0, 1, 0.5)),
    ], ids=["trace", "records"])
    @pytest.mark.parametrize("damage, message", [
        (lambda cells: cells[:-2], "row has"),
        (lambda cells: cells[:4] + ["bogus"] + cells[5:], "bad value for"),
        # csv.reader raises csv.Error on a cell over its size limit, as
        # it does on a NUL byte before Python 3.11
        (lambda cells: cells[:1] + ["g" * (csv.field_size_limit() + 1)]
         + cells[2:], "field larger"),
    ], ids=["short_row", "non_numeric", "csv_error"])
    def test_malformed_row_reports_line(self, tmp_path, write, read, row,
                                        damage, message):
        path = tmp_path / "rows.csv"
        write([row, row], path)
        header, good, _ = path.read_text().split("\n", 2)
        path.write_text("\n".join(
            [header, good, ",".join(damage(good.split(","))), ""]))
        with pytest.raises(FileFormatError, match=f"line 3: {message}"):
            read(path)


class TestExperimentFiles:
    def test_parse_minimal(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("m=40\nn=16\n")
        spec = parse_experiment_file(path)
        assert spec.m == 40 and spec.n == 16
        assert spec.solvers == ("fista",)

    def test_parse_full(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text(
            "# bench spec\n"
            "m=100\nn=64\nrho=0.9\nk_true=4\ncorruption=0.2\nnoise=0.01\n"
            "seed=7\nreps=4\nlam=1e-4\nsolvers=fista,magma\n"
            "eps=1e-7\nmax_iters=5000\n"
            "magma.kappa=0.7\nmagma.levels=3\n")
        spec = parse_experiment_file(path)
        assert spec.solvers == ("fista", "magma")
        assert spec.reps == 4
        assert spec.bucket  # corruption > 0
        cfg = spec.solver_config("magma")
        assert cfg.kappa == 0.7 and cfg.levels == 3 and cfg.eps == 1e-7
        cfg_f = spec.solver_config("fista")
        assert cfg_f.eps == 1e-7 and cfg_f.kappa == 0.8

    def test_round_trip(self, tmp_path):
        spec = ExperimentSpec(m=30, n=20, rho=0.5, k_true=3, corruption=0.1,
                              noise=0.02, seed=11, solvers=("ista", "agm"),
                              reps=2, lam=0.01,
                              config={"eps": 1e-8},
                              overrides={"agm": {"max_iters": 77}})
        path = tmp_path / "spec.txt"
        write_experiment_file(spec, path)
        back = parse_experiment_file(path)
        assert back == spec

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("m=10\nn=5\nwibble=3\n")
        with pytest.raises(FileFormatError, match="line 3"):
            parse_experiment_file(path)

    @pytest.mark.parametrize("line", [
        "mu_schedule=horizon", "zeta=0.5", "magma.line_search_cap=1"] + [
        prefix + setting for setting in (
            "theta=0.5", "K_d=30", "armijo_c=0.5", "tau=0.95", "s0=10",
            "coarse_tol=1e-3", "coarse_budget=100")
        for prefix in ("", "magma.")])
    def test_removed_config_key_is_unknown(self, tmp_path, line):
        # the smoothing schedule, its zeta, the line-search cap and magma's
        # line-search and coarse-condition parameters are no solver
        # settings: mu is the one smoothing level of a solve, and the rest
        # are constants of solvers (LINE_SEARCH_CAP, THETA, K_D, ...)
        path = tmp_path / "spec.txt"
        path.write_text(f"m=6\nn=4\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(FileFormatError,
                           match=f"line 3: unknown key: '{key}'"):
            parse_experiment_file(path)
        with pytest.raises(TypeError):
            SolverConfig(**{key.rpartition(".")[2]: 0.5})

    @pytest.mark.parametrize("again, first_line", [
        ("m=8", 1), ("eps=1e-4", 4), ("magma.levels=3", 5)],
        ids=["field", "config", "override"])
    def test_repeated_key_reports_both_lines(self, tmp_path, again,
                                             first_line):
        # the last value used to win silently
        path = tmp_path / "spec.txt"
        path.write_text("m=6\nn=4\nsolvers=fista,magma\neps=1e-3\n"
                        f"magma.levels=2\n# a comment\n{again}\n")
        key = again.split("=")[0]
        with pytest.raises(FileFormatError) as info:
            parse_experiment_file(path)
        assert info.value.line == 7
        assert str(info.value).endswith(
            f"key {key!r} repeated; first given at line {first_line}")

    def test_empty_solver_prefix_is_unknown_key(self, tmp_path):
        # ".eps" used to set the global eps
        path = tmp_path / "spec.txt"
        path.write_text("m=6\nn=4\n.eps=1e-3\n")
        with pytest.raises(FileFormatError, match="line 3: unknown key: "
                                                  "'.eps'"):
            parse_experiment_file(path)

    @pytest.mark.parametrize("key, solver", [
        ("FISTA.eps", "FISTA"), ("..eps", ".")], ids=["case", "dots"])
    def test_unknown_solver_override_reports_line(self, tmp_path, key,
                                                  solver):
        # the solver used to be checked only once the whole file was read
        path = tmp_path / "spec.txt"
        path.write_text(f"m=6\nn=4\n{key}=1e-3\n")
        with pytest.raises(FileFormatError) as info:
            parse_experiment_file(path)
        assert info.value.line == 3
        assert str(info.value).startswith(
            f"{path} at line 3: override for unknown solver '{solver}'; "
            "choose from ")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("m=10\n")
        with pytest.raises(FileFormatError, match="missing required key") \
                as info:
            parse_experiment_file(path)
        assert info.value.line is None and "at line" not in str(info.value)

    def test_spec_conflict_names_no_line(self, tmp_path):
        # the levels set on line 4 do not fit the n of line 2: neither line
        # alone is wrong, so the error names none
        path = tmp_path / "spec.txt"
        path.write_text("m=6\nn=4\nsolvers=fista,magma\nmagma.levels=5\n")
        with pytest.raises(FileFormatError) as info:
            parse_experiment_file(path)
        assert info.value.line is None
        assert str(info.value) == (
            f"{path}: n=4 is too small for 5 levels; maximum feasible "
            f"depth is 3")

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("m=10\nn=abc\n")
        with pytest.raises(FileFormatError, match="line 2"):
            parse_experiment_file(path)
