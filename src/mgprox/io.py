"""File formats: binary vectors/matrices, CSV, traces, experiment specs.

Binary layout: magic bytes b"MLVEC1" or b"MLMAT1", then the dimensions as
64-bit little-endian unsigned integers (one for vectors, rows then cols
for matrices), then the payload as row-major little-endian float64.

CSV matrices are one row per line with comma-separated values and '.' as
the decimal separator; CSV vectors are one value per line (a single
comma-separated line is also accepted).  Experiment spec files are
line-oriented "key=value" with '#' comments; per-solver overrides use
keys of the form "<solver>.<field>".
"""

import csv
import dataclasses
import os
import struct

import numpy as np

from .harness import ExperimentSpec, RunRecord
from .solvers import TraceRow

__all__ = [
    "FileFormatError",
    "MAGIC_VECTOR",
    "MAGIC_MATRIX",
    "write_vector",
    "read_vector",
    "write_matrix",
    "read_matrix",
    "write_trace_csv",
    "read_trace_csv",
    "write_records_csv",
    "read_records_csv",
    "parse_experiment_file",
    "write_experiment_file",
]

MAGIC_VECTOR = b"MLVEC1"
MAGIC_MATRIX = b"MLMAT1"

TRACE_COLUMNS = ("k", "step_kind", "F", "D_norm", "eta", "alpha", "t", "s",
                 "elapsed_ns")
RECORD_COLUMNS = ("spec_hash", "solver", "rep", "converged", "iterations",
                  "objective", "grad_map_norm", "l1_norm", "support_size",
                  "time_s", "error")


class FileFormatError(ValueError):
    """Malformed input file; carries the byte offset or line number."""

    def __init__(self, path, message, offset=None, line=None):
        where = ""
        if offset is not None:
            where = f" at byte offset {offset}"
        elif line is not None:
            where = f" at line {line}"
        super().__init__(f"{path}{where}: {message}")
        self.path = str(path)
        self.offset = offset
        self.line = line


# ---------------------------------------------------------------------------
# Binary vectors and matrices.


def write_vector(path, v: np.ndarray):
    v = np.ascontiguousarray(np.asarray(v, dtype="<f8"))
    if v.ndim != 1:
        raise ValueError("expected a 1-D array")
    with open(path, "wb") as fh:
        fh.write(MAGIC_VECTOR)
        fh.write(struct.pack("<Q", v.shape[0]))
        fh.write(v.tobytes())


def write_matrix(path, A: np.ndarray):
    A = np.ascontiguousarray(np.asarray(A, dtype="<f8"))
    if A.ndim != 2:
        raise ValueError("expected a 2-D array")
    with open(path, "wb") as fh:
        fh.write(MAGIC_MATRIX)
        fh.write(struct.pack("<QQ", A.shape[0], A.shape[1]))
        fh.write(A.tobytes())


def _read_exact(fh, nbytes, path, what):
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise FileFormatError(path, f"truncated while reading {what} "
                              f"(wanted {nbytes} bytes, got {len(data)})",
                              offset=fh.tell() - len(data))
    return data


def _read_payload(fh, nbytes, path, what):
    """Read a header-announced payload; sizes the file cannot hold fail."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:
        raise FileFormatError(path, f"header claims {what} ({nbytes} bytes) "
                              f"but only {left} bytes follow",
                              offset=len(MAGIC_VECTOR))
    return _read_exact(fh, nbytes, path, what)


def _parse_float(token, path, lineno):
    try:
        return float(token)
    except ValueError:
        raise FileFormatError(path, f"not a number: {token!r}", line=lineno) \
            from None


def read_vector(path) -> np.ndarray:
    """Read a vector from the binary format or CSV (detected by magic)."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic == MAGIC_VECTOR:
            (n,) = struct.unpack("<Q", _read_exact(fh, 8, path, "dimension"))
            data = _read_payload(fh, 8 * n, path, f"{n} float64 values")
            return np.frombuffer(data, dtype="<f8").copy()
        if magic == MAGIC_MATRIX:
            raise FileFormatError(path, "matrix file given where a vector "
                                  "was expected", offset=0)
    values = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            for token in line.split(","):
                token = token.strip()
                if token:
                    values.append(_parse_float(token, path, lineno))
    if not values:
        raise FileFormatError(path, "no values found", line=1)
    return np.array(values)


def read_matrix(path) -> np.ndarray:
    """Read a matrix from the binary format or CSV (detected by magic)."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic == MAGIC_MATRIX:
            rows, cols = struct.unpack(
                "<QQ", _read_exact(fh, 16, path, "dimensions"))
            data = _read_payload(fh, 8 * rows * cols, path,
                                 f"{rows}x{cols} float64 values")
            return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
        if magic == MAGIC_VECTOR:
            raise FileFormatError(path, "vector file given where a matrix "
                                  "was expected", offset=0)
    rows = []
    width = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            row = [_parse_float(tok.strip(), path, lineno)
                   for tok in line.split(",") if tok.strip()]
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FileFormatError(
                    path, f"row has {len(row)} values, expected {width}",
                    line=lineno)
            rows.append(row)
    if not rows:
        raise FileFormatError(path, "no rows found", line=1)
    return np.array(rows)


# ---------------------------------------------------------------------------
# Traces and run records.


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for row in trace:
            w.writerow([row.k, row.step_kind, _fmt(row.F), _fmt(row.D_norm),
                        _fmt(row.eta), _fmt(row.alpha), _fmt(row.t),
                        _fmt(row.s), row.elapsed_ns])


def read_trace_csv(path):
    rows = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_COLUMNS:
            raise FileFormatError(path, f"bad trace header: {header}", line=1)
        for rec in reader:
            rows.append(TraceRow(int(rec[0]), rec[1], float(rec[2]),
                                 float(rec[3]), float(rec[4]), float(rec[5]),
                                 float(rec[6]), float(rec[7]), int(rec[8])))
    return rows


def write_records_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow([r.spec_hash, r.solver, r.rep, int(r.converged),
                        r.iterations, _fmt(r.objective), _fmt(r.grad_map_norm),
                        _fmt(r.l1_norm), r.support_size, _fmt(r.time_s),
                        r.error])


def read_records_csv(path):
    records = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_COLUMNS:
            raise FileFormatError(path, f"bad records header: {header}", line=1)
        for rec in reader:
            records.append(RunRecord(
                spec_hash=rec[0], solver=rec[1], rep=int(rec[2]),
                converged=bool(int(rec[3])), iterations=int(rec[4]),
                objective=float(rec[5]), grad_map_norm=float(rec[6]),
                l1_norm=float(rec[7]), support_size=int(rec[8]),
                time_s=float(rec[9]), error=rec[10]))
    return records


# ---------------------------------------------------------------------------
# Experiment spec files.

_SPEC_INT = {"m", "n", "k_true", "seed", "reps"}
_SPEC_FLOAT = {"rho", "corruption", "noise", "lam"}
_CONFIG_INT = {"max_iters", "K_d", "coarse_budget", "levels",
               "line_search_cap"}
_CONFIG_FLOAT = {"eps", "kappa", "theta", "armijo_c", "tau", "s0", "mu",
                 "zeta", "coarse_tol", "bt_init_L", "bt_growth"}
_CONFIG_STR = {"mu_schedule"}
_CONFIG_BOOL = {"backtracking"}


def _convert_config_value(key, value, path, lineno):
    try:
        if key in _CONFIG_INT:
            return int(value)
        if key in _CONFIG_FLOAT:
            return float(value)
        if key in _CONFIG_BOOL:
            return value.strip().lower() in ("1", "true", "yes")
        if key in _CONFIG_STR:
            return value.strip()
    except ValueError:
        raise FileFormatError(path, f"bad value for {key}: {value!r}",
                              line=lineno) from None
    raise FileFormatError(path, f"unknown key: {key!r}", line=lineno)


def parse_experiment_file(path) -> ExperimentSpec:
    """Parse a key=value experiment spec.

    Recognized instance keys: m, n, rho, k_true, corruption, noise, seed,
    solvers, reps, lam, bucket.  Any SolverConfig field is accepted as a
    global default, and "<solver>.<field>" as a per-solver override.
    """
    fields = {}
    config = {}
    overrides = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(path, f"expected key=value, got {line!r}",
                                      line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                if key in _SPEC_INT:
                    fields[key] = int(value)
                elif key in _SPEC_FLOAT:
                    fields[key] = float(value)
                elif key == "bucket":
                    fields[key] = value.lower() in ("1", "true", "yes")
                elif key == "solvers":
                    fields[key] = tuple(s.strip() for s in value.split(",")
                                        if s.strip())
                elif "." in key:
                    solver, sub = key.split(".", 1)
                    overrides.setdefault(solver, {})[sub] = \
                        _convert_config_value(sub, value, path, lineno)
                else:
                    config[key] = _convert_config_value(key, value, path, lineno)
            except FileFormatError:
                raise
            except ValueError:
                raise FileFormatError(path, f"bad value for {key}: {value!r}",
                                      line=lineno) from None
    for required in ("m", "n"):
        if required not in fields:
            raise FileFormatError(path, f"missing required key {required!r}",
                                  line=1)
    try:
        return ExperimentSpec(config=config, overrides=overrides, **fields)
    except (ValueError, TypeError) as exc:
        raise FileFormatError(path, str(exc), line=1) from None


def write_experiment_file(spec: ExperimentSpec, path):
    with open(path, "w") as fh:
        d = dataclasses.asdict(spec)
        for key in ("m", "n", "rho", "k_true", "corruption", "noise", "seed",
                    "reps", "lam", "bucket"):
            fh.write(f"{key}={d[key]}\n")
        fh.write("solvers=" + ",".join(spec.solvers) + "\n")
        for key, value in spec.config.items():
            fh.write(f"{key}={value}\n")
        for solver, kv in spec.overrides.items():
            for key, value in kv.items():
                fh.write(f"{solver}.{key}={value}\n")
