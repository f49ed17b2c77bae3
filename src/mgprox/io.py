"""File formats: binary vectors/matrices, CSV, traces, experiment specs.

Binary layout: magic bytes b"MLVEC1" or b"MLMAT1", then the dimensions as
64-bit little-endian unsigned integers (one for vectors, rows then cols
for matrices), then the payload as row-major little-endian float64.

CSV matrices are UTF-8 text, one row per line with comma-separated values
and '.' as the decimal separator; CSV vectors are one value per line (a
single comma-separated line is also accepted).

Traces and run records are CSV files whose header is the field names of
TraceRow or RunRecord (without RunRecord.trace), in declaration order;
floats are written by repr, so they read back exactly, and bools as 0/1.
Experiment spec files are line-oriented "key=value" with '#' comments.
Their keys are the ExperimentSpec fields other than config and overrides,
any SolverConfig field as a global default, and "<solver>.<field>" as a
per-solver override.  Every value is converted by its field's annotated
type, so the dataclasses are the one place a field is declared; the
solver settings are checked by SolverConfig when the spec is built.  A
malformed file raises FileFormatError with a byte offset or line number.
"""

import csv
import dataclasses
import math
import os
import struct

import numpy as np

from .harness import ExperimentSpec, RunRecord
from .solvers import SolverConfig, TraceRow

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
    "experiment_lines",
]

MAGIC_VECTOR = b"MLVEC1"
MAGIC_MATRIX = b"MLMAT1"


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
    """Read a header-announced payload; it must fill the rest of the file."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes != left:
        raise FileFormatError(path, f"header claims {what} ({nbytes} bytes) "
                              f"but {left} bytes follow",
                              offset=len(MAGIC_VECTOR))
    return _read_exact(fh, nbytes, path, what)


def _parse_float(token, path, lineno):
    try:
        return float(token)
    except ValueError:
        raise FileFormatError(path, f"not a number: {token!r}", line=lineno) \
            from None


_ARRAYS = {1: (MAGIC_VECTOR, "vector"), 2: (MAGIC_MATRIX, "matrix")}


def _read_array(path, ndim) -> np.ndarray:
    """A vector (ndim 1) or matrix (ndim 2) from the binary format or CSV,
    told apart by the magic bytes.  A CSV vector takes every value in
    file order; a CSV matrix takes one row per line, all of one width."""
    magic, kind = _ARRAYS[ndim]
    with open(path, "rb") as fh:
        head = fh.read(6)
        if head == magic:
            shape = struct.unpack(f"<{ndim}Q", _read_exact(
                fh, 8 * ndim, path, "dimensions"))
            data = _read_payload(fh, 8 * math.prod(shape), path,
                                 f"{'x'.join(map(str, shape))} float64 values")
            return np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        other_magic, other_kind = _ARRAYS[3 - ndim]
        if head == other_magic:
            raise FileFormatError(path, f"{other_kind} file given where a "
                                  f"{kind} was expected", offset=0)
        text = head + fh.read()
    try:
        lines = text.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, "not UTF-8 text",
                              line=text.count(b"\n", 0, exc.start) + 1) \
            from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = [_parse_float(tok.strip(), path, lineno)
               for tok in line.split(",") if tok.strip()]
        if ndim == 2 and rows and len(row) != len(rows[0]):
            raise FileFormatError(path, f"row has {len(row)} values, "
                                  f"expected {len(rows[0])}", line=lineno)
        rows.append(row)
    if not any(rows):
        raise FileFormatError(path, "no values found", line=1)
    return np.array([v for row in rows for v in row] if ndim == 1 else rows)


def read_vector(path) -> np.ndarray:
    """Read a vector from the binary format or CSV (detected by magic)."""
    return _read_array(path, 1)


def read_matrix(path) -> np.ndarray:
    """Read a matrix from the binary format or CSV (detected by magic)."""
    return _read_array(path, 2)


# ---------------------------------------------------------------------------
# Field values as text, traces and run records.

_TRUTH = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _parse_value(kind, text, path, line, key):
    """``text`` as a value of the annotated field type ``kind``."""
    try:
        if kind is bool:
            return _TRUTH[text.strip().lower()]
        if kind is tuple:
            return tuple(s.strip() for s in text.split(",") if s.strip())
        return kind(text)
    except (KeyError, ValueError):
        raise FileFormatError(path, f"bad value for {key}: {text!r}",
                              line=line) from None


def _csv_fields(cls):
    return tuple(f for f in dataclasses.fields(cls) if f.name != "trace")


def _write_rows(rows, cls, path):
    fields = _csv_fields(cls)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(f.name for f in fields)
        for row in rows:
            w.writerow(int(v) if isinstance(v, bool) else v
                       for v in (getattr(row, f.name) for f in fields))


def _read_rows(cls, path):
    fields = _csv_fields(cls)
    rows = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != [f.name for f in fields]:
                raise FileFormatError(path, f"bad {cls.__name__} header: "
                                      f"{header}", line=1)
            for cells in reader:
                if len(cells) != len(fields):
                    raise FileFormatError(path, f"row has {len(cells)} cells,"
                                          f" expected {len(fields)}",
                                          line=reader.line_num)
                rows.append(cls(**{
                    f.name: _parse_value(f.type, cell, path, reader.line_num,
                                         f.name)
                    for f, cell in zip(fields, cells)}))
        except csv.Error as exc:
            # e.g. a NUL byte (before Python 3.11) or an oversized field
            raise FileFormatError(path, str(exc), line=reader.line_num) \
                from None
    return rows


def write_trace_csv(trace, path):
    _write_rows(trace, TraceRow, path)


def read_trace_csv(path):
    return _read_rows(TraceRow, path)


def write_records_csv(records, path):
    _write_rows(records, RunRecord, path)


def read_records_csv(path):
    return _read_rows(RunRecord, path)


# ---------------------------------------------------------------------------
# Experiment spec files.

_SPEC_FIELDS = tuple(f for f in dataclasses.fields(ExperimentSpec)
                     if f.name not in ("config", "overrides"))
_SPEC_TYPES = {f.name: f.type for f in _SPEC_FIELDS}
_CONFIG_TYPES = {f.name: f.type for f in dataclasses.fields(SolverConfig)}
# The solver list follows the scalar instance keys, as files always had it.
_SPEC_FILE_ORDER = sorted(_SPEC_FIELDS, key=lambda f: f.type is tuple)


def _text(value) -> str:
    return ",".join(value) if isinstance(value, tuple) else str(value)


def parse_experiment_file(path) -> ExperimentSpec:
    """Parse a key=value experiment spec.

    The keys are the ExperimentSpec fields other than config and
    overrides (m and n are required), any SolverConfig field as a global
    default, and "<solver>.<field>" as a per-solver override.  Each key
    may be given once.
    """
    fields = {}
    config = {}
    overrides = {}
    first_line = {}
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FileFormatError(path, f"expected key=value, got {line!r}",
                                      line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise FileFormatError(
                    path, f"key {key!r} repeated; first given at line "
                    f"{first_line[key]}", line=lineno)
            first_line[key] = lineno
            if key in _SPEC_TYPES:
                target, name, kind = fields, key, _SPEC_TYPES[key]
            else:
                solver, dot, name = key.rpartition(".")
                target = overrides.setdefault(solver, {}) if solver else config
                # ".eps" names no solver, so it is no key
                kind = None if dot and not solver else _CONFIG_TYPES.get(name)
                if kind is None:
                    raise FileFormatError(path, f"unknown key: {key!r}",
                                          line=lineno)
            target[name] = _parse_value(kind, value, path, lineno, key)
    # a missing key, or values that do not fit together, belong to no
    # one line
    for f in _SPEC_FIELDS:
        if f.default is dataclasses.MISSING and f.name not in fields:
            raise FileFormatError(path, f"missing required key {f.name!r}")
    try:
        return ExperimentSpec(config=config, overrides=overrides, **fields)
    except ValueError as exc:
        raise FileFormatError(path, str(exc)) from None


def experiment_lines(spec: ExperimentSpec) -> list:
    """The key=value lines of ``spec``'s file: instance keys, the solver
    list, then global config fields and per-solver overrides."""
    lines = [f"{f.name}={_text(getattr(spec, f.name))}"
             for f in _SPEC_FILE_ORDER]
    lines += [f"{key}={value}" for key, value in spec.config.items()]
    lines += [f"{solver}.{key}={value}"
              for solver, kv in spec.overrides.items()
              for key, value in kv.items()]
    return lines


def write_experiment_file(spec: ExperimentSpec, path):
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in experiment_lines(spec))
