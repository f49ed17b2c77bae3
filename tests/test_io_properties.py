"""Property-based tests of the file formats: every file the writers make
reads back equal, and damaged files raise FileFormatError.

Settings are fixed (derandomized, bounded example counts) so that the
suite's run time and outcome do not vary from run to run.
"""

import dataclasses
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
from mgprox.solvers import SOLVERS

PROPERTY = settings(
    derandomize=True, database=None, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])

# Values by annotated field type; strings may hold any printable character,
# commas, quotes and line breaks included, since the CSV quoting must carry
# them.
_BY_TYPE = {
    int: st.integers(),
    float: st.floats(),
    bool: st.booleans(),
    str: st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\x00")),
}


def _rows(cls):
    return st.lists(st.builds(cls, **{
        f.name: _BY_TYPE[f.type] for f in dataclasses.fields(cls)
        if f.name != "trace"}), max_size=8)


def _same(a, b):
    # repr tells NaN from NaN and -0.0 from 0.0 apart as equality cannot
    return [repr(dataclasses.astuple(r)) for r in a] \
        == [repr(dataclasses.astuple(r)) for r in b]


@PROPERTY
@given(rows=_rows(TraceRow))
def test_trace_round_trip(tmp_path, rows):
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    assert _same(read_trace_csv(path), rows)


@PROPERTY
@given(records=_rows(RunRecord))
def test_records_round_trip(tmp_path, records):
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    assert _same(read_records_csv(path), records)


@PROPERTY
@given(tail=st.text(string.printable + "\x00\"", max_size=200))
# A NUL byte: csv.reader raises csv.Error on it before Python 3.11
@example(tail="0,grad\x00,1.0,1.0,1.0,1.0,1.0,1.0,0\n")
def test_csv_garbage_rows_read_or_rejected(tmp_path, tail):
    path = tmp_path / "trace.csv"
    write_trace_csv([], path)
    with open(path, "a", newline="") as fh:
        fh.write(tail)
    try:
        read_trace_csv(path)
    except FileFormatError:
        pass


def _valid_config(**fields):
    try:
        SolverConfig(**fields)
    except ValueError:
        return False
    return True


def _non_default_config():
    """Any subset of SolverConfig fields, each valid and off its default.

    SolverConfig checks each field on its own, so fields valid one by one
    make a valid config together."""
    def field_value(f):
        kind = {
            int: st.integers(min_value=1),
            # v or 1/v: every float field accepts one unless v is 1
            float: st.floats(1e-300, 1e300).map(
                lambda v: v if _valid_config(**{f.name: v}) else 1.0 / v),
        }.get(f.type, _BY_TYPE[f.type])
        return kind.filter(
            lambda v: v != f.default and _valid_config(**{f.name: v}))

    return st.fixed_dictionaries({}, optional={
        f.name: field_value(f) for f in dataclasses.fields(SolverConfig)})


@st.composite
def _specs(draw):
    n = draw(st.integers(1, 50))
    unit = st.floats(0.0, 1.0)
    solvers = tuple(draw(st.lists(st.sampled_from(SOLVERS), min_size=1,
                                  max_size=4)))
    config = draw(_non_default_config())
    overrides = draw(st.dictionaries(st.sampled_from(SOLVERS),
                                     _non_default_config().filter(bool),
                                     max_size=4))
    if "magma" in solvers:
        # a spec with magma is valid only where its chain fits n
        for fields in (config, overrides.get("magma", {})):
            if "levels" in fields:
                fields["levels"] = min(fields["levels"], n.bit_length())
    return ExperimentSpec(
        m=draw(st.integers(1, 50)), n=n,
        rho=draw(unit.filter(lambda v: v < 1.0)),
        k_true=draw(st.integers(0, n)), corruption=draw(unit),
        noise=draw(st.floats(0.0, 1e3)), seed=draw(st.integers(0, 2 ** 32)),
        solvers=solvers, reps=draw(st.integers(1, 9)),
        lam=draw(st.floats(0.0, 1e3)), bucket=draw(st.booleans()),
        config=config, overrides=overrides)


@PROPERTY
@given(spec=_specs())
def test_experiment_spec_round_trip(tmp_path, spec):
    path = tmp_path / "spec.txt"
    write_experiment_file(spec, path)
    assert parse_experiment_file(path) == spec


_KEYS = [f.name for f in dataclasses.fields(ExperimentSpec)] \
    + [f.name for f in dataclasses.fields(SolverConfig)] \
    + ["magma.kappa", "fista.eps", "wibble", "wibble.kappa"]


@PROPERTY
@given(lines=st.lists(st.tuples(
    st.sampled_from(_KEYS),
    st.one_of(st.floats().map(repr), st.integers().map(str),
              st.text(string.printable, max_size=12))), max_size=12))
def test_spec_text_parses_or_is_rejected(tmp_path, lines):
    path = tmp_path / "spec.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in lines))
    try:
        spec = parse_experiment_file(path)
    except FileFormatError:
        return
    assert set(spec.overrides) <= set(SOLVERS)
    # every solver's config builds, so its values are valid and finite
    configs = [spec.solver_config(s) for s in SOLVERS]
    assert all(np.isfinite(v) for record in (spec, *configs)
               for v in dataclasses.astuple(record) if isinstance(v, float))


_ARRAYS = st.lists(st.floats(width=64), max_size=24)


def _matrix(values, cols):
    rows = len(values) // cols
    return np.array(values[:rows * cols], dtype=float).reshape(rows, cols)


@PROPERTY
@given(values=_ARRAYS, cols=st.integers(1, 5))
def test_binary_round_trip(tmp_path, values, cols):
    v = np.array(values, dtype=float)
    write_vector(tmp_path / "v.mlv", v)
    assert read_vector(tmp_path / "v.mlv").tobytes() == v.tobytes()
    A = _matrix(values, cols)
    write_matrix(tmp_path / "a.mlm", A)
    back = read_matrix(tmp_path / "a.mlm")
    assert back.shape == A.shape and back.tobytes() == A.tobytes()


@PROPERTY
@given(values=_ARRAYS, cols=st.integers(1, 5), data=st.data())
def test_truncated_binary_rejected(tmp_path, values, cols, data):
    for path, write, read, array in (
            (tmp_path / "v.mlv", write_vector, read_vector,
             np.array(values, dtype=float)),
            (tmp_path / "a.mlm", write_matrix, read_matrix,
             _matrix(values, cols))):
        write(path, array)
        raw = path.read_bytes()
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(FileFormatError):
            read(path)


@PROPERTY
@given(values=_ARRAYS, cols=st.integers(1, 5),
       claim=st.tuples(st.integers(0, 2 ** 64 - 1),
                       st.integers(0, 2 ** 64 - 1)))
def test_lying_binary_header_rejected(tmp_path, values, cols, claim):
    v = np.array(values, dtype=float)
    if claim[0] != v.size:
        path = tmp_path / "v.mlv"
        write_vector(path, v)
        raw = path.read_bytes()
        path.write_bytes(raw[:6] + claim[0].to_bytes(8, "little") + raw[14:])
        with pytest.raises(FileFormatError, match="header claims"):
            read_vector(path)
    A = _matrix(values, cols)
    if claim[0] * claim[1] != A.size:
        path = tmp_path / "a.mlm"
        write_matrix(path, A)
        raw = path.read_bytes()
        path.write_bytes(raw[:6] + claim[0].to_bytes(8, "little")
                         + claim[1].to_bytes(8, "little") + raw[22:])
        with pytest.raises(FileFormatError, match="header claims"):
            read_matrix(path)
