import dataclasses
import json

import numpy as np
import pytest

from mgprox import SolverConfig, TraceRow, fista, ista
from conftest import one_d_lasso, random_lasso, solve_line
import compare_solves


@pytest.fixture
def lines():
    """The records of three solves, two made by one test."""
    p = random_lasso(np.random.default_rng(0), m=12, n=8, lam=0.1)
    cfg = SolverConfig(eps=1e-8, max_iters=40)
    return [solve_line("t.py::test_a", fista(p, np.zeros(p.dim), cfg)),
            solve_line("t.py::test_a", ista(p, np.zeros(p.dim), cfg)),
            solve_line("t.py::test_b",
                       fista(one_d_lasso(), np.zeros(1), cfg))]


def write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def run(tmp_path, lines_a, lines_b, capsys):
    code = compare_solves.main([write(tmp_path / "a.jsonl", lines_a),
                                write(tmp_path / "b.jsonl", lines_b)])
    return code, capsys.readouterr().out


def test_trace_columns_are_the_recorded_fields():
    assert compare_solves.TRACE_COLUMNS == tuple(
        f.name for f in dataclasses.fields(TraceRow)
        if f.name != "elapsed_ns")


def test_identical_records_exit_0(tmp_path, lines, capsys):
    code, out = run(tmp_path, lines, json.loads(json.dumps(lines)), capsys)
    assert code == 0
    assert out == "3 solves identical\n"


def test_every_differing_solve_is_named(tmp_path, lines, capsys):
    # one D_norm flipped in the second solve of test_a, and the objective
    # and one trace F in test_b: both solves are reported, each with its
    # fields, the trace's by column name
    changed = json.loads(json.dumps(lines))
    changed[1]["trace"][2][3] = (2.0 * float.fromhex(
        changed[1]["trace"][2][3])).hex()
    changed[2]["objective"] = (1.0).hex()
    changed[2]["trace"][0][2] = (1.0).hex()
    code, out = run(tmp_path, lines, changed, capsys)
    assert code == 1
    assert out.splitlines() == [
        "solves differ (2 of 3):",
        "  t.py::test_a, solve 2: trace (D_norm)",
        "  t.py::test_b, solve 1: objective, trace (F)",
    ]


def test_missing_solve_is_named(tmp_path, lines, capsys):
    code, out = run(tmp_path, lines, lines[1:], capsys)
    assert code == 1
    assert "t.py::test_a: 2 solves in" in out
    assert "t.py::test_a, solve 1: " in out


def test_empty_record_exits_1(tmp_path, lines, capsys):
    code, out = run(tmp_path, lines, [], capsys)
    assert code == 1
    assert "records no solve" in out


def test_wrong_arguments_exit_2(capsys):
    assert compare_solves.main(["only_one.jsonl"]) == 2
