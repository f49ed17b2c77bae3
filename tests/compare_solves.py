"""Compare two solve records written by ``pytest --record-solves PATH``.

    python tests/compare_solves.py A.jsonl B.jsonl

Exits 0 when both records hold the same solves, test by test, bit for
bit, and 1 otherwise, with one line for every solve that differs: its
test, its place among that test's solves and the fields that differ,
the trace's by the names of its differing columns.  An empty record also
exits 1, since it compares nothing.
"""

import json
import sys

# The columns of a recorded trace row: mgprox.solvers.TraceRow's fields
# without elapsed_ns, which the recorder leaves out.
TRACE_COLUMNS = ("k", "step_kind", "F", "D_norm", "eta", "alpha", "t", "s")


def _differences(a, b):
    """The fields of two solve lines that differ, in the order of ``a``:
    the trace named with its differing columns, and its row counts if
    they differ."""
    found = []
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if key == "trace" and isinstance(va, list) and isinstance(vb, list):
            cols = sorted({i for ra, rb in zip(va, vb)
                           for i, (ca, cb) in enumerate(zip(ra, rb))
                           if ca != cb})
            parts = [TRACE_COLUMNS[i] for i in cols]
            if len(va) != len(vb):
                parts.append(f"rows {len(va)} != {len(vb)}")
            key = f"trace ({', '.join(parts)})"
        found.append(key)
    return found


def _by_test(lines):
    """The solve lines of one record, grouped by test in order."""
    tests = {}
    for line in lines:
        tests.setdefault(line["test"], []).append(line)
    return tests


def compare(path_a, path_b):
    """(differences, solves): one line for each solve that differs, and
    for each test that made a different number of solves, none if the
    records agree; and the number of solves in ``path_a``."""
    records = []
    for path in (path_a, path_b):
        with open(path) as f:
            lines = [json.loads(line) for line in f]
        if not lines:
            return [f"{path} records no solve"], 0
        records.append(_by_test(lines))
    a, b = records
    found = []
    for test in list(a) + [t for t in b if t not in a]:
        sa, sb = a.get(test, []), b.get(test, [])
        if len(sa) != len(sb):
            found.append(f"{test}: {len(sa)} solves in {path_a}, "
                         f"{len(sb)} in {path_b}")
        for n, (la, lb) in enumerate(zip(sa, sb), start=1):
            fields = _differences(la, lb)
            if fields:
                found.append(f"{test}, solve {n}: {', '.join(fields)}")
    return found, sum(len(solves) for solves in a.values())


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    found, solves = compare(*args)
    if found:
        print(f"solves differ ({len(found)} of {solves}):")
        for line in found:
            print(f"  {line}")
        return 1
    print(f"{solves} solves identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
