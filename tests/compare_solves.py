"""Compare two solve records written by ``pytest --record-solves PATH``.

    python tests/compare_solves.py A.jsonl B.jsonl

Exits 0 when both records hold the same solves, line for line, bit for
bit, and 1 otherwise, naming the first test and field that differ.  An
empty record also exits 1, since it compares nothing.
"""

import json
import sys


def _first_difference(a, b):
    """The first field of two solve lines that differs, with the index of
    the first differing entry of a list; None if they are equal."""
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if key == "x" and len(va) == len(vb):  # 16 hex digits per float64
            i = next(i for i in range(0, len(va), 16)
                     if va[i:i + 16] != vb[i:i + 16])
            return f"x[{i // 16}]: bytes {va[i:i + 16]} != {vb[i:i + 16]}"
        if isinstance(va, list) and isinstance(vb, list):
            for i, (ra, rb) in enumerate(zip(va, vb)):
                if ra != rb:
                    return f"{key}[{i}]: {ra} != {rb}"
            return f"{key}: {len(va)} entries != {len(vb)}"
        return f"{key}: {va} != {vb}"
    return None


def compare(path_a, path_b):
    """(message, solves): a message naming the first difference, None if
    the records agree, and the number of solves compared."""
    with open(path_a) as fa, open(path_b) as fb:
        lines_a = [json.loads(line) for line in fa]
        lines_b = [json.loads(line) for line in fb]
    for path, lines in ((path_a, lines_a), (path_b, lines_b)):
        if not lines:
            return f"{path} records no solve", 0
    for n, (a, b) in enumerate(zip(lines_a, lines_b), start=1):
        if a["test"] != b["test"]:
            return (f"solve {n}: made by {a['test']} in {path_a}, "
                    f"by {b['test']} in {path_b}"), n
        diff = _first_difference(a, b)
        if diff is not None:
            return f"solve {n} of {a['test']}: {diff}", n
    if len(lines_a) != len(lines_b):
        n = min(len(lines_a), len(lines_b))
        extra = (lines_a if len(lines_a) > n else lines_b)[n]
        return (f"{path_a} records {len(lines_a)} solves, {path_b} "
                f"{len(lines_b)}; the first unmatched is of "
                f"{extra['test']}"), n
    return None, len(lines_a)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    diff, solves = compare(*args)
    if diff is not None:
        print(f"solves differ: {diff}")
        return 1
    print(f"{solves} solves identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
