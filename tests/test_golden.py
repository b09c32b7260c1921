"""Golden stdout of the command line on the corpus inputs.

Each case runs ``subperron.cli.main`` from ``tests/golden`` on a file under
``tests/golden/inputs`` and compares the exit code and stdout byte for byte
with ``tests/golden/<case>.out``, whose first line is ``exit <code>``.  This
holds a refactoring to its promise that the reports stay the same.

To check every case without pytest (on any Python the package supports),
run

    PYTHONPATH=src python tests/test_golden.py --check

which prints the cases whose stdout differs and exits 1 when any does.  A
case whose text differs only in its numbers is printed with the largest
absolute change among them, so that a rewrite can be checked against the
case's ``--tol``.  To
rewrite the golden files of some commands with the ``subperron`` that is
on the import path (for instance that of another checkout), run

    PYTHONPATH=src python tests/test_golden.py freq measure
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

from subperron.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: corpus substitution -> (first letter, last letter, the lexicographically
#: first factor of length 2 of its stabilizing power)
SUBSTITUTIONS = {
    "fibonacci": ("a", "b", "aa"),
    "thue_morse": ("a", "b", "aa"),
    "aab_bb": ("a", "b", "aa"),
    "ab_bbb": ("a", "b", "ab"),
    "cyclic4": ("a", "b", "aa"),
    "tribonacci": ("a", "c", "aa"),
    "period_doubling": ("a", "b", "aa"),
    "two_bottom": ("t", "b", "aa"),
    "aabb_ab": ("a", "b", "aa"),
    "b_over_a": ("b", "a", "aa"),
    "case3": ("p", "y2", "p y1"),
}


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, (first, last, pair) in SUBSTITUTIONS.items():
        sub = f"inputs/{name}.sub"
        cases[f"{name}.analyze-subst"] = ["analyze-subst", sub]
        cases[f"{name}.analyze-subst.json"] = ["analyze-subst", sub, "--json"]
        for n in (2, 3):
            cases[f"{name}.analyze-subst.blowup{n}"] = [
                "analyze-subst", sub, "--json", "--blowup", str(n)]
        for letter, max_len in ((first, 1), (first, 3), (last, 4)):
            cases[f"{name}.freq.{letter}{max_len}"] = [
                "freq", sub, "--letter", letter, "--max-len", str(max_len)]
        cases[f"{name}.measure.pair"] = [
            "measure", sub, "--letter", first, "--word", pair]
        cases[f"{name}.measure.last"] = [
            "measure", sub, "--letter", first, "--word", last]
    for name, n, starts in (("m8", 8, (4, 6)), ("case3", 6, (0, 2)),
                            ("antidiag4", 4, (0,)), ("cycles14", 14, (0,))):
        mat = f"inputs/{name}.mat"
        cases[f"{name}.analyze-matrix"] = ["analyze-matrix", mat]
        cases[f"{name}.analyze-matrix.json"] = ["analyze-matrix", mat, "--json"]
        for i in starts:
            vector = ",".join("1" if k == i else "0" for k in range(n))
            cases[f"{name}.analyze-matrix.e{i + 1}"] = [
                "analyze-matrix", mat, "--json", "--vector", vector]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    """``exit <code>`` and the stdout of one command run from GOLDEN."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {code}\n{out.getvalue()}"


def _expected(case: str) -> str:
    return (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def largest_change(got: str, want: str) -> float | None:
    """The largest absolute change between the numbers of ``got`` and
    ``want``, in order; None when the texts differ outside their numbers."""
    if NUMBER.split(got) != NUMBER.split(want):
        return None
    return max((abs(float(x) - float(y)) for x, y in
                zip(NUMBER.findall(got), NUMBER.findall(want))), default=0.0)


def _difference(case: str) -> str | None:
    """None when ``case`` matches its golden file, else its line of
    ``--check``: the case, and the largest change when only numbers move."""
    got, want = _run(CASES[case]), _expected(case)
    if got == want:
        return None
    change = largest_change(got, want)
    return case if change is None else f"{case}: largest change {change:.3g}"


def pytest_generate_tests(metafunc):
    # parametrized by this hook, so that the module imports without pytest
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", sorted(CASES))


def test_golden_stdout(case):
    assert _run(CASES[case]) == _expected(case)


def test_largest_change():
    got = 'exit 0\n{"a": 0.61803398875, "t": 12, "w": "y1"}\n'
    want = 'exit 0\n{"a": 0.618033985017, "t": 12, "w": "y1"}\n'
    assert abs(largest_change(got, want) - 3.733e-9) < 1e-15
    assert largest_change(want, want) == 0.0
    assert largest_change("1e-3 -2", "0.001 -2.0") == 0.0
    assert largest_change(got.replace("t", "u"), want) is None
    assert largest_change(got + "1\n", want) is None


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        differ = [line for line in map(_difference, sorted(CASES)) if line]
        print("\n".join(differ + [f"{len(CASES) - len(differ)}/{len(CASES)} "
                                   "golden cases match"]))
        sys.exit(1 if differ else 0)
    commands = set(sys.argv[1:])
    for case, argv in sorted(CASES.items()):
        if argv[0] in commands:
            (GOLDEN / f"{case}.out").write_text(_run(argv), encoding="utf-8")
