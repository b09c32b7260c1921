"""Golden stdout of the command line on the corpus inputs.

Each case runs ``subperron.cli.main`` from ``tests/golden`` on a file under
``tests/golden/inputs`` and compares the exit code and stdout byte for byte
with ``tests/golden/<case>.out``, whose first line is ``exit <code>``.  This
holds a refactoring to its promise that the reports stay the same.

To rewrite the golden files of some commands with the ``subperron`` that is
on the import path (for instance that of another checkout), run

    PYTHONPATH=src python tests/test_golden.py freq measure
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

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
                            ("antidiag4", 4, (0,))):
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout(case):
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _run(CASES[case]) == expected


if __name__ == "__main__":
    commands = set(sys.argv[1:])
    for case, argv in sorted(CASES.items()):
        if argv[0] in commands:
            (GOLDEN / f"{case}.out").write_text(_run(argv), encoding="utf-8")
