"""The golden files against independent routes.

Every value in the ``freq`` and ``measure`` files must lie within
``10 * 1e-6`` (l1, per length; 1e-6 is the command's default tolerance) of
the limit that the level-n blow-up gives at tol 1e-12
(``conftest.blow_up_frequencies``), plus the 12-digit rounding of the
report.  Where no factor of the length starts with the base letter, the
reference counts the windows of an iterate ``zeta**t(a)`` of at least
2**20 letters.

In the ``analyze-matrix`` files, each printed limit and each printed
principal eigenvector must lie within ``PRINTED`` (l1, relative to the
vector's l1 norm) of ``conftest.limit_reference``: the limit from the
``--vector`` start, and the limit on the primitive-Frobenius power from the
unit start on the principal block, rescaled to mass 1 on that block.
``PRINTED`` leaves room for the 12-digit printing alone.  A rewrite of the
golden files therefore cannot drift from the limit unnoticed.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from conftest import limit_reference
from subperron import load_matrix, load_substitution, stabilizing_power
from test_golden import CASES, GOLDEN

BOUND = 10 * 1e-6
#: the 12-digit rounding of the printed values, summed over a length
ROUND_SLACK = 1e-10
COUNTED_LETTERS = 2**20
#: the l1 gap, relative to the l1 norm, that printing each entry to 12
#: significant digits leaves room for (at most n * 5e-12 for n entries)
PRINTED = 1e-10


def _window_frequencies(s, a, n):
    zs = s.power(stabilizing_power(s))
    word = (a,)
    while len(word) < COUNTED_LETTERS:
        word = zs.apply(word)
    counts = Counter(zip(*(word[i:] for i in range(n))))
    total = len(word) - n + 1
    return {w: c / total for w, c in counts.items()}


def _option(argv, name):
    return argv[argv.index(name) + 1]


def _golden_values(case):
    """The command's file, base letter and printed values by word."""
    argv = CASES[case]
    s = load_substitution(GOLDEN / argv[1])
    a = s.alphabet.index_of(_option(argv, "--letter"))
    code, _, stdout = (GOLDEN / f"{case}.out").read_text(
        encoding="utf-8").partition("\n")
    assert code == "exit 0", case
    if argv[0] == "freq":
        printed = json.loads(stdout)["frequencies"]
        values = {s.alphabet.encode(w): f for w, f in printed.items()}
    else:
        values = {s.alphabet.encode(_option(argv, "--word")): float(stdout)}
    return s, a, values


@pytest.mark.parametrize("case", sorted(
    case for case, argv in CASES.items() if argv[0] in ("freq", "measure")))
def test_golden_values_match_blow_up_route(case, frequency_oracle):
    s, a, values = _golden_values(case)
    for n in sorted({len(w) for w in values}):
        ref = frequency_oracle(s, a, n) or _window_frequencies(s, a, n)
        got = {w: f for w, f in values.items() if len(w) == n}
        if CASES[case][0] == "freq":
            words = set(got) | set(ref)
        else:
            words = set(got)
        gap = sum(abs(got.get(w, 0.0) - ref.get(w, 0.0)) for w in words)
        assert gap <= BOUND + ROUND_SLACK, (case, n, gap)


def _matrix_case(case):
    """The matrix of an ``analyze-matrix --json`` case and its report."""
    argv = CASES[case]
    code, _, stdout = (GOLDEN / f"{case}.out").read_text(
        encoding="utf-8").partition("\n")
    assert code == "exit 0", case
    return load_matrix(GOLDEN / argv[1]), json.loads(stdout)


def _gap(printed, reference):
    return (sum(abs(p - r) for p, r in zip(printed, reference))
            / sum(map(abs, reference)))


@pytest.mark.parametrize("case", sorted(
    case for case, argv in CASES.items() if "--vector" in argv
    and (GOLDEN / f"{case}.out").read_text(encoding="utf-8").startswith(
        "exit 0\n")))
def test_golden_limits_match_reference(case):
    m, report = _matrix_case(case)
    start = report["limit"]["start"]
    assert _gap(report["limit"]["limit"],
                limit_reference(m.entries, start)) <= PRINTED, case


@pytest.mark.parametrize("case", sorted(
    case for case, argv in CASES.items()
    if argv[0] == "analyze-matrix" and case.endswith(".json")))
def test_golden_principal_eigenvectors_match_reference(case):
    m, report = _matrix_case(case)
    mt = m.pow(report["primitive_frobenius_exponent"])
    assert report["principal_eigenvectors"], case
    for pe in report["principal_eigenvectors"]:
        block = [i - 1 for i in report["blocks"][pe["block"] - 1]["indices"]]
        unit = [int(i in block) for i in range(m.n)]
        limit = limit_reference(mt.entries, unit)
        mass = sum(limit[i] for i in block)
        reference = [x / mass for x in limit]
        assert _gap(pe["vector"], reference) <= PRINTED, (case, pe["block"])
