"""The ``freq`` and ``measure`` golden files against an independent route.

Every value in those files must lie within ``10 * 1e-6`` (l1, per length;
1e-6 is the command's default tolerance) of the limit that the level-n
blow-up gives at tol 1e-12 (``conftest.blow_up_frequencies``), plus the
12-digit rounding of the report.  A rewrite of the golden files therefore
cannot drift from the limit unnoticed.  Where no factor of the length
starts with the base letter, the reference counts the windows of an
iterate ``zeta**t(a)`` of at least 2**20 letters.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from subperron import load_substitution, stabilizing_power
from test_golden import CASES, GOLDEN

BOUND = 10 * 1e-6
#: the 12-digit rounding of the printed values, summed over a length
ROUND_SLACK = 1e-10
COUNTED_LETTERS = 2**20


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
