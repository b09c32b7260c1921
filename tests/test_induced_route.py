"""Frequency tables read off the letter limit (the substitution induced on
length-n words) against an independent route: the level-n blow-up of
``conftest.blow_up_frequencies``, not the tables themselves."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from subperron import (
    Substitution,
    factor_alphabet,
    frequency_table,
    kirchhoff_check,
    spectral,
    stabilizing_power,
    words,
)
from subperron.cli import main

from conftest import left_sum, random_expanding

INPUTS = Path(__file__).parent / "golden" / "inputs"
MAX_LEN = 6

# the 4-letter substitutions of the benchmark's blowup_table at seed 1: all
# images of length >= 2, one primitive, one with a primitive block {a, b}
# above a primitive block {c, d} of smaller root
PRIM4 = [("a", "ccb"), ("b", "acd"), ("c", "aaa"), ("d", "dab")]
RED4 = [("a", "badb"), ("b", "aab"), ("c", "ddd"), ("d", "cd")]

#: (rules, base letter, max_len) of the tables checked at every length
EVERY_LENGTH = [
    ([("t", "tab"), ("a", "aa"), ("b", "bb")], "t", 6),
    (PRIM4, "a", 16),
    (RED4, "a", 16),
]


@pytest.fixture(scope="module")
def cases(corpus):
    """(name, substitution, base letters) for the corpus (every base
    letter), ``cc`` (a length-2 factor inside no longer factor) and 50
    seeded random expanding substitutions (first letter)."""
    rng = random.Random(20261018)
    cc = Substitution.from_rules([("a", "ca"), ("b", "cc"), ("c", "aa")])
    out = [(name, s, range(len(s.alphabet))) for name, s in corpus.items()]
    out.append(("cc", cc, [0]))
    out += [(f"random{k}", random_expanding(rng), [0]) for k in range(50)]
    return out


def _tables(cases):
    return {(name, a): frequency_table(s, a, max_len=MAX_LEN, tol=1e-12)
            for name, s, bases in cases for a in bases}


@pytest.fixture(scope="module")
def tables(cases):
    return _tables(cases)


def _length(table, n):
    return {w: f for w, f in table.entries.items() if len(w) == n}


def test_tables_match_blow_up_route(cases, tables, frequency_oracle):
    compared = 0
    for name, s, bases in cases:
        for a in bases:
            for n in range(1, MAX_LEN + 1):
                ref = frequency_oracle(s, a, n)
                if ref is None:
                    # no factor of length n starts with a: see the b_over_a test
                    continue
                got = _length(tables[name, a], n)
                gap = sum(abs(got.get(w, 0.0) - ref.get(w, 0.0))
                          for w in set(got) | set(ref))
                assert gap <= 1e-10, (name, s, a, n, gap)
                compared += 1
    assert compared >= 50 * MAX_LEN


def test_keys_are_the_factor_alphabets(cases, tables):
    for name, s, bases in cases:
        zs = s.power(stabilizing_power(s))
        for a in bases:
            for n in range(2, MAX_LEN + 1):
                assert set(_length(tables[name, a], n)) == set(
                    factor_alphabet(zs, n).words), (name, s, a, n)


def _two_sum_kirchhoff(table):
    """``(max_residual, worst_word)`` by the two-sum formula: for each word
    ``w``, the sums over letters ``b`` of ``omega(b w)`` and ``omega(w b)``,
    each looked up by concatenation."""
    letters = [(i,) for i in range(len(table.substitution.alphabet))]
    entries = table.entries
    worst, worst_word = 0.0, ""
    for w, f in entries.items():
        if len(w) >= table.max_len:
            continue
        left = left_sum([entries.get(b + w, 0.0) for b in letters])
        right = left_sum([entries.get(w + b, 0.0) for b in letters])
        violation = max(abs(f - left), abs(f - right))
        if violation > worst:
            worst = violation
            worst_word = table.substitution.alphabet.decode(w)
    return worst, worst_word


def test_kirchhoff_matches_the_two_sum_formula(corpus, tables):
    # every corpus base letter (b_over_a based at b too) at max_len 2-6,
    # and the tables of the random substitutions
    checked = list(tables.values())
    for s in corpus.values():
        for a in range(len(s.alphabet)):
            checked += [frequency_table(s, a, max_len=n) for n in range(2, 7)]
    for table in checked:
        report = kirchhoff_check(table)
        assert ((report.max_residual, report.worst_word)
                == _two_sum_kirchhoff(table)), table.substitution
    assert any(kirchhoff_check(table).max_residual > 0 for table in checked)


@pytest.mark.parametrize("rules,base,max_len", EVERY_LENGTH)
def test_every_length_within_tol(rules, base, max_len):
    s = Substitution.from_rules(rules)
    ref = frequency_table(s, base, max_len=max_len, tol=1e-14)
    for tol in (1e-6, 1e-10):
        tab = frequency_table(s, base, max_len=max_len, tol=tol)
        for n in range(1, max_len + 1):
            gap = sum(abs(tab.entries[w] - f)
                      for w, f in ref.entries.items() if len(w) == n)
            assert gap <= tol, (rules, tol, n, gap)


def test_letters_the_base_never_reaches_leave_the_limit_alone(
        frequency_oracle):
    # c -> c**30 has the longest image and the largest root, but a never
    # reaches c, so neither touches the limits based at a
    s = Substitution.from_rules([("a", "abb"), ("b", "ba"), ("c", "c" * 30)])
    tab = frequency_table(s, "a", max_len=8, tol=1e-12)
    for n in range(1, 9):
        ref = frequency_oracle(s, 0, n)
        got = _length(tab, n)
        gap = sum(abs(got.get(w, 0.0) - ref.get(w, 0.0))
                  for w in set(got) | set(ref))
        assert gap <= 1e-10, (n, gap)


def test_no_start_at_tol_above_zero_steps(cases, monkeypatch):
    # the tables of the fixture and the references of the every-length
    # test, built with every step of a trajectory refused
    def step(self):
        raise AssertionError("a run at tol > 0 took a step")

    monkeypatch.setattr(spectral._Trajectory, "step", step)
    built = _tables(cases)
    assert all(table.iterations == 0 for table in built.values())
    for rules, base, max_len in EVERY_LENGTH:
        s = Substitution.from_rules(rules)
        assert frequency_table(s, base, max_len=max_len,
                               tol=1e-14).iterations == 0
        # the patch bites: a run at tol 0 steps
        with pytest.raises(AssertionError, match="took a step"):
            frequency_table(s, base, max_len=max_len, tol=0, max_iter=1)


def test_freq_and_measure_build_no_blow_up(capsys, monkeypatch):
    calls = {"_blow_up": 0, "factor_alphabet": 0}
    for name in calls:
        original = getattr(words, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").split(".")[0] == "subperron"
                    and vars(module).get(name) is original):
                monkeypatch.setattr(module, name, counting)
    sub = str(INPUTS / "tribonacci.sub")
    assert main(["freq", sub, "--letter", "a", "--max-len", "8"]) == 0
    assert main(["measure", sub, "--letter", "a", "--word", "abacaba"]) == 0
    capsys.readouterr()
    assert calls == {"_blow_up": 0, "factor_alphabet": 0}
    assert main(["analyze-subst", sub, "--blowup", "3"]) == 0
    assert calls["_blow_up"] == 1


class TestNoSeedWord:
    """``b -> ab, a -> aa`` based at ``b``: no factor of length >= 2 starts
    with ``b``, yet ``zeta**t(b) = a**(2**t - 1) b``, so ``aa`` and ``aaa``
    have frequency 1 and ``ab`` frequency 0."""

    SUB = str(INPUTS / "b_over_a.sub")

    def test_freq(self, capsys):
        assert main(["freq", self.SUB, "--letter", "b", "--max-len", "3"]) == 0
        freqs = json.loads(capsys.readouterr().out)["frequencies"]
        assert freqs["aa"] == pytest.approx(1.0, abs=1e-6)
        assert freqs["ab"] == pytest.approx(0.0, abs=1e-6)
        assert freqs["aaa"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("word,value", [("aa", 1.0), ("ab", 0.0),
                                            ("aaa", 1.0), ("ba", 0.0)])
    def test_measure(self, capsys, word, value):
        assert main(["measure", self.SUB, "--letter", "b", "--word", word,
                     "--tol", "1e-10"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(value, abs=1e-10)
