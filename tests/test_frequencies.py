"""Letter and factor frequencies, Kirchhoff conditions, cylinder measures."""

import json
import math

import pytest

from subperron import (
    MaxIterError,
    NotExpandingError,
    ParseError,
    Substitution,
    blow_up,
    factor_alphabet,
    factor_frequencies,
    frequency_table,
    growth_rate,
    kirchhoff_check,
    letter_frequencies,
    measure_cylinder,
    normalized_limit,
    stabilizing_power,
)
from subperron.cli import main
from subperron.frequencies import FrequencyTable
from subperron.spectral import _Trajectory, float_matvec, l1_dist

from conftest import count_occurrences_str, iterate_letter

PHI = (1 + math.sqrt(5)) / 2
F_AB = (3 - math.sqrt(5)) / 2          # fibonacci pair frequencies
F_AA = math.sqrt(5) - 2


def expand(s, letter, min_len):
    """zeta^t(letter) as a string, grown until at least min_len letters."""
    images = {ltr: s.alphabet.decode(img)
              for ltr, img in zip(s.alphabet.letters, s.images)}
    w = letter
    while len(w) < min_len:
        w = "".join(images[ch] for ch in w)
    return w


class TestLetterFrequencies:
    def test_fibonacci(self, fib):
        vec, rep = letter_frequencies(fib, "a")
        assert vec[0] == pytest.approx(PHI - 1, abs=1e-9)
        assert vec[1] == pytest.approx(2 - PHI, abs=1e-9)
        assert sum(vec) == pytest.approx(1.0, abs=1e-12)

    def test_fibonacci_vs_counts(self, fib):
        w = expand(fib, "a", 100000)
        assert w.count("a") / len(w) == pytest.approx(PHI - 1, abs=1e-4)

    def test_thue_morse_symmetry(self, thue_morse):
        vec, _ = letter_frequencies(thue_morse, "a")
        assert vec == pytest.approx((0.5, 0.5), abs=1e-10)

    def test_reducible_pair(self, aab_bb):
        vec, _ = letter_frequencies(aab_bb, "a", tol=1e-6)
        assert vec[0] == pytest.approx(0.0, abs=2e-3)
        assert vec[1] == pytest.approx(1.0, abs=2e-3)

    def test_reducible_pair_exact_limit(self, aab_bb):
        # zeta^t(a) holds 2^t letters a among 2^t + t 2^(t-1), so f_a(a) =
        # 2 / (t + 2) -> 0 and the growth rate tends to 2
        vec, report = letter_frequencies(aab_bb, "a")
        assert vec == (0.0, 1.0)
        assert report.eigenvalue == 2.0

    def test_budget_exhaustion_raises_with_partial(self, aab_bb):
        with pytest.raises(MaxIterError) as exc_info:
            # tol 0 never settles: the run takes its whole budget
            letter_frequencies(aab_bb, "a", tol=0, max_iter=200)
        assert exc_info.value.partial is not None

    def test_rejects_non_expanding(self):
        s = Substitution.from_rules([("a", "ab"), ("b", "b")])
        with pytest.raises(NotExpandingError):
            letter_frequencies(s, "a")


class TestGrowthRate:
    def test_fibonacci(self, fib):
        assert growth_rate(fib, "a") == pytest.approx(PHI, abs=1e-9)

    def test_reducible_pair(self, aab_bb):
        assert growth_rate(aab_bb, "a", tol=1e-6) == pytest.approx(2.0, abs=2e-3)

    def test_pure_bottom(self):
        s = Substitution.from_rules([("a", "ab"), ("b", "bbb")])
        assert growth_rate(s, "a") == pytest.approx(3.0, abs=1e-9)

    def test_exceeds_one_on_corpus(self, corpus):
        for s in corpus.values():
            for ltr in s.alphabet.letters:
                assert growth_rate(s, ltr, tol=1e-6) > 1.0


class TestFactorFrequencies:
    def test_fibonacci_pairs(self, fib):
        freqs = factor_frequencies(fib, "a", 2)
        decoded = {fib.alphabet.decode(w): f for w, f in freqs.items()}
        assert decoded["ab"] == pytest.approx(F_AB, abs=1e-8)
        assert decoded["ba"] == pytest.approx(F_AB, abs=1e-8)
        assert decoded["aa"] == pytest.approx(F_AA, abs=1e-8)

    def test_fibonacci_pairs_vs_counts(self, fib):
        w = expand(fib, "a", 100000)
        freqs = factor_frequencies(fib, "a", 2)
        for word, f in freqs.items():
            u = fib.alphabet.decode(word)
            assert count_occurrences_str(w, u) / len(w) == pytest.approx(
                f, abs=1e-4)

    def test_thue_morse_pairs(self, thue_morse):
        freqs = factor_frequencies(thue_morse, "a", 2)
        decoded = {thue_morse.alphabet.decode(w): f for w, f in freqs.items()}
        assert decoded["ab"] == pytest.approx(1 / 3, abs=1e-8)
        assert decoded["ba"] == pytest.approx(1 / 3, abs=1e-8)
        assert decoded["aa"] == pytest.approx(1 / 6, abs=1e-8)
        assert decoded["bb"] == pytest.approx(1 / 6, abs=1e-8)

    def test_reducible_bb_dominates(self, aab_bb):
        freqs = factor_frequencies(aab_bb, "a", 2, tol=1e-6)
        decoded = {aab_bb.alphabet.decode(w): f for w, f in freqs.items()}
        assert decoded["bb"] == pytest.approx(1.0, abs=5e-3)
        assert decoded["aa"] + decoded["ab"] + decoded["ba"] < 5e-3

    def test_seed_choice_does_not_matter(self, fib, thue_morse, aab_bb):
        # every seed word starting with the base letter yields the same
        # limits when run to a common iteration count
        for s in (fib, thue_morse, aab_bb):
            p = s.power(stabilizing_power(s))
            sn, fa = blow_up(p, 2)
            mn = sn.incidence_matrix()
            seeds = [k for k, w in enumerate(fa.words) if w[0] == 0]
            assert seeds
            trajectories = []
            for k in seeds:
                v0 = [0] * mn.n
                v0[k] = 1
                trajectories.append(_Trajectory(mn, v0))
            for _ in range(2000):
                for traj in trajectories:
                    traj.step()
            for traj in trajectories[1:]:
                assert l1_dist(traj.x, trajectories[0].x) <= 1e-6

    def test_eigenvector_property(self, fib, thue_morse):
        # the limit frequency vector is an eigenvector of the blow-up matrix
        for s in (fib, thue_morse):
            p = s.power(stabilizing_power(s))
            sn, fa = blow_up(p, 2)
            mn = sn.incidence_matrix()
            freqs = factor_frequencies(s, "a", 2)
            vec = [freqs[w] for w in fa.words]
            y = float_matvec(mn, vec)
            lam = sum(y)
            assert l1_dist(y, [lam * x for x in vec]) <= 1e-8


class TestFrequencyTable:
    def test_fibonacci_table(self, fib):
        tab = frequency_table(fib, "a", max_len=3)
        assert tab.power_used == 1
        assert tab.max_len == 3
        for n in (1, 2, 3):
            total = sum(f for w, f in tab.entries.items() if len(w) == n)
            assert total == pytest.approx(1.0, abs=1e-8)

        def weight(w):
            return tab.entries.get(fib.alphabet.encode(w), 0.0)

        assert weight("ab") == pytest.approx(F_AB, abs=1e-8)
        assert weight("bb") == 0.0
        # aaa is not a factor, so omega(aab) = omega(aa) by Kirchhoff
        assert weight("aab") == pytest.approx(F_AA, abs=1e-8)
        assert weight("aba") == pytest.approx(F_AB, abs=1e-8)

    def test_refused_pass_names_its_test(self, corpus):
        # no float residual reaches 1e-18: the pass is refused at once,
        # and the error names the residual and carries the table
        with pytest.raises(MaxIterError) as exc_info:
            frequency_table(corpus["tribonacci"], "a", max_len=3, tol=1e-18)
        assert str(exc_info.value).startswith(
            "length-3 frequencies for base 'a' did not settle: "
            "block pass refused: residual ")
        table = exc_info.value.partial
        assert type(table) is FrequencyTable
        assert (table.max_len, table.iterations) == (3, 0)

    def test_kirchhoff_on_fibonacci(self, fib):
        tab = frequency_table(fib, "a", max_len=3)
        report = kirchhoff_check(tab)
        assert report.max_residual <= 1e-9

    def test_kirchhoff_on_slow_reducible(self, aab_bb):
        # a reducible input whose letter limit has growth degree 1
        tab = frequency_table(aab_bb, "a", max_len=3, tol=1e-6)
        report = kirchhoff_check(tab)
        assert report.max_residual <= 1e-9

    def test_corrupted_entry_detected(self, fib):
        tab = frequency_table(fib, "a", max_len=2)
        entries = dict(tab.entries)
        word = fib.alphabet.encode("ab")
        entries[word] = entries[word] + 0.1
        bad = FrequencyTable(
            substitution=tab.substitution, base_letter=tab.base_letter,
            power_used=tab.power_used, max_len=tab.max_len, entries=entries,
            growth_rate=tab.growth_rate, iterations=tab.iterations)
        assert kirchhoff_check(bad).max_residual >= 0.09

    def test_keys_are_letters_and_factors_of_each_length(self, corpus):
        # b occurs in no image, so cc is a factor of length 2 that lies
        # inside no factor of length 6: it keeps its key, with weight zero
        cc = Substitution.from_rules([("a", "ca"), ("b", "cc"), ("c", "aa")])
        cases = [(cc, "a", 6)]
        cases += [(s, s.alphabet.letters[-1], 4) for s in corpus.values()]
        for s, base, max_len in cases:
            zs = s.power(stabilizing_power(s))
            tab = frequency_table(s, base, max_len=max_len, tol=1e-6)
            expected = {(i,) for i in range(len(s.alphabet))}
            for n in range(2, max_len + 1):
                expected |= set(factor_alphabet(zs, n).words)
            assert set(tab.entries) == expected, s
            if s is cc:
                assert tab.entries[cc.alphabet.encode("cc")] == 0.0

    def test_right_extension_exact(self, corpus):
        for s in corpus.values():
            tab = frequency_table(s, s.alphabet.letters[-1], max_len=5,
                                  tol=1e-6)
            letters = range(len(s.alphabet))
            for w, f in tab.entries.items():
                if len(w) < 5:
                    right = sum(tab.entries.get(w + (b,), 0.0)
                                for b in letters)
                    assert abs(f - right) <= 1e-15, (s, w)

    def test_entries_match_single_length_routes(self, corpus):
        for name, s in corpus.items():
            for a in s.alphabet.letters:
                tab = frequency_table(s, a, max_len=4, tol=1e-10)
                vec, _ = letter_frequencies(s, a, tol=1e-10)
                for i, x in enumerate(vec):
                    assert abs(tab.entries[(i,)] - x) <= 1e-9, (name, a)
                for n in (2, 3, 4):
                    freqs = factor_frequencies(s, a, n, tol=1e-10)
                    assert set(freqs) == {w for w in tab.entries
                                          if len(w) == n}
                    for w, x in freqs.items():
                        assert abs(tab.entries[w] - x) <= 1e-9, (name, a, w)

    def test_json_export_keys(self, tmp_path, capsys):
        path = tmp_path / "fib.sub"
        path.write_text("a -> ab\nb -> a\n")
        assert main(["freq", str(path), "--letter", "a", "--max-len", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == [
            "base_letter", "power_used", "frequencies", "growth_rate",
            "kirchhoff_max_residual"]
        assert payload["base_letter"] == "a"
        assert payload["power_used"] == 1
        assert list(payload["frequencies"]) == ["a", "b", "aa", "ab", "ba"]


class TestCountBridge:
    def test_blow_up_iterate_matches_counts_at_same_time(self, aab_bb):
        # at a common iteration count the blow-up trajectory reproduces the
        # sliding-window count frequencies of zeta^t(a) up to window edge
        # effects of size n / |zeta^t(a)|, even far from the limit
        t = 17
        word = aab_bb.alphabet.decode(iterate_letter(aab_bb, 0, t))
        assert len(word) >= 10**6
        sn, fa = blow_up(aab_bb, 2)
        mn = sn.incidence_matrix()
        seed = next(k for k, w in enumerate(fa.words) if w[0] == 0)
        v0 = [0] * mn.n
        v0[seed] = 1
        traj = _Trajectory(mn, v0)
        for _ in range(t):
            traj.step()
        for k, w in enumerate(fa.words):
            u = aab_bb.alphabet.decode(w)
            count_freq = count_occurrences_str(word, u) / len(word)
            assert traj.x[k] == pytest.approx(count_freq, abs=1e-5)


class TestSeedIndependence:
    def test_primitive_bases_agree(self, fib, thue_morse):
        for s in (fib, thue_morse):
            va, _ = letter_frequencies(s, "a")
            vb, _ = letter_frequencies(s, "b")
            assert l1_dist(va, vb) <= 1e-8

    def test_reducible_pair_bases_agree(self, aab_bb):
        va, _ = letter_frequencies(aab_bb, "a", tol=1e-6)
        vb, _ = letter_frequencies(aab_bb, "b", tol=1e-6)
        assert l1_dist(va, vb) <= 5e-3

    def test_two_bottom_blocks_disagree(self, corpus):
        s = corpus["two_bottom"]
        va, _ = letter_frequencies(s, "a")
        vb, _ = letter_frequencies(s, "b")
        assert l1_dist(va, vb) >= 0.1


class TestMeasureCylinder:
    def test_fibonacci_absent_factor(self, fib):
        assert measure_cylinder(fib, "a", "bb") == 0.0

    def test_fibonacci_pair(self, fib):
        assert measure_cylinder(fib, "a", "ab", tol=1e-10) == pytest.approx(
            F_AB, abs=1e-9)

    def test_reducible_letter(self, aab_bb):
        assert measure_cylinder(aab_bb, "a", "b", tol=1e-6) == pytest.approx(
            1.0, abs=2e-3)

    def test_thue_morse_letter(self, thue_morse):
        assert measure_cylinder(thue_morse, "b", "a") == pytest.approx(
            0.5, abs=1e-10)

    def test_unknown_letter_rejected(self, fib):
        with pytest.raises(ParseError):
            measure_cylinder(fib, "a", "ax")

    def test_rejects_empty_word(self, fib):
        with pytest.raises(ValueError):
            measure_cylinder(fib, "a", "")

    def test_rejects_non_expanding(self):
        s = Substitution.from_rules([("a", "ab"), ("b", "b")])
        with pytest.raises(NotExpandingError):
            measure_cylinder(s, "a", "a")


class TestArgumentRanges:
    """Each library entry point refuses a ``max_iter`` below 0 and a
    ``tol`` that is negative or not finite, with the command line's
    wording, before any limit is computed."""

    ENTRY_POINTS = {
        "normalized_limit": lambda fib, **kw: normalized_limit(
            fib.incidence_matrix(), [1, 0], **kw),
        "letter_frequencies": lambda fib, **kw: letter_frequencies(
            fib, "a", **kw),
        "growth_rate": lambda fib, **kw: growth_rate(fib, "a", **kw),
        "factor_frequencies": lambda fib, **kw: factor_frequencies(
            fib, "a", 3, **kw),
        "frequency_table": lambda fib, **kw: frequency_table(
            fib, "a", 3, **kw),
        "measure_cylinder": lambda fib, **kw: measure_cylinder(
            fib, "a", "ab", **kw),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("kwargs, message", [
        ({"max_iter": -5}, "max_iter must be an integer >= 0, got -5"),
        ({"tol": math.nan}, "tol must be a finite float >= 0, got nan"),
        ({"tol": -1.0}, "tol must be a finite float >= 0, got -1.0"),
        ({"tol": math.inf}, "tol must be a finite float >= 0, got inf"),
    ])
    def test_refused(self, fib, entry, kwargs, message):
        with pytest.raises(ValueError) as exc:
            self.ENTRY_POINTS[entry](fib, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_zero_is_legal(self, fib, entry):
        # a budget of 0 steps is spent at once and does not settle
        call = self.ENTRY_POINTS[entry]
        if entry == "normalized_limit":
            assert not call(fib, tol=0, max_iter=0).converged
        else:
            with pytest.raises(MaxIterError, match="did not settle"):
                call(fib, tol=0, max_iter=0)
