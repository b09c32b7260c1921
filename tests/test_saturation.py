"""The factor engine of ``factor_alphabet`` and ``blow_up`` against the
breadth-first reference saturation in ``conftest``, on code points above
255 and on multi-character letters too, the index tuples the public API
returns, the one-sweep block closure of ``scc_blocks`` against brute-force
reachability, and the fast letter and index checks of ``Alphabet`` and
``Substitution``."""

from __future__ import annotations

import random
import re

import pytest

from subperron import (
    ImageOverflowError,
    Substitution,
    blow_up,
    factor_alphabet,
    factor_frequencies,
    frequency_table,
    kirchhoff_check,
    measure_cylinder,
    scc_blocks,
    stabilizing_power,
)
from subperron.words import Alphabet

from conftest import (
    random_expanding,
    random_pb_frobenius_expanding,
    reference_blow_up,
    reference_factor_alphabet,
)

# a 4-letter substitution with a primitive block {a, b} above a primitive
# block {c, d}: 335 factors of length 32
RED4 = [("a", "badb"), ("b", "aab"), ("c", "ddd"), ("d", "cd")]


def _flags(s: Substitution):
    dec = scc_blocks(s.incidence_matrix())
    return (dec.is_pb_frobenius(), dec.is_expanding(), dec.num_blocks,
            dec.classes, dec.dependency)


def _cases(corpus):
    """(label, substitution, level): the corpus and its stabilizing powers
    at levels 2-8, 50 seeded random expanding substitutions at levels 2-5,
    and RED4 at level 32."""
    out = []
    for name, s in corpus.items():
        for p in sorted({1, stabilizing_power(s)}):
            out += [(f"{name}^{p}", s.power(p), n) for n in range(2, 9)]
    rng = random.Random(20261019)
    for k in range(50):
        s = random_expanding(rng)
        out += [(f"random{k}", s, n) for n in range(2, 6)]
    out.append(("red4", Substitution.from_rules(RED4), 32))
    return out


@pytest.fixture(scope="module")
def blow_ups(corpus):
    """(label, level) -> (substitution, (blow-up, factor alphabet),
    reference blow-up) per case."""
    return {(label, n): (s, blow_up(s, n), reference_blow_up(s, n))
            for label, s, n in _cases(corpus)}


def test_blow_up_matches_the_two_pass_reference(blow_ups):
    for key, (s, (sn, fa), (letters, images, words)) in blow_ups.items():
        assert fa.words == words, key
        assert factor_alphabet(s, key[1]).words == words, key
        assert sn.alphabet.letters == letters, key
        assert sn.images == images, key
        ref = Substitution(Alphabet(letters), images)
        assert _flags(sn) == _flags(ref), key


def test_red4_level_32_size(blow_ups):
    _, (sn, fa), _ = blow_ups["red4", 32]
    assert len(fa) == len(sn.alphabet) == 335


def test_multi_character_letters_are_spelled_with_commas():
    s = Substitution.from_rules([("x1", "x1 y"), ("y", "x1")])
    sn, fa = blow_up(s, 3)
    assert sn.alphabet.letters == reference_blow_up(s, 3)[0]
    assert "(x1,y,x1)" in sn.alphabet.letters


def test_factor_alphabet_matches_the_reference(corpus):
    for s in corpus.values():
        for n in range(2, 7):
            assert (factor_alphabet(s, n).words
                    == reference_factor_alphabet(s, n).words)


def test_engine_beyond_code_point_255(blow_ups):
    # the level-32 blow-up of RED4 has 335 letters, so its words hold code
    # points up to 334
    _, (sn, _), _ = blow_ups["red4", 32]
    for n in (2, 3):
        reference = reference_blow_up(sn, n)
        zn, fa = blow_up(sn, n)
        assert fa.words == reference[2] == factor_alphabet(sn, n).words
        assert (zn.alphabet.letters, zn.images) == reference[:2]
        assert max(map(max, fa.words)) > 255
    table = frequency_table(sn, sn.alphabet.letters[0], 3, tol=1e-10)
    assert max(map(max, table.entries)) > 255
    assert kirchhoff_check(table).max_residual <= 1e-6
    for n in (1, 2, 3):
        total = sum(f for w, f in table.entries.items() if len(w) == n)
        assert abs(total - 1.0) <= 1e-9


def test_multi_character_letters_through_the_engine(corpus):
    s = corpus["case3"]
    table = frequency_table(s, "p", 3, tol=1e-10)
    assert table.frequencies["x1 x1 x2"] > 0.0
    for word in ("x1", "x1 x2", "x2 x1 x1", "p x1", "x2 x2 x2"):
        assert measure_cylinder(s, "p", word, tol=1e-10) == pytest.approx(
            table.entries.get(s.alphabet.encode(word), 0.0), abs=1e-9), word
    x1x2 = s.alphabet.encode("x1 x2")
    assert factor_frequencies(s, "p", 2, tol=1e-10)[x1x2] == pytest.approx(
        table.entries.get(x1x2, 0.0), abs=1e-9)


def _index_tuples(words, size):
    return all(type(w) is tuple and w and all(type(i) is int and 0 <= i < size
                                               for i in w) for w in words)


def test_public_words_are_index_tuples(corpus):
    for name in ("fibonacci", "case3"):
        s = corpus[name]
        k, a = len(s.alphabet), s.alphabet.letters[0]
        assert _index_tuples(frequency_table(s, a, 4).entries, k), name
        assert _index_tuples(factor_frequencies(s, a, 3), k), name
        assert _index_tuples(factor_alphabet(s, 3).words, k), name
        assert _index_tuples(blow_up(s, 3)[1].words, k), name
        assert _index_tuples([s.alphabet.encode(s.alphabet.decode((0, 0)))], k)


def test_image_overflow_message():
    s = Substitution.from_rules([("a", "a" * 4000), ("b", "ba")])
    message = "^image length 16000000 exceeds 10000000$"
    with pytest.raises(ImageOverflowError, match=message):
        s.power(2)
    # the engine's seeds of length 3 need zeta**2(a)
    with pytest.raises(ImageOverflowError, match=message):
        frequency_table(s, "b", 3)


def _brute_force_reach(m, dec):
    """Block reachability by one search per block over the condensation."""
    out = [set() for _ in range(dec.num_blocks)]
    for i, row in enumerate(m.rows):
        for j, _ in row:
            a, b = dec.block_index[j], dec.block_index[i]
            if a != b:
                out[a].add(b)
    reach = []
    for a in range(dec.num_blocks):
        seen, stack = set(), list(out[a])
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(out[b])
        reach.append(seen)
    return reach


def test_closure_matches_brute_force_reachability(blow_ups):
    rng = random.Random(20261020)
    matrices = [random_pb_frobenius_expanding(rng, max_n=8) for _ in range(100)]
    matrices += [sn.incidence_matrix() for _, (sn, _), _ in blow_ups.values()]
    for m in matrices:
        dec = scc_blocks(m)
        assert [set(d) for d in dec.dependency] == _brute_force_reach(m, dec)


class TestLetterChecks:
    @pytest.mark.parametrize("letter", [
        "", " ", "a b", "a\tb", "\x1c", "x\u2003", "\u3000", "a\n"])
    def test_rejects_empty_or_whitespace(self, letter):
        with pytest.raises(ValueError, match="invalid letter"):
            Alphabet(["a", letter, "b c"])
        with pytest.raises(ValueError, match=re.escape(f"invalid letter {letter!r}")):
            Alphabet(["a", letter, "b c"][:2])

    def test_names_the_first_invalid_letter(self):
        with pytest.raises(ValueError, match=r"invalid letter 'b c'"):
            Alphabet(["a", "b c", ""])

    def test_accepts_other_characters(self):
        letters = ["\u200b", "(x,y)", "\x00", "\u00e9", "ab"]
        alphabet = Alphabet(letters)
        assert alphabet.letters == tuple(letters)
        assert [alphabet.index_of(ltr) for ltr in letters] == [0, 1, 2, 3, 4]

    def test_index_check_names_the_first_bad_index(self):
        alphabet = Alphabet("ab")
        with pytest.raises(ValueError, match="letter index 5 out of range"):
            Substitution(alphabet, [[0, 5], [-1]])
        with pytest.raises(ValueError, match="letter index -1 out of range"):
            Substitution(alphabet, [[0, 1], [1, -1, 2]])
        assert Substitution(alphabet, [[], [1, 0]]).images == ((), (1, 0))
