"""Substitutions, languages, incidence matrices, and blow-ups."""

import random

import pytest

from subperron import (
    Alphabet,
    CapExceededError,
    ImageOverflowError,
    NotExpandingError,
    ParseError,
    Substitution,
    blow_up,
    count_occurrences,
    count_occurrences_str,
    factor_alphabet,
    is_expanding_subst,
    is_primitive,
    is_expanding,
    parse_substitution,
    scc_blocks,
    stabilizing_power,
)


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])

    def test_rejects_whitespace_letter(self):
        with pytest.raises(ValueError):
            Alphabet(["a b"])

    def test_encode_single_char(self):
        al = Alphabet(["a", "b"])
        assert al.encode("ab") == (0, 1)
        assert al.decode((1, 0, 0)) == "baa"

    def test_encode_multi_char(self):
        al = Alphabet(["x1", "x2"])
        assert al.encode("x2 x1") == (1, 0)
        assert al.decode((0, 1)) == "x1 x2"


class TestParsing:
    def test_fibonacci_file(self):
        s = parse_substitution("# fib\na -> ab\nb -> a\n")
        assert s.alphabet.letters == ("a", "b")
        assert s.apply_str("a") == "ab"

    def test_letter_order_of_first_appearance(self):
        s = parse_substitution("b -> ba\na -> ab\n")
        assert s.alphabet.letters == ("b", "a")

    def test_whitespace_separated_images(self):
        s = parse_substitution("aa -> aa bb\nbb -> aa\n")
        assert s.alphabet.letters == ("aa", "bb")
        assert s.images == ((0, 1), (0,))

    @pytest.mark.parametrize("text", [
        "",
        "a -> ab",            # b has no rule
        "a -> ab\na -> a\nb -> a",  # duplicate
        "a = ab\nb -> a",     # bad separator
        "a b -> ab\nb -> a",  # bad lhs
    ])
    def test_rejects_bad_files(self, text):
        with pytest.raises(ParseError):
            parse_substitution(text)

    def test_erasing_is_representable(self):
        s = parse_substitution("a -> ab\nb ->\n")
        assert s.images[1] == ()
        assert not is_expanding_subst(s)


class TestApply:
    def test_fibonacci(self, fib):
        assert fib.apply_str("ab") == "aba"

    def test_empty_word(self, fib):
        assert fib.apply(()) == ()

    def test_thue_morse_twice(self, thue_morse):
        once = thue_morse.apply(thue_morse.alphabet.encode("a"))
        assert thue_morse.alphabet.decode(thue_morse.apply(once)) == "abba"


class TestIncidence:
    def test_fibonacci(self, fib):
        assert fib.incidence_matrix().entries == ((1, 1), (1, 0))

    def test_reducible_pair(self, aab_bb):
        assert aab_bb.incidence_matrix().entries == ((2, 0), (1, 2))

    def test_three_a_variant(self):
        s = Substitution.from_rules([("a", "aaab"), ("b", "bb")])
        assert s.incidence_matrix().entries == ((3, 0), (1, 2))

    def test_power_compatibility(self, corpus):
        # incidence of zeta^t equals the t-th matrix power
        for s in corpus.values():
            m = s.incidence_matrix()
            for t in range(1, 6):
                assert s.power(t).incidence_matrix() == m.pow(t)

    def test_occurrence_vector_equation(self, corpus):
        # M v(w) = v(zeta(w)) on random words
        rng = random.Random(23)
        for s in corpus.values():
            n = len(s.alphabet)
            m = s.incidence_matrix()
            for _ in range(10):
                word = tuple(rng.randrange(n) for _ in range(rng.randint(0, 12)))
                vw = [0] * n
                for i in word:
                    vw[i] += 1
                image = s.apply(word)
                v_img = [0] * n
                for i in image:
                    v_img[i] += 1
                assert list(m.apply(vw)) == v_img


class TestExpanding:
    def test_fibonacci(self, fib):
        assert is_expanding_subst(fib)

    def test_non_growing_letter(self):
        s = Substitution.from_rules([("a", "ab"), ("b", "b")])
        assert not is_expanding_subst(s)

    def test_identity_letter(self):
        s = Substitution.from_rules([("a", "a")])
        assert not is_expanding_subst(s)


class TestStabilizingPower:
    def test_primitive_cases(self, fib, aab_bb):
        assert stabilizing_power(fib) == 1
        assert stabilizing_power(aab_bb) == 1

    def test_imprimitive_cycle(self, corpus):
        assert stabilizing_power(corpus["cyclic4"]) == 2

    def test_rejects_non_expanding(self):
        s = Substitution.from_rules([("a", "ab"), ("b", "b")])
        with pytest.raises(NotExpandingError):
            stabilizing_power(s)


class TestSubstitutionPower:
    def test_fibonacci_cubed(self, fib):
        p = fib.power(3)
        assert [fib.alphabet.decode(img) for img in p.images] == ["abaab", "aba"]

    def test_power_one_is_identity_on_rules(self, fib):
        assert fib.power(1) == fib

    def test_reducible_square(self, aab_bb):
        p = aab_bb.power(2)
        assert [p.alphabet.decode(img) for img in p.images] == ["aabaabbb", "bbbb"]

    def test_length_guard(self):
        s = Substitution.from_rules([("a", "a" * 10)])
        with pytest.raises(ImageOverflowError):
            s.power(9)


class TestCountOccurrences:
    def test_overlapping(self):
        assert count_occurrences("aaa", "aa") == 2

    def test_disjoint(self):
        assert count_occurrences("abaab", "ab") == 2

    def test_fibonacci_iterate(self, fib):
        w = fib.alphabet.decode(fib.iterate_letter(0, 3))
        assert w == "abaab"
        assert count_occurrences(w, "ba") == 1

    def test_str_variant_agrees(self):
        rng = random.Random(31)
        for _ in range(30):
            w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 40)))
            u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            assert count_occurrences(w, u) == count_occurrences_str(w, u)

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            count_occurrences("abc", "")


class TestFactorAlphabet:
    def test_fibonacci_pairs(self, fib):
        fa = factor_alphabet(fib, 2)
        assert [fib.alphabet.decode(w) for w in fa.words] == ["ab", "ba", "aa"]

    def test_length_one_is_alphabet(self, fib):
        fa = factor_alphabet(fib, 1)
        assert fa.words == ((0,), (1,))

    def test_reducible_pairs(self, aab_bb):
        fa = factor_alphabet(aab_bb, 2)
        assert [aab_bb.alphabet.decode(w) for w in fa.words] == [
            "aa", "ab", "bb", "ba"]

    def test_cap(self, fib):
        with pytest.raises(CapExceededError):
            factor_alphabet(fib, 2, cap=2)

    def test_rejects_non_expanding(self):
        s = Substitution.from_rules([("a", "ab"), ("b", "b")])
        with pytest.raises(NotExpandingError):
            factor_alphabet(s, 2)


class TestBlowUp:
    def test_fibonacci_level2_images(self, fib):
        s2, fa = blow_up(fib, 2)
        decoded = {
            s2.alphabet.letters[k]: [s2.alphabet.letters[i] for i in img]
            for k, img in enumerate(s2.images)
        }
        # zeta(ab) = aba, |zeta(a)| = 2 -> windows ab, ba
        assert decoded["ab"] == ["ab", "ba"]
        # zeta(aa) = abab -> windows ab, ba
        assert decoded["aa"] == ["ab", "ba"]
        # zeta(ba) = aab, |zeta(b)| = 1 -> single window aa
        assert decoded["ba"] == ["aa"]

    def test_window_count_identity(self, corpus):
        # |zeta_n(w)| equals |zeta(x_1)| for every factor w = x_1...x_n
        for s in corpus.values():
            if not is_expanding_subst(s):
                continue
            p = s.power(stabilizing_power(s))
            for n in (2, 3):
                sn, fa = blow_up(p, n)
                for k, w in enumerate(fa.words):
                    assert len(sn.images[k]) == len(p.images[w[0]])

    def test_blow_up_preserves_expansion(self, corpus):
        for s in corpus.values():
            p = s.power(stabilizing_power(s))
            for n in (2, 3):
                sn, _ = blow_up(p, n)
                assert is_expanding_subst(sn)

    def test_primitive_blow_up_stays_primitive(self, fib, thue_morse):
        for s in (fib, thue_morse):
            for n in (2, 3):
                sn, _ = blow_up(s, n)
                assert is_primitive(sn.incidence_matrix())

    def test_blow_up_commutes_with_powers(self, fib, thue_morse):
        # (zeta_n)^t agrees with (zeta^t)_n on the common letters
        for s in (fib, thue_morse):
            for n in (2, 3):
                sn, fa = blow_up(s, n)
                for t in (2, 3):
                    left = sn.power(t)
                    right, fa_t = blow_up(s.power(t), n)
                    for w in fa_t.words:
                        k_left = fa.index[w]
                        k_right = fa_t.index[w]
                        image_left = [fa.words[i] for i in left.images[k_left]]
                        image_right = [fa_t.words[i] for i in right.images[k_right]]
                        assert image_left == image_right

    def test_pb_frobenius_preserved(self, corpus):
        # blow-ups of stabilized substitutions stay in PB-Frobenius form
        for s in corpus.values():
            p = s.power(stabilizing_power(s))
            assert scc_blocks(p.incidence_matrix()).is_pb_frobenius()
            for n in (2, 3):
                sn, _ = blow_up(p, n)
                assert scc_blocks(sn.incidence_matrix()).is_pb_frobenius()
