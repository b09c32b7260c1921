"""Exact matrix arithmetic, parsing, and block-structure machinery."""

import random

import pytest

from subperron import (
    BlockClass,
    ExactMatrix,
    ParseError,
    is_expanding,
    is_power_bounded,
    is_primitive,
    mat_pow_apply,
    parse_matrix,
    pb_frobenius_power,
    primitive_frobenius_power,
    scc_blocks,
)
from conftest import random_pb_frobenius_expanding


def e(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


class TestExactMatrix:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, -1], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExactMatrix([])

    def test_immutable(self):
        m = ExactMatrix([[1]])
        with pytest.raises(AttributeError):
            m.n = 2

    def test_matmul_and_pow(self):
        m = ExactMatrix([[1, 1], [1, 0]])
        assert (m @ m).entries == ((2, 1), (1, 1))
        assert m.pow(0) == ExactMatrix.identity(2)
        assert m.pow(5).entries == ((8, 5), (5, 3))

    def test_pow_huge_is_exact(self):
        m = ExactMatrix([[2, 0], [1, 2]])
        p = m.pow(200)
        assert p.entries[0][0] == 2**200
        assert p.entries[1][0] == 200 * 2**199


class TestMatPowApply:
    def test_fibonacci_iterate(self):
        m = ExactMatrix([[1, 1], [1, 0]])
        assert mat_pow_apply(m, e(2, 0), 10) == (89, 55)

    def test_zeroth_power_is_identity(self):
        m = ExactMatrix([[7, 3], [2, 5]])
        assert mat_pow_apply(m, (4, 9), 0) == (4, 9)

    def test_jordan_like_closed_form(self):
        m = ExactMatrix([[2, 0], [1, 2]])
        assert mat_pow_apply(m, e(2, 0), 5) == (32, 80)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_pow_apply(ExactMatrix([[1]]), (1, 2), 3)


class TestParsing:
    def test_whitespace_rows(self):
        m = parse_matrix("1 1\n1 0\n")
        assert m.entries == ((1, 1), (1, 0))

    def test_commas_and_comments(self):
        m = parse_matrix("# fib\n1, 1\n1, 0  # second row\n")
        assert m.entries == ((1, 1), (1, 0))

    def test_json_form(self):
        m = parse_matrix("[[3, 1], [1, 1]]")
        assert m.entries == ((3, 1), (1, 1))

    @pytest.mark.parametrize("text", [
        "", "1 2\n3", "1 x\n0 1", "[[1, -2], [0, 1]]", '{"a": 1}',
        # JSON entries must be integers: no truncated floats, no booleans
        "[[1.5, 0], [0, 2]]", "[[2.0, 0], [0, 2]]", "[[true, 1], [0, 2]]",
        "[[1e300, 0], [0, 1]]", '[["1", 0], [0, 1]]', "[[null]]",
    ])
    def test_rejects_bad_input(self, text):
        with pytest.raises(ParseError):
            parse_matrix(text)


class TestIsPrimitive:
    def test_fibonacci(self):
        assert is_primitive(ExactMatrix([[1, 1], [1, 0]]))

    def test_two_cycle_is_not(self):
        assert not is_primitive(ExactMatrix([[0, 1], [1, 0]]))

    def test_aperiodic_small_block(self):
        assert is_primitive(ExactMatrix([[2, 1], [1, 1]]))

    def test_one_by_one(self):
        assert is_primitive(ExactMatrix([[1]]))
        assert is_primitive(ExactMatrix([[2]]))
        assert not is_primitive(ExactMatrix([[0]]))

    def test_matches_wielandt_positivity(self):
        # some power up to (n-1)^2 + 1 entrywise positive <=> primitive
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = ExactMatrix([[rng.randint(0, 1) for _ in range(n)]
                             for _ in range(n)])
            bound = (n - 1) ** 2 + 1
            power = ExactMatrix.identity(n)
            wielandt = False
            for _ in range(bound):
                power = power @ m
                if power.is_entrywise_positive():
                    wielandt = True
                    break
            assert wielandt == is_primitive(m)


class TestIsPowerBounded:
    def test_identity(self):
        assert is_power_bounded(ExactMatrix.identity(2))

    def test_unipotent_grows_linearly(self):
        assert not is_power_bounded(ExactMatrix([[1, 1], [0, 1]]))

    def test_two_cycle(self):
        assert is_power_bounded(ExactMatrix([[0, 1], [1, 0]]))

    def test_stabilization_cross_oracle(self):
        # PB <=> max entry over t = 1..2n^2 equals max entry over t = 1..4n^2
        rng = random.Random(11)
        samples = []
        for _ in range(25):
            n = rng.randint(2, 5)
            samples.append(ExactMatrix(
                [[1 if rng.random() < 0.25 else 0 for _ in range(n)]
                 for _ in range(n)]))
        for n in (2, 3, 4):
            perm = list(range(n))
            rng.shuffle(perm)
            samples.append(ExactMatrix(
                [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]))
        for m in samples:
            n = m.n
            power = ExactMatrix.identity(n)
            max_short = 0
            max_long = 0
            for t in range(1, 4 * n * n + 1):
                power = power @ m
                top = power.max_entry()
                if t <= 2 * n * n:
                    max_short = max(max_short, top)
                max_long = max(max_long, top)
            assert (max_short == max_long) == is_power_bounded(m)


class TestIsExpanding:
    def test_fibonacci(self):
        assert is_expanding(ExactMatrix([[1, 1], [1, 0]]))

    def test_fixed_coordinate(self):
        assert not is_expanding(ExactMatrix([[1, 0], [0, 2]]))

    def test_dominated_column_still_expands(self):
        assert is_expanding(ExactMatrix([[1, 0], [1, 3]]))

    def test_norms_grow_monotonically(self, m8, case3_matrix):
        # column norms of an expanding matrix never decrease, and strictly
        # increase over every window of length n
        for m in (m8, case3_matrix, ExactMatrix([[1, 1], [1, 0]])):
            n = m.n
            for i in range(n):
                norms = []
                v = e(n, i)
                for t in range(0, 65):
                    norms.append(sum(v))
                    v = m.apply(v)
                assert all(a <= b for a, b in zip(norms, norms[1:]))
                assert all(norms[t + n] > norms[t] for t in range(64 - n))


class TestSccBlocks:
    def test_fibonacci_single_primitive(self):
        dec = scc_blocks(ExactMatrix([[1, 1], [1, 0]]))
        assert dec.num_blocks == 1
        assert dec.classes == (BlockClass.PRIMITIVE,)
        assert dec.members(0) == (0, 1)

    def test_two_cycle_single_pb(self):
        dec = scc_blocks(ExactMatrix([[0, 1], [1, 0]]))
        assert dec.classes == (BlockClass.POWER_BOUNDED,)

    def test_eight_by_eight_blocks(self, m8, dec8):
        assert dec8.num_blocks == 4
        assert dec8.block_sizes() == (2, 2, 2, 2)
        assert [dec8.members(i) for i in range(4)] == [
            (0, 1), (2, 3), (4, 5), (6, 7)]
        assert all(c is BlockClass.PRIMITIVE for c in dec8.classes)
        assert dec8.order == frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)})
        assert [set(d) for d in dec8.dependency] == [{1, 2, 3}, {3}, {3}, set()]

    def test_imprimitive_flagged(self, antidiag4):
        dec = scc_blocks(antidiag4)
        assert dec.classes == (BlockClass.IMPRIMITIVE,)
        assert not dec.is_pb_frobenius()

    def test_permuted_is_lower_block_triangular(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 7)
            m = ExactMatrix([[rng.randint(0, 2) if rng.random() < 0.4 else 0
                              for _ in range(n)] for _ in range(n)])
            dec = scc_blocks(m)
            perm_m = dec.permuted(m)
            assert sorted(dec.perm) == list(range(n))
            block_at = [None] * n
            for b, (start, stop) in enumerate(dec.spans):
                for p in range(start, stop):
                    block_at[p] = b
            assert [dec.block_of(v) for v in dec.perm] == block_at
            for p in range(n):
                for q in range(n):
                    if perm_m.entries[p][q] > 0:
                        assert block_at[p] >= block_at[q], (
                            "entry above the block diagonal")


class TestFrobeniusPowers:
    def test_already_primitive(self):
        m = ExactMatrix([[1, 1], [1, 0]])
        t, dec = pb_frobenius_power(m)
        assert t == 1
        assert dec.classes == (BlockClass.PRIMITIVE,)

    def test_cycle_stays_whole_pb(self):
        m = ExactMatrix([[0, 1], [1, 0]])
        t, dec = pb_frobenius_power(m)
        assert t == 1
        assert dec.classes == (BlockClass.POWER_BOUNDED,)
        assert dec.num_blocks == 1

    def test_imprimitive_splits_into_cyclic_classes(self, antidiag4):
        t, dec = pb_frobenius_power(antidiag4)
        assert t == 2
        assert dec.num_blocks == 2
        assert set(map(frozenset, (dec.members(0), dec.members(1)))) == {
            frozenset({0, 1}), frozenset({2, 3})}
        assert all(c is BlockClass.PRIMITIVE for c in dec.classes)

    def test_primitive_form_splits_cycles(self):
        m = ExactMatrix([[0, 1], [1, 0]])
        t, dec = primitive_frobenius_power(m)
        assert t == 2
        assert dec.num_blocks == 2
        assert all(c is BlockClass.ZERO_ONE for c in dec.classes)
        mt = m.pow(t)
        for i in range(2):
            j = dec.members(i)[0]
            assert mt.entries[j][j] == 1

    def test_eight_by_eight_unchanged(self, m8):
        t, dec = primitive_frobenius_power(m8)
        assert t == 1
        assert dec.num_blocks == 4
        assert dec.block_sizes() == (2, 2, 2, 2)

    def test_outputs_satisfy_defining_predicates(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = ExactMatrix([[rng.randint(0, 2) if rng.random() < 0.5 else 0
                              for _ in range(n)] for _ in range(n)])
            for power_fn, primitive_only in (
                (pb_frobenius_power, False),
                (primitive_frobenius_power, True),
            ):
                t, dec = power_fn(m)
                mt = m.pow(t)
                assert dec.is_pb_frobenius()
                if primitive_only:
                    assert dec.is_primitive_frobenius()
                for i in range(dec.num_blocks):
                    sub = mt.submatrix(dec.members(i))
                    cls = dec.classes[i]
                    if cls is BlockClass.PRIMITIVE:
                        assert is_primitive(sub)
                    elif cls is BlockClass.ZERO_ONE:
                        assert sub.n == 1 and sub.entries[0][0] in (0, 1)
                    else:
                        assert is_power_bounded(sub)
                # lower block triangular for the powered matrix
                perm_mt = dec.permuted(mt)
                block_at = [None] * n
                for b, (start, stop) in enumerate(dec.spans):
                    for p in range(start, stop):
                        block_at[p] = b
                for p in range(n):
                    for q in range(n):
                        if perm_mt.entries[p][q] > 0:
                            assert block_at[p] >= block_at[q]


class TestOffDiagonalPositivity:
    """For a primitive-Frobenius matrix with no zero columns, high powers
    have entrywise positive off-diagonal blocks (j, i) whenever block i
    feeds block j and one of the two diagonal blocks is primitive non-zero."""

    def _assert_positivity(self, m):
        t_bound = 2 * ((m.n - 1) ** 2 + 1) * m.n
        _, dec = primitive_frobenius_power(m)
        mt = m.pow(t_bound)
        for (i, j) in dec.order:
            cls_i, cls_j = dec.classes[i], dec.classes[j]
            prim_i = cls_i is BlockClass.PRIMITIVE
            prim_j = cls_j is BlockClass.PRIMITIVE
            if not (prim_i or prim_j):
                continue
            for r in dec.members(j):
                for c in dec.members(i):
                    assert mt.entries[r][c] > 0, (i, j, r, c)

    def test_eight_by_eight(self, m8):
        self._assert_positivity(m8)

    def test_random_primitive_frobenius(self):
        rng = random.Random(17)
        count = 0
        while count < 6:
            m = random_pb_frobenius_expanding(rng, max_n=5)
            dec = scc_blocks(m)
            if not dec.is_primitive_frobenius() or m.has_zero_column():
                continue
            count += 1
            self._assert_positivity(m)
