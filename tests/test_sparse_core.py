"""The sparse exact core against the dense definitions it replaces.

``ExactMatrix`` stores the non-zeros of each row; every kernel walks only
those.  Each check below recomputes the same quantity from the dense rows
with the plain textbook loop and demands equality: exact for integers, bit
for bit for floats (the sparse float kernels add their terms in the dense
order), and as sets for the block structure.
"""

import random

import pytest

from subperron import (
    BlockClass,
    ExactMatrix,
    blow_up,
    scc_blocks,
    stabilizing_power,
)
from subperron._linalg import lsum, solve
from subperron.errors import SingularSystemError
from subperron.spectral import float_matvec
from conftest import (
    ANTIDIAG4_ROWS,
    CASE3_ROWS,
    M8_ROWS,
    left_sum,
    random_pb_frobenius_expanding,
)

MAX_LEVEL = 8

#: fixtures, plus cycles with a weighted edge (one non-zero per row, but
#: not a permutation) alone and feeding a primitive block
HAND_ROWS = [
    M8_ROWS, CASE3_ROWS, ANTIDIAG4_ROWS,
    [[0, 2], [1, 0]],
    [[0, 0, 1, 0], [3, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 2]],
]


# ---------------------------------------------------------------------------
# dense references

def dense_incidence(s):
    n = len(s.alphabet)
    rows = [[0] * n for _ in range(n)]
    for j, img in enumerate(s.images):
        for i in img:
            rows[i][j] += 1
    return rows


def dense_apply(rows, v):
    n = len(rows)
    return tuple(sum(row[j] * v[j] for j in range(n)) for row in rows)


def dense_float_matvec(rows, x):
    n = len(rows)
    return [left_sum(row[j] * x[j] for j in range(n)) for row in rows]


def dense_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _bool_product(a, b):
    """Product of boolean matrices given as row bitmasks."""
    out = []
    for row in a:
        acc = 0
        k = 0
        while row >> k:
            if row >> k & 1:
                acc |= b[k]
            k += 1
        out.append(acc)
    return out


def _is_primitive_pattern(sub):
    """Irreducible ``sub`` is primitive iff its Wielandt power
    ``(k - 1)**2 + 1`` is entrywise positive."""
    k = len(sub)
    pattern = [sum(1 << c for c in range(k) if sub[r][c] > 0) for r in range(k)]
    result = None
    t = (k - 1) ** 2 + 1
    while t:
        if t & 1:
            result = pattern if result is None else _bool_product(result, pattern)
        pattern = _bool_product(pattern, pattern)
        t >>= 1
    return all(row == (1 << k) - 1 for row in result)


def dense_class(rows, comp):
    c = sorted(comp)
    k = len(c)
    sub = [[rows[a][b] for b in c] for a in c]
    if k == 1:
        return BlockClass.ZERO_ONE if sub[0][0] in (0, 1) else BlockClass.PRIMITIVE
    if (all(sorted(r) == [0] * (k - 1) + [1] for r in sub)
            and all(sum(sub[r][j] for r in range(k)) == 1 for j in range(k))):
        return BlockClass.POWER_BOUNDED
    if _is_primitive_pattern(sub):
        return BlockClass.PRIMITIVE
    return BlockClass.IMPRIMITIVE


def dense_blocks(rows):
    """SCCs, their classes and the strict flow order, from the transitive
    closure of the dense pattern (edge j -> i when entry (i, j) > 0)."""
    n = len(rows)
    reach = [(1 << j) | sum(1 << i for i in range(n) if rows[i][j] > 0)
             for j in range(n)]
    for k in range(n):
        for j in range(n):
            if reach[j] >> k & 1:
                reach[j] |= reach[k]
    comps = {
        frozenset(i for i in range(n) if reach[j] >> i & 1 and reach[i] >> j & 1)
        for j in range(n)
    }
    classes = {comp: dense_class(rows, comp) for comp in comps}
    order = {
        (a, b) for a in comps for b in comps
        if a != b and any(reach[min(a)] >> v & 1 for v in b)
    }
    return classes, order


# ---------------------------------------------------------------------------
# inputs

def _corpus_blowups(corpus):
    """Every corpus substitution, its stabilizing power when that is not 1
    (raw ``cyclic4`` and its blow-ups have imprimitive blocks), and their
    blow-ups up to MAX_LEVEL."""
    out = []
    for name, s in sorted(corpus.items()):
        power = stabilizing_power(s)
        for p in sorted({1, power}):
            zs = s.power(p)
            out.append((f"{name}^{p}/1", zs))
            for level in range(2, MAX_LEVEL + 1):
                out.append((f"{name}^{p}/{level}", blow_up(zs, level)[0]))
    return out


@pytest.fixture(scope="module")
def blowups(corpus):
    return _corpus_blowups(corpus)


@pytest.fixture(scope="module")
def dense_cases(random_corpus_200, blowups):
    """(label, ExactMatrix, dense rows) for the hand-made matrices, the
    random PB-Frobenius corpus, larger draws of the same generator, and the
    corpus blow-ups."""
    rng = random.Random(20261018)
    matrices = [ExactMatrix(rows) for rows in HAND_ROWS] + list(random_corpus_200) + [
        random_pb_frobenius_expanding(rng, max_n=12) for _ in range(20)]
    cases = [(f"matrix{k}", m, [list(r) for r in m.entries])
             for k, m in enumerate(matrices)]
    cases += [(label, s.incidence_matrix(), dense_incidence(s))
              for label, s in blowups]
    return cases


# ---------------------------------------------------------------------------
# tests

def test_incidence_matrix_equals_dense_construction(blowups):
    for label, s in blowups:
        m = s.incidence_matrix()
        dense = ExactMatrix(dense_incidence(s))
        assert m == dense, label
        assert hash(m) == hash(dense), label
        assert m.entries == dense.entries, label
    # the blow-ups must actually be sparse for this to test anything
    largest = max((s.incidence_matrix() for _, s in blowups), key=lambda m: m.n)
    assert sum(map(len, largest.rows)) < largest.n ** 2 // 4


def test_apply_equals_dense(dense_cases):
    rng = random.Random(7)
    for label, m, rows in dense_cases:
        for bits in (1, 8, 200):
            v = [rng.randrange(1 << bits) if rng.random() < 0.7 else 0
                 for _ in range(m.n)]
            assert m.apply(v) == dense_apply(rows, v), label


def test_float_matvec_bit_equal_to_dense(dense_cases):
    rng = random.Random(11)
    for label, m, rows in dense_cases:
        w = [rng.randrange(1 << 60) if rng.random() < 0.7 else 0 for _ in range(m.n)]
        total = sum(w) or 1
        for x in ([c / total for c in w], [rng.random() for _ in range(m.n)]):
            assert float_matvec(m, x) == dense_float_matvec(rows, x), label


def test_lsum_adds_left_to_right():
    # a compensated sum (the builtin from Python 3.12 on) gives 1.0 and 2.0
    assert lsum([1e16, 1.0, -1e16]) == 0.0
    assert lsum([0.1] * 10) == 0.9999999999999999
    rng = random.Random(12)
    for _ in range(200):
        xs = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-8, 9)
              for _ in range(rng.randrange(20))]
        total = 0.0
        for x in xs:
            total += x
        assert lsum(xs) == total
        assert lsum(iter(xs)) == total


def test_singular_system_is_refused():
    with pytest.raises(SingularSystemError):
        solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])


def test_matmul_equals_dense(dense_cases):
    for label, m, rows in dense_cases[::7]:
        assert (m @ m).entries == tuple(map(tuple, dense_matmul(rows, rows))), label


def test_scc_blocks_equal_dense_definition(dense_cases):
    for label, m, rows in dense_cases:
        dec = scc_blocks(m)
        blocks = [frozenset(dec.members(i)) for i in range(dec.num_blocks)]
        classes, order = dense_blocks(rows)
        assert dict(zip(blocks, dec.classes)) == classes, label
        assert {(blocks[a], blocks[b]) for a, b in dec.order} == order, label
        # the block order makes the matrix lower block triangular
        position = {v: k for k, block in enumerate(blocks) for v in block}
        n = len(rows)
        assert all(position[j] <= position[i]
                   for i in range(n) for j in range(n) if rows[i][j] > 0), label
