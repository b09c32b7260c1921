"""Metamorphic checks: relabelling the input changes no reported limit.

They need no reference value.  Permuting the coordinates of a matrix and
its start permutes the limit and changes no iteration count; reversing
every image of a substitution reverses every factor and keeps its limit
frequency.
"""

import random

from conftest import random_expanding, random_pb_frobenius_expanding
from subperron import (ExactMatrix, Substitution, frequency_table,
                       normalized_limit)


def test_permuted_matrix_permutes_the_limit():
    rng = random.Random(7)
    shuffle = random.Random(70)
    converged = 0
    for _ in range(100):
        m = random_pb_frobenius_expanding(rng)
        n = m.n
        p = list(range(n))
        shuffle.shuffle(p)
        rows = [[0] * n for _ in range(n)]
        for r, row in enumerate(m.entries):
            for c, x in enumerate(row):
                rows[p[r]][p[c]] = x
        mp = ExactMatrix(rows)
        for i in range(n):
            v0 = [int(k == i) for k in range(n)]
            w0 = [int(k == p[i]) for k in range(n)]
            got = normalized_limit(m, v0, tol=1e-10)
            moved = normalized_limit(mp, w0, tol=1e-10)
            assert moved.converged == got.converged
            assert moved.iterations == got.iterations
            assert max(abs(moved.limit[p[k]] - got.limit[k])
                       for k in range(n)) <= 1e-12
            converged += got.converged
    assert converged >= 380


def test_mirror_substitution_reverses_the_factors():
    rng = random.Random(3)
    tol = 1e-10
    tables = 0
    for _ in range(50):
        s = random_expanding(rng)
        mirror = Substitution(s.alphabet, [img[::-1] for img in s.images])
        for a in range(len(s.alphabet)):
            got = frequency_table(s, a, max_len=5, tol=tol).entries
            mirrored = frequency_table(mirror, a, max_len=5, tol=tol).entries
            back = {w[::-1]: f for w, f in mirrored.items()}
            assert back.keys() == got.keys()
            assert max(abs(back[w] - got[w]) for w in got) <= tol
            tables += 1
    assert tables >= 150
