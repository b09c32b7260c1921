"""Shared fixtures: the 8x8 reducible fixture, the substitution corpus, random
matrix corpora, and cached deep convergence runs."""

from __future__ import annotations

import random

import pytest

from subperron import (
    ExactMatrix,
    Substitution,
    blow_up,
    block_eigenvalues,
    is_expanding,
    normalized_limit,
    scc_blocks,
    stabilizing_power,
)

# the 8x8 reducible fixture with four primitive 2x2 blocks; eigenvalues
# 2+sqrt(2) (blocks 1, 3) and (3+sqrt(5))/2 (blocks 2, 4)
M8_ROWS = [
    [3, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 2, 2, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [4, 0, 0, 0, 3, 1, 0, 0],
    [1, 1, 0, 0, 1, 1, 0, 0],
    [0, 3, 1, 3, 2, 3, 2, 1],
    [1, 1, 2, 1, 0, 4, 1, 1],
]

# a power-bounded 2-cycle on top feeding two independent primitive blocks
# with equal eigenvalue 3: trajectories from the top cone have
# start-dependent limits (the third limit case)
CASE3_ROWS = [
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [1, 0, 2, 1, 0, 0],
    [0, 0, 1, 2, 0, 0],
    [0, 1, 0, 0, 2, 1],
    [0, 0, 0, 0, 1, 2],
]

ANTIDIAG4_ROWS = [
    [0, 0, 1, 1],
    [0, 0, 1, 0],
    [1, 1, 0, 0],
    [1, 0, 0, 0],
]


@pytest.fixture(scope="session")
def m8():
    return ExactMatrix(M8_ROWS)


@pytest.fixture(scope="session")
def dec8(m8):
    return scc_blocks(m8)


@pytest.fixture(scope="session")
def eig8(m8, dec8):
    return block_eigenvalues(m8, dec8)


@pytest.fixture(scope="session")
def case3_matrix():
    return ExactMatrix(CASE3_ROWS)


@pytest.fixture(scope="session")
def antidiag4():
    return ExactMatrix(ANTIDIAG4_ROWS)


# ---------------------------------------------------------------------------
# substitution corpus

def _rules(*pairs):
    return Substitution.from_rules(list(pairs))


CORPUS_BUILDERS = {
    "fibonacci": lambda: _rules(("a", "ab"), ("b", "a")),
    "thue_morse": lambda: _rules(("a", "ab"), ("b", "ba")),
    "aab_bb": lambda: _rules(("a", "aab"), ("b", "bb")),
    "ab_bbb": lambda: _rules(("a", "ab"), ("b", "bbb")),
    # single imprimitive component of period 2 (stabilizing power 2)
    "cyclic4": lambda: _rules(("a", "cd"), ("b", "c"), ("c", "ab"), ("d", "a")),
    "tribonacci": lambda: _rules(("a", "ab"), ("b", "ac"), ("c", "a")),
    "period_doubling": lambda: _rules(("a", "ab"), ("b", "aa")),
    # reducible with two bottom blocks: measures depend on the base letter
    "two_bottom": lambda: _rules(("t", "tab"), ("a", "aa"), ("b", "bb")),
    "aabb_ab": lambda: _rules(("a", "aabb"), ("b", "ab")),
    # zero/one top block above a growing block
    "b_over_a": lambda: _rules(("b", "ab"), ("a", "aa")),
    # substitution realization of the case-3 matrix fixture
    "case3": lambda: _rules(
        ("p", "q x1"), ("q", "p y1"),
        ("x1", "x1 x1 x2"), ("x2", "x1 x2 x2"),
        ("y1", "y1 y1 y2"), ("y2", "y1 y2 y2"),
    ),
}


@pytest.fixture(scope="session")
def corpus():
    return {name: build() for name, build in CORPUS_BUILDERS.items()}


@pytest.fixture(scope="session")
def fib(corpus):
    return corpus["fibonacci"]


@pytest.fixture(scope="session")
def thue_morse(corpus):
    return corpus["thue_morse"]


@pytest.fixture(scope="session")
def aab_bb(corpus):
    return corpus["aab_bb"]


# ---------------------------------------------------------------------------
# an independent route to limit frequencies

def blow_up_frequencies(s: Substitution, a: int, n: int,
                        tol: float = 1e-12) -> dict | None:
    """Length-n limit frequencies based at letter index ``a`` by the route
    of the level-n blow-up: ``normalized_limit`` on the incidence matrix of
    the stabilizing power (n = 1) or of its level-n blow-up, started at the
    first factor that begins with ``a``.  None when no length-n factor
    begins with ``a``."""
    zs = s.power(stabilizing_power(s))
    if n == 1:
        m, words, start = zs.incidence_matrix(), [(i,) for i in range(len(s.alphabet))], a
    else:
        zn, fa = blow_up(zs, n)
        m, words = zn.incidence_matrix(), fa.words
        start = next((k for k, w in enumerate(words) if w[0] == a), None)
        if start is None:
            return None
    v0 = [0] * m.n
    v0[start] = 1
    report = normalized_limit(m, v0, tol=tol, max_iter=200000)
    assert report.converged
    return dict(zip(words, report.limit))


@pytest.fixture(scope="session")
def frequency_oracle():
    """``blow_up_frequencies``, cached per (substitution, letter, length)."""
    cache: dict = {}

    def oracle(s: Substitution, a: int, n: int) -> dict | None:
        key = (s.alphabet.letters, s.images, a, n)
        if key not in cache:
            cache[key] = blow_up_frequencies(s, a, n)
        return cache[key]

    return oracle


# ---------------------------------------------------------------------------
# random matrix corpora

_PRIM_CACHE: dict = {}


def random_primitive_block(rng: random.Random, size: int, max_entry: int = 3):
    """Random primitive block of the given size with entries <= max_entry."""
    from subperron import is_primitive

    while True:
        rows = [[rng.randint(0, max_entry) if rng.random() < 0.6 else 0
                 for _ in range(size)] for _ in range(size)]
        m = ExactMatrix(rows)
        if is_primitive(m) and m.max_entry() >= (2 if size == 1 else 1):
            return rows


def random_pb_frobenius_expanding(rng: random.Random, max_n: int = 6,
                                  max_entry: int = 3) -> ExactMatrix:
    """Random expanding matrix in PB-Frobenius form: primitive / cyclic /
    zero-one diagonal blocks with arbitrary subdiagonal coupling."""
    while True:
        sizes = []
        kinds = []
        budget = rng.randint(2, max_n)
        while budget > 0:
            kind = rng.choices(
                ["prim", "cycle", "one", "zero"], weights=[6, 2, 1, 1]
            )[0]
            size = rng.randint(1, min(3, budget)) if kind == "prim" else (
                rng.randint(2, min(3, budget)) if kind == "cycle" and budget >= 2
                else 1)
            if kind == "cycle" and size < 2:
                kind = "one"
            sizes.append(size)
            kinds.append(kind)
            budget -= size
        n = sum(sizes)
        rows = [[0] * n for _ in range(n)]
        offset = 0
        for size, kind in zip(sizes, kinds):
            if kind == "prim":
                block = random_primitive_block(rng, size, max_entry)
                for r in range(size):
                    for c in range(size):
                        rows[offset + r][offset + c] = block[r][c]
            elif kind == "cycle":
                for r in range(size):
                    rows[offset + (r + 1) % size][offset + r] = 1
            elif kind == "one":
                rows[offset][offset] = 1
            offset += size
        # couplings strictly below the block diagonal
        starts = []
        acc = 0
        for size in sizes:
            starts.append(acc)
            acc += size
        for bi in range(len(sizes)):
            for bj in range(bi + 1, len(sizes)):
                for r in range(starts[bj], starts[bj] + sizes[bj]):
                    for c in range(starts[bi], starts[bi] + sizes[bi]):
                        if rng.random() < 0.35:
                            rows[r][c] = rng.randint(1, max_entry)
        m = ExactMatrix(rows)
        if is_expanding(m) and scc_blocks(m).is_pb_frobenius():
            return m


@pytest.fixture(scope="session")
def random_corpus_200():
    rng = random.Random(20260808)
    return [random_pb_frobenius_expanding(rng) for _ in range(200)]


# ---------------------------------------------------------------------------
# cached runs for the growth-degree-1 starts of the 8x8 fixture (equal
# eigenvalues along a chain: the raw iterate approaches its limit at rate
# 1/t, the deflated read-out that normalized_limit watches geometrically,
# settling within 1e-8 in under 100 steps; the budget of 23000 is what the
# raw iterate needed)

@pytest.fixture(scope="session")
def deep_runs_m8(m8):
    out = {}
    for i in (0, 1, 2, 3):
        v0 = [0] * 8
        v0[i] = 1
        out[i] = normalized_limit(m8, v0, tol=1e-8, max_iter=23000)
    return out


# ---------------------------------------------------------------------------
# acceptance summary lines, printed after the run

_ACCEPTANCE_LINES: list[str] = []


def record_criterion(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
