"""Seeded input generator for the benchmark.

Writes every input file the workloads hand to the program, plus
``manifest.json``, which keeps the same inputs in a form the checks can use.

    python3 bench/inputs.py --seed 1 --out bench/_work/inputs-1

Fixed inputs (the same for every seed): the eleven corpus substitutions of
the test suite, the 8x8, case-3 and antidiagonal fixtures, and the hard
matrices.  Seeded inputs: random expanding PB-Frobenius matrices (the recipe
of the test suite's ``random_pb_frobenius_expanding``) with their start
vectors, and the two 4-letter substitutions of ``blowup_table``.
"""

from __future__ import annotations

import argparse
import json
import os
import random

import oracles

M8 = [
    [3, 1, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [1, 2, 2, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [4, 0, 0, 0, 3, 1, 0, 0],
    [1, 1, 0, 0, 1, 1, 0, 0],
    [0, 3, 1, 3, 2, 3, 2, 1],
    [1, 1, 2, 1, 0, 4, 1, 1],
]

CASE3 = [
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [1, 0, 2, 1, 0, 0],
    [0, 0, 1, 2, 0, 0],
    [0, 1, 0, 0, 2, 1],
    [0, 0, 0, 0, 1, 2],
]

ANTIDIAG4 = [
    [0, 0, 1, 1],
    [0, 0, 1, 0],
    [1, 1, 0, 0],
    [1, 0, 0, 0],
]

BIG_ENTRY = [[1, 10**9], [1, 1]]


def cycles_feeding_block() -> list[list[int]]:
    """14x14: a 5-cycle and a 7-cycle both feed the primitive block
    [[2,1],[3,1]], so the primitive-Frobenius power is 35."""
    n = 14
    rows = [[0] * n for _ in range(n)]
    for start, size in ((0, 5), (5, 7)):
        for r in range(size):
            rows[start + (r + 1) % size][start + r] = 1
    rows[12][12], rows[12][13], rows[13][12], rows[13][13] = 2, 1, 3, 1
    rows[12][0] = 1
    rows[13][5] = 1
    return rows


CORPUS = {
    "fibonacci": [("a", "ab"), ("b", "a")],
    "thue_morse": [("a", "ab"), ("b", "ba")],
    "aab_bb": [("a", "aab"), ("b", "bb")],
    "ab_bbb": [("a", "ab"), ("b", "bbb")],
    "cyclic4": [("a", "cd"), ("b", "c"), ("c", "ab"), ("d", "a")],
    "tribonacci": [("a", "ab"), ("b", "ac"), ("c", "a")],
    "period_doubling": [("a", "ab"), ("b", "aa")],
    "two_bottom": [("t", "tab"), ("a", "aa"), ("b", "bb")],
    "aabb_ab": [("a", "aabb"), ("b", "ab")],
    "b_over_a": [("b", "ab"), ("a", "aa")],
    "case3": [("p", "q x1"), ("q", "p y1"), ("x1", "x1 x1 x2"),
              ("x2", "x1 x2 x2"), ("y1", "y1 y1 y2"), ("y2", "y1 y2 y2")],
}

#: random PB-Frobenius matrices per seed, and their largest size
RANDOM_MATRICES = 12
RANDOM_MAX_N = 12
#: start vectors per random matrix, and the slowest geometric rate allowed
STARTS_PER_MATRIX = 2
MAX_RATIO = 0.8
#: largest block PF root of a random matrix's primitive-Frobenius power;
#: pf_eigen_block's absolute bracket fails above about 1e4 (fault F2)
MAX_FROBENIUS_ROOT = 1e3
#: bands for the 4-letter substitutions: numbers of factors of lengths 16
#: and 32, and steps for the letter frequencies from letter a to come
#: within SETTLE_TOL of their limit
COMPLEXITY_BAND = {16: (158, 166), 32: (325, 345)}
SETTLE_BAND = (82, 92)
SETTLE_TOL = 1e-10
#: band for the growth rate from letter a, which sets how fast the exact
#: iterates grow in bits between rescales
GROWTH_BAND = (2.8, 3.3)


def tokens(rules):
    """Letters in order of first appearance, and images as index lists (the
    coordinate convention of the substitution file format)."""
    names = {lhs for lhs, _ in rules}
    single = all(len(x) == 1 for x in names)
    split = [(lhs, list(img) if single and " " not in img else img.split())
             for lhs, img in rules]
    order = []
    for lhs, toks in split:
        for x in [lhs] + toks:
            if x not in order:
                order.append(x)
    images = dict(split)
    return order, [[order.index(x) for x in images[ltr]] for ltr in order]


# ---------------------------------------------------------------------------
# random expanding PB-Frobenius matrices (the test suite's recipe)

def _is_primitive(rows) -> bool:
    st = oracles.Structure(rows)
    if len(rows) == 1:
        return rows[0][0] > 0
    return len(st.comps) == 1 and st.period(0) == 1


def random_primitive_block(rng, size, max_entry=3):
    while True:
        rows = [[rng.randint(0, max_entry) if rng.random() < 0.6 else 0
                 for _ in range(size)] for _ in range(size)]
        if _is_primitive(rows) and max(map(max, rows)) >= (2 if size == 1 else 1):
            return rows


def random_pb_frobenius_expanding(rng, max_n=6, max_entry=3):
    while True:
        sizes, kinds = [], []
        budget = rng.randint(2, max_n)
        while budget > 0:
            kind = rng.choices(["prim", "cycle", "one", "zero"], weights=[6, 2, 1, 1])[0]
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
        st = oracles.Structure(rows)
        if st.is_expanding() and st.pb_power() == 1:
            return rows


def geometric_starts(rows):
    """Unit start vectors whose trajectories grow like lam^t (degree 0) and
    converge at rate <= MAX_RATIO."""
    n = len(rows)
    ok = []
    for i in range(n):
        v = [0] * n
        v[i] = 1
        lim = oracles.Limit(rows, v)
        if lim.degree == 0 and lim.ratio <= MAX_RATIO:
            ok.append(v)
    return ok


def frobenius_root(rows) -> float:
    """Largest block PF root of the primitive-Frobenius power of ``rows``."""
    st = oracles.Structure(rows)
    return max(st.pf_root(c) for c in range(len(st.comps))) ** st.frobenius_exponents()[1]


def random_matrices(rng):
    """RANDOM_MATRICES matrices of the recipe, each with STARTS_PER_MATRIX
    geometric starts.  Every run must fail the same share of operations
    whatever the seed, so matrices that would meet a fault on some seeds
    only are drawn again: those with fewer geometric starts (the others
    converge like 1/t and meet F1) and those whose Frobenius-power root
    exceeds MAX_FROBENIUS_ROOT (they meet F2)."""
    out = []
    while len(out) < RANDOM_MATRICES:
        rows = random_pb_frobenius_expanding(rng, max_n=RANDOM_MAX_N)
        starts = geometric_starts(rows)
        if len(starts) >= STARTS_PER_MATRIX and frobenius_root(rows) <= MAX_FROBENIUS_ROOT:
            out.append({"rows": rows, "starts": rng.sample(starts, STARTS_PER_MATRIX)})
    return out


# ---------------------------------------------------------------------------
# 4-letter substitutions for blowup_table

def _primitive_images(rng):
    images = [[rng.randrange(4) for _ in range(rng.randint(2, 4))] for _ in range(4)]
    st = oracles.Structure(oracles.incidence(images))
    return images if len(st.comps) == 1 and st.period(0) == 1 else None


def _reducible_images(rng):
    """Block {0, 1} above block {2, 3}, both primitive, the top one with the
    larger PF root (so it is principal with a dependency part).  Each pair
    is made strongly connected by construction."""
    images = ([[rng.randrange(4) for _ in range(rng.randint(3, 4))] for _ in range(2)]
              + [[rng.randrange(2, 4) for _ in range(rng.randint(2, 3))] for _ in range(2)])
    for x, other in ((0, 1), (1, 0), (2, 3), (3, 2)):
        images[x][rng.randrange(len(images[x]))] = other
    st = oracles.Structure(oracles.incidence(images))
    top, bottom = st.comp_of[0], st.comp_of[2]
    if (sorted(st.comps) == [[0, 1], [2, 3]] and st.pb_power() == 1
            and bottom in st.below[top] and st.pf_root(top) > st.pf_root(bottom)):
        return images
    return None


def substitution_4letter(rng, draw):
    """Images from ``draw`` until the letter frequencies from letter 0
    grow at a rate in GROWTH_BAND, converge geometrically (rate <=
    MAX_RATIO) and come within SETTLE_TOL of their limit after a number of
    steps in SETTLE_BAND, and the numbers of factors of lengths 16 and 32
    lie in COMPLEXITY_BAND.  The bands hold down the change of a pass's work
    from seed to seed."""
    while True:
        images = draw(rng)
        if images is None:
            continue
        m = oracles.incidence(images)
        lim = oracles.Limit(m, [1, 0, 0, 0])
        if lim.degree != 0 or lim.ratio > MAX_RATIO:
            continue
        if not GROWTH_BAND[0] <= lim.lam <= GROWTH_BAND[1]:
            continue
        if not SETTLE_BAND[0] <= oracles.settle_steps(m, [1, 0, 0, 0], SETTLE_TOL) <= SETTLE_BAND[1]:
            continue
        if all(lo <= len(oracles.factors(images, n)) <= hi
               for n, (lo, hi) in COMPLEXITY_BAND.items()):
            return images


# ---------------------------------------------------------------------------
# files

def _matrix_text(rows) -> str:
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _subst_text(rules) -> str:
    return "".join(f"{lhs} -> {img}\n" for lhs, img in rules)


def generate(seed: int, out: str) -> dict:
    """Write all inputs for ``seed`` under ``out``; return the manifest."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(seed)
    matrices = {
        "m8": {"rows": M8},
        "case3": {"rows": CASE3},
        "antidiag4": {"rows": ANTIDIAG4},
        "big_entry": {"rows": BIG_ENTRY},
        "cycles14": {"rows": cycles_feeding_block()},
    }
    for k, entry in enumerate(random_matrices(rng)):
        matrices[f"rand{k:02d}"] = entry
    substitutions = {name: {"rules": rules} for name, rules in CORPUS.items()}
    letters4 = "abcd"
    for name, images in (("prim4", substitution_4letter(rng, _primitive_images)),
                         ("red4", substitution_4letter(rng, _reducible_images))):
        rules = [(letters4[j], "".join(letters4[i] for i in img))
                 for j, img in enumerate(images)]
        substitutions[name] = {"rules": rules}
    for name, entry in matrices.items():
        entry["file"] = os.path.join(out, name + ".mat")
        with open(entry["file"], "w", encoding="utf-8") as fh:
            fh.write(_matrix_text(entry["rows"]))
    for name, entry in substitutions.items():
        entry["file"] = os.path.join(out, name + ".sub")
        entry["letters"], entry["images"] = tokens(entry["rules"])
        with open(entry["file"], "w", encoding="utf-8") as fh:
            fh.write(_subst_text(entry["rules"]))
    manifest = {"seed": seed, "matrices": matrices, "substitutions": substitutions}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
