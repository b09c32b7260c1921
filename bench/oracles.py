"""Reference computations for the benchmark's output checks.

Nothing here imports subperron.  Block structure, blow-ups, factor sets and
limits are recomputed from their definitions: graphs and exact integer
iterates in plain Python, spectra with numpy, and the last step of a
polynomial-growth limit with mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

#: relative distance under which two block PF roots count as equal
ROOT_TIE = 1e-9


# ---------------------------------------------------------------------------
# graphs of non-negative matrices (edge j -> i when rows[i][j] > 0)

def successors(rows):
    n = len(rows)
    return [[i for i in range(n) if rows[i][j]] for j in range(n)]


def reach_from(succ, starts) -> set:
    seen = set(starts)
    stack = list(starts)
    while stack:
        for i in succ[stack.pop()]:
            if i not in seen:
                seen.add(i)
                stack.append(i)
    return seen


class Structure:
    """Strongly connected components of a matrix, their flow order, and
    their dominant eigenvalues."""

    def __init__(self, rows):
        self.rows = rows
        n = len(rows)
        self.succ = successors(rows)
        reach = [reach_from(self.succ, [j]) for j in range(n)]
        comp_of = [-1] * n
        comps = []
        for j in range(n):
            if comp_of[j] == -1:
                members = sorted(i for i in reach[j] if j in reach[i])
                for i in members:
                    comp_of[i] = len(comps)
                comps.append(members)
        self.comps = comps
        self.comp_of = comp_of
        # below[c]: components reachable from c, c excluded
        self.below = [{comp_of[i] for i in reach[m[0]]} - {c}
                      for c, m in enumerate(comps)]

    def sub(self, c):
        m = self.comps[c]
        return [[self.rows[i][j] for j in m] for i in m]

    def is_growing(self, c) -> bool:
        """Spectral radius > 1: an irreducible integer block has radius 1
        exactly when it is a permutation, and 0 only as a 1x1 zero."""
        sub = self.sub(c)
        if len(sub) == 1:
            return sub[0][0] >= 2
        return sum(map(sum, sub)) > len(sub)

    def period(self, c) -> int:
        members = self.comps[c]
        inside = set(members)
        level = {members[0]: 0}
        frontier = [members[0]]
        g = 0
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.succ[u]:
                    if v not in inside:
                        continue
                    if v not in level:
                        level[v] = level[u] + 1
                        nxt.append(v)
                    else:
                        g = math.gcd(g, level[u] + 1 - level[v])
            frontier = nxt
        return g or 1

    def eigenvalues(self, c):
        return np.linalg.eigvals(np.array(self.sub(c), dtype=float))

    def pf_root(self, c) -> float:
        return float(max(self.eigenvalues(c).real))

    def is_expanding(self) -> bool:
        grows = [self.is_growing(c) for c in range(len(self.comps))]
        return all(grows[c] or any(grows[b] for b in self.below[c])
                   for c in range(len(self.comps)))

    def pb_power(self) -> int:
        """Least power putting the matrix in PB-Frobenius form: lcm of the
        periods of the growing components."""
        return self.frobenius_exponents()[0]

    def frobenius_exponents(self) -> tuple[int, int]:
        """The PB-Frobenius exponent, and the primitive-Frobenius exponent,
        which also splits every cyclic permutation block into fixed points."""
        pb = prim = 1
        for c in range(len(self.comps)):
            if self.is_growing(c):
                pb = math.lcm(pb, self.period(c))
            elif len(self.comps[c]) > 1:
                prim = math.lcm(prim, len(self.comps[c]))
        return pb, math.lcm(pb, prim)

    def longest_chain(self, cs) -> int:
        cs = set(cs)
        memo = {}

        def chain(c):
            if c not in memo:
                memo[c] = 1 + max((chain(b) for b in cs & self.below[c]), default=0)
            return memo[c]
        return max((chain(c) for c in cs), default=0)


# ---------------------------------------------------------------------------
# limits of normalized iterates

class Limit:
    """Limit of ``M^t v / ||M^t v||_1`` (``vector``, filled in by
    ``limit_oracle``), its growth ``lam^t t^degree`` and ``ratio``, the next
    eigenvalue modulus over ``lam``, which sets the speed of convergence."""

    def __init__(self, rows, v):
        n = len(rows)
        self.live = sorted(reach_from(successors(rows), [i for i in range(n) if v[i]]))
        self.sub = [[rows[i][j] for j in self.live] for i in self.live]
        st = Structure(self.sub)
        roots = [st.pf_root(c) for c in range(len(st.comps))]
        self.lam = max(roots)
        top = [c for c, r in enumerate(roots) if abs(r - self.lam) <= ROOT_TIE * self.lam]
        self.degree = st.longest_chain(top) - 1
        rest = []
        for c in range(len(st.comps)):
            ev = sorted(abs(st.eigenvalues(c)), reverse=True)
            rest.extend(ev[1:] if c in top else ev)
        self.ratio = float(max(rest, default=0.0) / self.lam)
        self.top_block = st.sub(top[0])
        self.vector = None


def limit_oracle(rows, v) -> Limit:
    """The limit direction of the trajectory of ``v``.

    On the coordinates reachable from ``v`` the dominant root ``lam`` and
    the length ``d + 1`` of the longest chain of components sharing it give
    the growth ``lam^t t^d``.  For ``d = 0`` the limit is the float power
    iterate run until ``ratio^t`` is below 1e-20.  For ``d >= 1`` it is
    ``(M - lam I)^d M^t v`` with an exact integer iterate and ``lam`` to 60
    digits, which removes the Jordan part and leaves an error of order
    ``ratio^t`` (below 1e-45) instead of ``1/t``.
    """
    lim = Limit(rows, v)
    a = lim.sub
    x0 = [v[i] for i in lim.live]
    if lim.degree == 0:
        m = np.array(a, dtype=float)
        x = np.array(x0, dtype=float)
        x /= x.sum()
        for _ in range(_steps(lim.ratio, 1e-20, len(a))):
            x = m @ x
            x /= x.sum()
        out = [float(c) for c in x]
    else:
        cols = [[(i, a[i][j]) for i in range(len(a)) if a[i][j]] for j in range(len(a))]
        x = list(x0)
        for _ in range(_steps(lim.ratio, 1e-45, len(a))):
            y = [0] * len(x)
            for j, xj in enumerate(x):
                if xj:
                    for i, aij in cols[j]:
                        y[i] += aij * xj
            x = y
        with mpmath.workdps(60):
            lam_hp = max(mpmath.re(e) for e in mpmath.eig(mpmath.matrix(lim.top_block))[0])
            z = [mpmath.mpf(c) for c in x]
            for _ in range(lim.degree):
                z = [mpmath.fsum(a[i][j] * z[j] for j in range(len(z))) - lam_hp * z[i]
                     for i in range(len(z))]
            s = mpmath.fsum(z)
            out = [float(c / s) for c in z]
    lim.vector = [0.0] * len(rows)
    for k, i in enumerate(lim.live):
        lim.vector[i] = out[k]
    return lim


def settle_steps(rows, v, tol: float, cap: int = 10000) -> int:
    """Steps after which the normalized iterate of ``v`` stays within
    ``tol`` (l1) of its limit; geometric trajectories only."""
    lim = limit_oracle(rows, v)
    m = np.array(rows, dtype=float)
    x = np.array(v, dtype=float) / sum(v)
    target = np.array(lim.vector)
    for t in range(cap):
        if np.abs(x - target).sum() <= tol:
            return t
        x = m @ x
        x /= x.sum()
    return cap


def _steps(ratio: float, target: float, n: int) -> int:
    if ratio <= 0.0:
        return n + 10
    return min(20000, max(n + 10, math.ceil(math.log(target) / math.log(ratio)) + 10))


def l1(a, b) -> float:
    return float(sum(abs(x - y) for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# substitutions, factors and blow-ups (images are lists of letter indices)

def apply(images, word):
    return tuple(c for x in word for c in images[x])


def power(images, p):
    out = [tuple(img) for img in images]
    for _ in range(p - 1):
        out = [apply(images, img) for img in out]
    return out


def stable(images):
    """The substitution raised to its PB-Frobenius power, and the power."""
    p = Structure(incidence(images)).pb_power()
    return power(images, p), p


def decode(letters, word) -> str:
    """A word as the program prints it: letters joined directly when all are
    single characters, else with spaces."""
    sep = "" if all(len(x) == 1 for x in letters) else " "
    return sep.join(letters[i] for i in word)


def incidence(images):
    k = len(images)
    rows = [[0] * k for _ in range(k)]
    for j, img in enumerate(images):
        for i in img:
            rows[i][j] += 1
    return rows


def factors(images, n):
    """Length-n factors of the language: windows of long iterates of every
    letter, closed under taking windows of images."""
    found = set()
    queue = []

    def add(w):
        if w not in found:
            found.add(w)
            queue.append(w)

    for x in range(len(images)):
        w = (x,)
        while len(w) < n:
            w = apply(images, w)
        for p in range(len(w) - n + 1):
            add(w[p:p + n])
    head = 0
    while head < len(queue):
        img = apply(images, queue[head])
        head += 1
        for p in range(len(img) - n + 1):
            add(img[p:p + n])
    return queue


def blow_up(images, n):
    """Level-n blow-up: the image of ``w = x_1..x_n`` is the list of the
    first ``|zeta(x_1)|`` windows of length n in ``zeta(w)``.  Returns the
    factor list and the incidence rows of the blow-up."""
    words = factors(images, n)
    index = {w: k for k, w in enumerate(words)}
    k = len(words)
    rows = [[0] * k for _ in range(k)]
    for j, w in enumerate(words):
        img = apply(images, w)
        for p in range(len(images[w[0]])):
            rows[index[img[p:p + n]]][j] += 1
    return words, rows


def freq_oracle(images, base: int, n: int):
    """Limit frequencies of the length-n factors inside ``zeta^t(base)``:
    the limit of the level-n blow-up started at the lexicographically first
    factor that begins with ``base``.  ``images`` must already be in
    PB-Frobenius form.  Returns ``(words, Limit)``."""
    if n == 1:
        words, rows = [(i,) for i in range(len(images))], incidence(images)
    else:
        words, rows = blow_up(images, n)
    seed = min((w, k) for k, w in enumerate(words) if w[0] == base)[1]
    v = [0] * len(words)
    v[seed] = 1
    return words, limit_oracle(rows, v)


def pair_frequencies(images, base: int, k: int):
    """Frequencies of the length-2 windows of ``zeta^k(base)``, counted
    exactly without writing the word out: the pairs of ``zeta(u)`` are the
    pairs inside each ``zeta(x)`` plus, for each adjacent pair ``xy`` of
    ``u``, the pair (last letter of ``zeta(x)``, first letter of
    ``zeta(y)``)."""
    inner = [{} for _ in images]
    for x, img in enumerate(images):
        for p in range(len(img) - 1):
            inner[x][img[p:p + 2]] = inner[x].get(img[p:p + 2], 0) + 1
    letters = [0] * len(images)
    letters[base] = 1
    pairs: dict = {}
    for _ in range(k):
        nxt: dict = {}
        for x, c in enumerate(letters):
            if c:
                for w, m in inner[x].items():
                    nxt[w] = nxt.get(w, 0) + c * m
        for (x, y), c in pairs.items():
            w = (images[x][-1], images[y][0])
            nxt[w] = nxt.get(w, 0) + c
        pairs = nxt
        letters = [sum(letters[j] * img.count(i) for j, img in enumerate(images))
                   for i in range(len(images))]
    total = sum(pairs.values())
    return {w: c / total for w, c in pairs.items()}


def eigen_residual(rows, vec, lam) -> float:
    """``||M v - lam v||_1 / (lam ||v||_1)`` in float64."""
    m = np.array(rows, dtype=float)
    v = np.array(vec, dtype=float)
    return float(np.abs(m @ v - lam * v).sum() / (lam * np.abs(v).sum()))


def matrix_power(rows, t):
    """Exact ``rows^t`` with Python integers."""
    n = len(rows)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(r) for r in rows]

    def mul(x, y):
        cols = list(zip(*y))
        return [[sum(p * q for p, q in zip(r, c)) for c in cols] for r in x]

    while t:
        if t & 1:
            result = mul(result, base)
        t >>= 1
        if t:
            base = mul(base, base)
    return result
