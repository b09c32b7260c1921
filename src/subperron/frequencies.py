"""Limit frequencies of letters and factors, and invariant-measure queries
for expanding substitutions.

Every frequency is read off one normalized-iterate limit, that of the
letters: ``f_1``, started at the base letter on the incidence matrix of the
stabilizing power ``zs`` (which is PB-Frobenius).  The limit ``f_n`` of the
length-n factors is an eigenvector of the level-n blow-up, reducible or
not, and follows from ``f_1`` by counting windows through the substitution
induced on length-n words (M. Queffelec, *Substitution Dynamical Systems -
Spectral Analysis*, LNM 1294, ch. V).  With ``z`` the least power of ``zs``
whose images all have length >= 2, ``m`` its shortest image length and
``lam = sum_c f_1(c) |z(c)|``:

* ``(lam I - B) f_2 = A f_1``, where ``A[w, c]`` counts the pairs ``w``
  inside ``z(c)`` and ``B`` maps the pair ``cd`` to the straddling pair
  (last letter of ``z(c)``, first of ``z(d)``).  ``B`` has one 1 per
  column, so ``rho(B) <= 1 < lam`` and the system is regular.
* For ``n >= 3``, ``f_n = (1/lam) N_n f_l`` with ``l = 1 + ceil((n-1)/m)``:
  ``N_n[w, v]`` counts the windows ``w`` of ``z(v)`` that start inside
  ``z(v_1)``, all of which lie inside ``z(v)``.  The sum of ``N_n f_l``
  stands in for ``lam``, so that every level sums to 1.

No blow-up is built or iterated.  An error in ``f_1`` lives on the letters
of ``zs**t(a)``; with ``L`` the longest of their images under ``z``, it
grows by at most ``(L - 1) / (lam - 1)`` into level 2 and by ``L / lam``
per level above it, so the letter limit runs at ``tol / C``, ``C`` that
product over the levels used (at least 1).

The keys of level n are all length-n windows of ``z(v)`` and the seeds of
``words.factor_alphabet`` with those of the next ``p - 1`` powers of ``zs``
(``z = zs**p``): exactly the length-n factors of the language.  Keys
outside the windows counted carry 0.0.

A table up to length N takes level N from the recursion and gives each
shorter word the sum over the level-N words it is a prefix of, so the right
Kirchhoff condition ``f_w = sum_b f_wb`` holds up to float rounding, where
the levels taken each from the recursion would meet it only within the
tolerance.  The left one, ``f_w = sum_b f_bw`` (shift invariance), is a
property of the limit that ``kirchhoff_check`` tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from . import _linalg
from .errors import MaxIterError, ParseError
from .matrices import scc_blocks
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceReport,
    block_eigenvalues,
    float_matvec,
    normalized_limit,
    trajectory_growth,
)
from .words import Substitution, Word, stabilizing_power


def _letter_index(s: Substitution, a) -> int:
    if isinstance(a, str):
        return s.alphabet.index_of(a)
    a = int(a)
    if not 0 <= a < len(s.alphabet):
        raise ValueError(f"letter index {a} out of range")
    return a


@dataclass(frozen=True)
class FrequencyTable:
    """Limit frequencies f_w(a) for all factors w up to ``max_len``, based
    at letter ``a``.  Keys of ``entries`` are index tuples over the base
    alphabet; words of the language carry their limit frequency and every
    other word has frequency zero."""

    substitution: Substitution
    base_letter: str
    power_used: int
    max_len: int
    entries: dict[Word, float]
    growth_rate: float
    iterations: int

    def omega(self, word) -> float:
        """The weight f_w(a); zero for words outside the language."""
        if isinstance(word, str):
            word = self.substitution.alphabet.encode(word)
        return self.entries.get(tuple(word), 0.0)

    def words_of_length(self, n: int) -> list[Word]:
        return [w for w in self.entries if len(w) == n]

    def length_sum(self, n: int) -> float:
        return sum(self.entries[w] for w in self.words_of_length(n))

    @property
    def frequencies(self) -> dict[str, float]:
        dec = self.substitution.alphabet.decode
        return {dec(w): f for w, f in self.entries.items()}

    def to_json_dict(self) -> dict:
        """Export payload: base letter, power applied before analysis, the
        word-to-frequency map (sorted by length, then word), and the growth
        rate of the base letter's iterates."""
        ordered = sorted(self.frequencies.items(), key=lambda kv: (len(kv[0]), kv[0]))
        return {
            "base_letter": self.base_letter,
            "power_used": self.power_used,
            "frequencies": dict(ordered),
            "growth_rate": self.growth_rate,
        }


@dataclass(frozen=True)
class KirchhoffReport:
    """Maximum violation of the Kirchhoff conditions over all testable
    words (both one-letter extensions on the left and on the right)."""

    max_residual: float
    worst_word: str
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _settled_limit(s: Substitution, a: int, n: int,
                   report: ConvergenceReport) -> tuple[float, ...]:
    """The limit of a converged letter report; raise otherwise (``n`` is
    the length asked for)."""
    if not report.converged:
        what = "letter" if n == 1 else f"length-{n}"
        raise MaxIterError(
            f"{what} frequencies for base {s.alphabet.letters[a]!r} did not "
            f"settle: {report.diagnostic}", partial=report)
    return report.limit


class _InducedLimits:
    """The limits ``f_n`` based at letter ``a``, for every length up to
    ``top``, read off the letter limit through the substitution induced on
    length-n words (see the module docstring).  ``report`` is the letter
    limit's, on ``m1``, the incidence matrix of ``zs``; ``level(n)`` is
    memoized."""

    def __init__(self, zs: Substitution, a: int, top: int, tol: float,
                 max_iter: int):
        z, self.p = zs, 1
        while min(map(len, z.images)) < 2:
            self.p += 1
            z = zs.power(self.p)
        self.zs, self.z, self.m1 = zs, z, zs.incidence_matrix()
        self.shortest = min(map(len, z.images))
        amplification = 1.0
        if top >= 2:
            # the error of f_1 lives on the letters that zs**t(a) holds
            dec = scc_blocks(self.m1)
            own = dec.block_of(a)
            longest = max(len(z.images[c]) for b in {own, *dec.dependency[own]}
                          for c in dec.members(b))
            growth = trajectory_growth(dec, block_eigenvalues(self.m1, dec), [a])
            lam = growth.lam ** self.p
            amplification = (longest - 1) / (lam - 1)
            n = top
            while n > 2:
                amplification *= longest / lam
                n = self._source(n)
        v0 = [0] * self.m1.n
        v0[a] = 1
        self.report = normalized_limit(
            self.m1, v0, tol=tol / max(1.0, amplification), max_iter=max_iter)
        f1 = self.report.limit
        self.lam = sum(x * len(w) for x, w in zip(f1, z.images))
        self.levels = {1: {(i,): x for i, x in enumerate(f1)}}
        self.iterates = [[(i,) for i in range(len(zs.alphabet))]]

    def _source(self, n: int) -> int:
        """The length ``l = 1 + ceil((n - 1) / m)`` that level ``n >= 3``
        is read from."""
        return 2 + (n - 2) // self.shortest

    def level(self, n: int) -> dict[Word, float]:
        """``f_n`` on the length-n factors of the language."""
        if n not in self.levels:
            self.levels[n] = self._pairs() if n == 2 else self._windows(n)
        return self.levels[n]

    def _pairs(self) -> dict[Word, float]:
        """``f_2``, from ``(lam I - B) f_2 = A f_1`` over the seed pairs and
        the straddling pairs they lead to.  The seeds hold every pair
        inside an image of ``z``."""
        images = self.z.images
        pairs = list(dict.fromkeys(self._seeds(2)))
        index = {w: k for k, w in enumerate(pairs)}
        straddles = []
        for c, d in pairs:
            straddle = (images[c][-1], images[d][0])
            if straddle not in index:
                index[straddle] = len(pairs)
                pairs.append(straddle)
            straddles.append(index[straddle])
        k = len(pairs)
        a = [[0.0] * k for _ in range(k)]
        for j, i in enumerate(straddles):
            a[j][j] += self.lam
            a[i][j] -= 1.0
        rhs = [0.0] * k
        for x, img in zip(self.levels[1].values(), images):
            for w in zip(img, img[1:]):
                rhs[index[w]] += x
        return dict(zip(pairs, _linalg.solve(a, rhs)))

    def _windows(self, n: int) -> dict[Word, float]:
        """``f_n``, ``n >= 3``: ``N_n f_l`` over its sum.  The windows of
        ``z(v)`` that start after ``z(v_1)``, and the seeds, are keys."""
        images = self.z.images
        f: dict[Word, float] = {}
        for v, x in self.level(self._source(n)).items():
            image = self.z.apply(v)
            head = len(images[v[0]])
            for j in range(head):
                w = image[j:j + n]
                f[w] = f.get(w, 0.0) + x
            for j in range(head, len(image) - n + 1):
                f.setdefault(image[j:j + n], 0.0)
        total = sum(f.values())
        f = {w: x / total for w, x in f.items()}
        for w in self._seeds(n):
            f.setdefault(w, 0.0)
        return f

    def _seeds(self, n: int) -> Iterator[Word]:
        """The length-n windows of ``zs**(K + r)(a_i)`` for ``r < p``
        (``z = zs**p``), ``K`` the least power at which every such word has
        ``n`` letters.  At ``r = 0`` these are the seeds of
        ``words.factor_alphabet``.  A length-n factor of ``zs**t(a_i)``,
        ``t >= K + p``, is a window of ``z(v)`` for a length-l factor ``v``
        of ``zs**(t - p)(a_i)``, so these and the windows of ``_windows``
        are all the length-n factors of the language."""
        its = self.iterates
        while min(map(len, its[-1])) < n:
            its.append([self.zs._guarded_apply(w) for w in its[-1]])
        k = next(k for k, ws in enumerate(its) if min(map(len, ws)) >= n)
        while len(its) < k + self.p:
            its.append([self.zs._guarded_apply(w) for w in its[-1]])
        for ws in its[k:k + self.p]:
            for word in ws:
                for j in range(len(word) - n + 1):
                    yield word[j:j + n]


def letter_frequencies(s: Substitution, a, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER):
    """Limit frequencies of every letter inside ``zeta**t(a)``.

    Returns ``(vector, report)`` where the vector is indexed by the
    alphabet, sums to one, and is an eigenvector of the incidence matrix of
    the substitution raised to its stabilizing power.
    """
    a = _letter_index(s, a)
    zs = s.power(stabilizing_power(s))
    report = _InducedLimits(zs, a, 1, tol, max_iter).report
    return _settled_limit(s, a, 1, report), report


def growth_rate(s: Substitution, a, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The limit of |zeta**(t+1)(a)| / |zeta**t(a)| (the eigenvalue of the
    letter-frequency convergence report; exceeds one for expanding input)."""
    _, report = letter_frequencies(s, a, tol=tol, max_iter=max_iter)
    return report.eigenvalue


def factor_frequencies(s: Substitution, a, n: int,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> dict[Word, float]:
    """Limit frequencies of all length-n factors inside ``zeta**t(a)``,
    read off the letter limit.  The keys are the length-n factors of the
    language; words outside it do not appear (their frequency is zero)."""
    if n < 2:
        raise ValueError("use letter_frequencies for length 1")
    a = _letter_index(s, a)
    limits = _InducedLimits(s.power(stabilizing_power(s)), a, n, tol, max_iter)
    _settled_limit(s, a, n, limits.report)
    return limits.level(n)


def frequency_table(s: Substitution, a, max_len: int,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> FrequencyTable:
    """Build the full frequency table for lengths 1..max_len from level
    ``max_len`` alone.

    A shorter word's entry is the sum of level ``max_len`` over the words it
    is a prefix of (the right Kirchhoff condition), so it is exactly zero
    when no such word exists.  The table holds every letter and every
    factor of each length 2..max_len.  ``growth_rate`` is the eigen-estimate
    ``||M x||_1`` of the letter marginal ``x``, ``M`` the incidence matrix
    of the stabilizing power.
    """
    # a non-expanding input is reported before any argument error
    power = stabilizing_power(s)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    a = _letter_index(s, a)
    limits = _InducedLimits(s.power(power), a, max_len, tol, max_iter)
    # the factors of each shorter length are keys of their own, not read
    # off the top level: a factor need not lie inside any longer one
    entries: dict[Word, float] = {}
    for n in range(1, max_len):
        entries.update(dict.fromkeys(limits.level(n), 0.0))
    top = limits.level(max_len)
    entries.update(top)
    for w, f in top.items():
        for n in range(1, max_len):
            entries[w[:n]] += f
    x1 = [entries[(i,)] for i in range(len(s.alphabet))]
    report = limits.report
    table = FrequencyTable(
        substitution=s, base_letter=s.alphabet.letters[a], power_used=power,
        max_len=max_len, entries=entries,
        growth_rate=sum(float_matvec(limits.m1, x1)),
        iterations=report.iterations,
    )
    if not report.converged:
        raise MaxIterError(
            f"frequency table did not settle within {max_iter} iterations",
            partial=table)
    return table


def kirchhoff_check(table: FrequencyTable, tol: float = 1e-6) -> KirchhoffReport:
    """Largest violation of ``omega(w) = sum_a omega(a w) = sum_a omega(w a)``
    over all table words shorter than ``max_len``.  A table built by
    ``frequency_table`` meets the right extension ``sum_a omega(w a)`` by
    construction (up to float rounding), so on such a table this tests the
    left extension: the shift invariance of the limit."""
    letters = [(i,) for i in range(len(table.substitution.alphabet))]
    entries = table.entries
    worst = 0.0
    worst_word = ""
    for w, f in entries.items():
        if len(w) >= table.max_len:
            continue
        left = sum([entries.get(b + w, 0.0) for b in letters])
        right = sum([entries.get(w + b, 0.0) for b in letters])
        violation = max(abs(f - left), abs(f - right))
        if violation > worst:
            worst = violation
            worst_word = table.substitution.alphabet.decode(w)
    return KirchhoffReport(max_residual=worst, worst_word=worst_word, tol=tol)


def measure_cylinder(s: Substitution, a, word,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The invariant-measure value mu_a(Cyl_w): the limit frequency of the
    word ``w`` in ``zeta**t(a)``.  Exactly zero for words outside the
    language; the per-length values form a probability assignment."""
    # first, so that a non-expanding input is reported before an argument error
    zs = s.power(stabilizing_power(s))
    a = _letter_index(s, a)
    if isinstance(word, str):
        word = s.alphabet.encode(word)
    word = tuple(int(i) for i in word)
    if len(word) < 1:
        raise ValueError("word must be non-empty")
    for i in word:
        if not 0 <= i < len(s.alphabet):
            raise ParseError(f"letter index {i} out of range")
    n = len(word)
    limits = _InducedLimits(zs, a, n, tol, max_iter)
    _settled_limit(s, a, n, limits.report)
    return limits.level(n).get(word, 0.0)
