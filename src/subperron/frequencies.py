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

The keys of level n are ``words._Language(zs).factors(n)``: every length-n
window of ``z(v)`` over the keys ``v`` of level ``l``, and the seeds,
which are exactly the length-n factors of the language.  Keys outside the
windows counted carry 0.0.  They are the engine's code-point strings up to
the table's prefix sums; ``FrequencyTable.entries`` and
``factor_frequencies`` key by index tuples.

A table up to length N takes level N from the recursion and gives each
shorter word the sum over the level-N words it is a prefix of, so the right
Kirchhoff condition ``f_w = sum_b f_wb`` holds up to float rounding, where
the levels taken each from the recursion would meet it only within the
tolerance.  The left one, ``f_w = sum_b f_bw`` (shift invariance), is a
property of the limit that ``kirchhoff_check`` tests.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _linalg
from ._linalg import lsum
from .errors import MaxIterError, ParseError
from .matrices import BlockDecomposition, ExactMatrix, scc_blocks
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceReport,
    _power_pairs,
    block_eigenvalues,
    check_budget,
    float_matvec,
    normalized_limit,
    trajectory_growth,
)
from .words import Substitution, Word, _code, _indices, _Language, _stabilizing


def _letter_index(s: Substitution, a) -> int:
    if isinstance(a, str):
        return s.alphabet.index_of(a)
    a = int(a)
    if not 0 <= a < len(s.alphabet):
        raise ValueError(f"letter index {a} out of range")
    return a


class FrequencyTable(NamedTuple):
    """Limit frequencies f_w(a) of the factors w up to ``max_len``, based
    at letter ``a``, keyed by index tuples."""

    substitution: Substitution
    base_letter: str
    power_used: int
    max_len: int
    entries: dict[Word, float]
    growth_rate: float
    iterations: int

    @property
    def frequencies(self) -> dict[str, float]:
        dec = self.substitution.alphabet.decode
        return {dec(w): f for w, f in self.entries.items()}


class KirchhoffReport(NamedTuple):
    """Maximum violation of the Kirchhoff conditions over all testable
    words (both one-letter extensions on the left and on the right)."""

    max_residual: float
    worst_word: str


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
    """The limits ``f_n`` based at letter ``a`` for every length up to
    ``top`` (see the module docstring).  ``report`` is the letter limit's,
    on ``m1``, the incidence matrix of ``zs``; ``stable`` is
    ``words._stabilizing(s)``."""

    def __init__(self, s: Substitution,
                 stable: tuple[int, ExactMatrix, BlockDecomposition], a: int,
                 top: int, tol: float, max_iter: int):
        check_budget(tol, max_iter)
        power, m, dec0 = stable
        zs, m1, dec = s, m, dec0
        if power > 1:
            zs = s.power(power)
            m1 = zs.incidence_matrix()
            dec = scc_blocks(m1)
            _power_pairs(m, dec0, power, m1, dec)
        self.language, self.m1 = _Language(zs), m1
        z = self.language.z
        amplification = 1.0
        eigenvalues = None
        if top >= 2:
            # the error of f_1 lives on the letters that zs**t(a) holds
            eigenvalues = block_eigenvalues(self.m1, dec)
            own = dec.block_of(a)
            longest = max(len(z[c]) for b in {own, *dec.dependency[own]}
                          for c in dec.members(b))
            growth = trajectory_growth(dec, eigenvalues, [a])
            lam = growth.lam ** self.language.p
            amplification = (longest - 1) / (lam - 1)
            n = top
            while n > 2:
                amplification *= longest / lam
                n = self.language.source(n)
        v0 = [0] * self.m1.n
        v0[a] = 1
        self.report = normalized_limit(
            self.m1, v0, tol=tol / max(1.0, amplification), max_iter=max_iter,
            dec=dec, eigenvalues=eigenvalues)
        f1 = self.report.limit
        self.lam = lsum(x * len(w) for x, w in zip(f1, z))
        self.levels = {1: dict(zip(self.language.factors(1), f1))}

    def level(self, n: int) -> dict[str, float]:
        """``f_n`` on the length-n factors of the language."""
        if n not in self.levels:
            self.levels[n] = self._pairs() if n == 2 else self._windows(n)
        return self.levels[n]

    def _pairs(self) -> dict[str, float]:
        """``f_2``, from ``(lam I - B) f_2 = A f_1`` over the pairs."""
        z = self.language.z
        pairs = self.language.factors(2)
        index = dict(zip(pairs, range(len(pairs))))
        k = len(pairs)
        a = [[0.0] * k for _ in range(k)]
        for j, (c, d) in enumerate(pairs):
            a[j][j] += self.lam
            a[index[z[ord(c)][-1] + z[ord(d)][0]]][j] -= 1.0
        rhs = [0.0] * k
        for x, img in zip(self.levels[1].values(), z):
            for j in range(len(img) - 1):
                rhs[index[img[j:j + 2]]] += x
        return dict(zip(pairs, _linalg.solve(a, rhs)))

    def _windows(self, n: int) -> dict[str, float]:
        """``f_n``, ``n >= 3``: ``N_n f_l`` over its sum."""
        z, shorter = self.language.z, self.language.source(n)
        f = dict.fromkeys(self.language.factors(n), 0.0)
        for (v, x), image in zip(self.level(shorter).items(),
                                 self.language.images(shorter)):
            if x:
                for j in range(len(z[ord(v[0])])):
                    f[image[j:j + n]] += x
        total = lsum(f.values())
        return {w: x / total for w, x in f.items()}


def letter_frequencies(s: Substitution, a, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER):
    """Limit frequencies of the letters inside ``zeta**t(a)``: ``(vector,
    report)``, the vector indexed by the alphabet, with sum one."""
    a = _letter_index(s, a)
    report = _InducedLimits(s, _stabilizing(s), a, 1, tol, max_iter).report
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
    """Limit frequencies of the length-n factors inside ``zeta**t(a)``,
    keyed by index tuples; words outside the language do not appear."""
    if n < 2:
        raise ValueError("use letter_frequencies for length 1")
    a = _letter_index(s, a)
    limits = _InducedLimits(s, _stabilizing(s), a, n, tol, max_iter)
    _settled_limit(s, a, n, limits.report)
    return {_indices(w): x for w, x in limits.level(n).items()}


def frequency_table(s: Substitution, a, max_len: int,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> FrequencyTable:
    """The frequency table of lengths 1..max_len, from level ``max_len``
    alone (see the module docstring).  ``growth_rate`` is the eigen-estimate
    ``||M x||_1`` of the letter marginal ``x``, ``M`` the incidence matrix
    of the stabilizing power."""
    # a non-expanding input is reported before any argument error
    stable = _stabilizing(s)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    a = _letter_index(s, a)
    limits = _InducedLimits(s, stable, a, max_len, tol, max_iter)
    # the factors of each shorter length are keys of their own, not read
    # off the top level: a factor need not lie inside any longer one
    entries: dict[str, float] = {}
    for n in range(1, max_len):
        entries.update(dict.fromkeys(limits.language.factors(n), 0.0))
    top = limits.level(max_len)
    entries.update(top)
    for w, f in top.items():
        for n in range(1, max_len):
            entries[w[:n]] += f
    x1 = [entries[w] for w in limits.language.factors(1)]
    report = limits.report
    table = FrequencyTable(
        substitution=s, base_letter=s.alphabet.letters[a],
        power_used=stable[0], max_len=max_len,
        entries={_indices(w): f for w, f in entries.items()},
        growth_rate=lsum(float_matvec(limits.m1, x1)),
        iterations=report.iterations,
    )
    if not report.converged:
        raise MaxIterError(
            f"frequency table did not settle within {max_iter} iterations",
            partial=table)
    return table


def kirchhoff_check(table: FrequencyTable) -> KirchhoffReport:
    """Largest violation of ``omega(w) = sum_a omega(a w) = sum_a omega(w a)``
    over all table words shorter than ``max_len``; on a table of
    ``frequency_table`` only the left one can fail."""
    k = len(table.substitution.alphabet)
    entries = table.entries
    # one pass over the table: lefts[u][b] = omega(b u), rights[u][b] = omega(u b)
    lefts: dict[Word, list[float]] = {}
    rights: dict[Word, list[float]] = {}
    for w, f in entries.items():
        if len(w) >= 2:
            lefts.setdefault(w[1:], [0.0] * k)[w[0]] = f
            rights.setdefault(w[:-1], [0.0] * k)[w[-1]] = f
    zeros = [0.0] * k
    worst = 0.0
    worst_word = ""
    for w, f in entries.items():
        if len(w) >= table.max_len:
            continue
        left = lsum(lefts.get(w, zeros))
        right = lsum(rights.get(w, zeros))
        violation = max(abs(f - left), abs(f - right))
        if violation > worst:
            worst = violation
            worst_word = table.substitution.alphabet.decode(w)
    return KirchhoffReport(max_residual=worst, worst_word=worst_word)


def measure_cylinder(s: Substitution, a, word,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The invariant-measure value mu_a(Cyl_w): the limit frequency of the
    word ``w`` in ``zeta**t(a)``.  Exactly zero for words outside the
    language; the per-length values form a probability assignment."""
    # first, so that a non-expanding input is reported before an argument error
    stable = _stabilizing(s)
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
    limits = _InducedLimits(s, stable, a, n, tol, max_iter)
    _settled_limit(s, a, n, limits.report)
    return limits.level(n).get(_code(word), 0.0)
