"""Limit frequencies of letters and factors, and invariant-measure queries
for expanding substitutions.

The factor route goes through the level-n blow-up: the substitution is
raised to its stabilizing power (so the incidence matrix is PB-Frobenius,
and by the blow-up stability result so is the blow-up's incidence matrix),
and the normalized-iterate limit started at a length-n seed word beginning
with the base letter reads off all length-n frequencies at once.

A full table up to length N runs that limit once, at level N, and gives
each shorter word the sum over the length-N words it is a prefix of.  The
right Kirchhoff condition ``f_w = sum_b f_wb`` then holds by construction;
the left one, ``f_w = sum_b f_bw`` (shift invariance), is a property of the
limit that ``kirchhoff_check`` tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MaxIterError, NoSeedWordError, ParseError
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceReport,
    float_matvec,
    normalized_limit,
)
from .words import (
    FactorAlphabet,
    Substitution,
    Word,
    blow_up,
    factor_alphabet,
    stabilizing_power,
)


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


def _level_limit(zs: Substitution, a: int, n: int, tol: float,
                 max_iter: int, fa: FactorAlphabet | None = None,
                 ) -> tuple[tuple[Word, ...], ConvergenceReport]:
    """The normalized limit of level ``n``, started at letter ``a``: on the
    incidence matrix of ``zs`` (the stabilizing power of the substitution)
    at level 1, and of its level-n blow-up from a seed word beginning with
    ``a`` at level n >= 2.  Returns the level's words, in the order of the
    limit's coordinates, and the convergence report; ``fa`` is
    ``factor_alphabet(zs, n)`` if already built."""
    if n == 1:
        m = zs.incidence_matrix()
        words = tuple((i,) for i in range(m.n))
        start = a
    else:
        zn, fa = blow_up(zs, n, fa)
        m = zn.incidence_matrix()
        words = fa.words
        start = fa.index[_seed_word(fa, a)]
    v0 = [0] * m.n
    v0[start] = 1
    return words, normalized_limit(m, v0, tol=tol, max_iter=max_iter)


def _settled_limit(s: Substitution, a: int, n: int,
                   report: ConvergenceReport) -> tuple[float, ...]:
    """The limit of a converged level-n report; raise otherwise."""
    if not report.converged:
        what = "letter" if n == 1 else f"length-{n}"
        raise MaxIterError(
            f"{what} frequencies for base {s.alphabet.letters[a]!r} did not "
            f"settle: {report.diagnostic}", partial=report)
    return report.limit


def letter_frequencies(s: Substitution, a, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER):
    """Limit frequencies of every letter inside ``zeta**t(a)``.

    Returns ``(vector, report)`` where the vector is indexed by the
    alphabet, sums to one, and is an eigenvector of the incidence matrix of
    the substitution raised to its stabilizing power.
    """
    a = _letter_index(s, a)
    _, report = _level_limit(s.power(stabilizing_power(s)), a, 1, tol, max_iter)
    return _settled_limit(s, a, 1, report), report


def growth_rate(s: Substitution, a, tol: float = DEFAULT_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The limit of |zeta**(t+1)(a)| / |zeta**t(a)| (the eigenvalue of the
    letter-frequency convergence report; exceeds one for expanding input)."""
    _, report = letter_frequencies(s, a, tol=tol, max_iter=max_iter)
    return report.eigenvalue


def _seed_word(fa: FactorAlphabet, a: int) -> Word:
    for w in fa.words:
        if w[0] == a:
            return w
    raise NoSeedWordError(
        f"no length-{fa.n} factor starts with letter index {a}"
    )


def factor_frequencies(s: Substitution, a, n: int,
                       tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> dict[Word, float]:
    """Limit frequencies of all length-n factors inside ``zeta**t(a)``,
    via the blow-up eigenvector route.  Words not in the factor set do not
    appear (their frequency is zero)."""
    if n < 2:
        raise ValueError("use letter_frequencies for length 1")
    a = _letter_index(s, a)
    words, report = _level_limit(s.power(stabilizing_power(s)), a, n, tol,
                                 max_iter)
    return dict(zip(words, _settled_limit(s, a, n, report)))


def frequency_table(s: Substitution, a, max_len: int,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> FrequencyTable:
    """Build the full frequency table for lengths 1..max_len from the
    limit of level ``max_len`` alone.

    A shorter word's entry is the sum of that limit over the length-max_len
    words it is a prefix of (the right Kirchhoff condition), so it is
    exactly zero when no such word exists.  The table holds every letter
    and every factor of each length 2..max_len.  ``growth_rate`` is the
    eigen-estimate ``||M x||_1`` of the letter marginal ``x``.
    """
    # a non-expanding input is reported before any argument error
    power = stabilizing_power(s)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    a = _letter_index(s, a)
    zs = s.power(power)
    words, report = _level_limit(zs, a, max_len, tol, max_iter)
    # the factors of each shorter length are built on their own, not read
    # off the level-max_len words: a factor need not lie inside any longer one
    entries: dict[Word, float] = {(i,): 0.0 for i in range(len(s.alphabet))}
    for n in range(2, max_len):
        entries.update(dict.fromkeys(factor_alphabet(zs, n).words, 0.0))
    entries.update(zip(words, report.limit))
    for w, f in zip(words, report.limit):
        for n in range(1, max_len):
            entries[w[:n]] += f
    m1 = zs.incidence_matrix()
    x1 = [entries[(i,)] for i in range(m1.n)]
    table = FrequencyTable(
        substitution=s, base_letter=s.alphabet.letters[a], power_used=power,
        max_len=max_len, entries=entries,
        growth_rate=sum(float_matvec(m1, x1)),
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
    n_letters = len(table.substitution.alphabet)
    worst = 0.0
    worst_word = ""
    for w, f in table.entries.items():
        if len(w) >= table.max_len:
            continue
        left = sum(table.omega((i,) + w) for i in range(n_letters))
        right = sum(table.omega(w + (i,)) for i in range(n_letters))
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
    # first, so that the zero shortcut below cannot mask a non-expanding input
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
    fa = factor_alphabet(zs, n) if n > 1 else None
    if fa is not None and word not in fa:
        return 0.0
    words, report = _level_limit(zs, a, n, tol, max_iter, fa)
    return _settled_limit(s, a, n, report)[words.index(word)]
