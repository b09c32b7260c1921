"""Limit frequencies of letters and factors, weight functions, and
invariant-measure queries for expanding substitutions.

The factor route goes through the level-n blow-up: the substitution is
raised to its stabilizing power (so the incidence matrix is PB-Frobenius,
and by the blow-up stability result so is the blow-up's incidence matrix),
and the normalized-iterate limit started at a length-n seed word beginning
with the base letter reads off all length-n frequencies at once.

A full table across several lengths is built in lockstep: all lengths are
iterated to a common step count.  The exact iterates at a common step t are
occurrence counts of the same finite word (up to window edge effects), so
the Kirchhoff conditions hold between consecutive lengths up to O(1/|word|)
even before the limits have converged; stopping the lengths at different
times would instead leave O(tol) mismatches for slowly converging
reducible substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    MaxIterError,
    NoSeedWordError,
    NotExpandingError,
    NotPBFrobeniusError,
    ParseError,
)
from .matrices import scc_blocks
from .spectral import DEFAULT_MAX_ITER, _Trajectory, normalized_limit
from .words import (
    FactorAlphabet,
    Substitution,
    Word,
    blow_up,
    factor_alphabet,
    is_expanding_subst,
    stabilizing_power,
)

DEFAULT_FREQ_TOL = 1e-10


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


class WeightFunction:
    """View of a FrequencyTable as a weight function on words."""

    def __init__(self, table: FrequencyTable):
        self.table = table

    def __call__(self, word) -> float:
        return self.table.omega(word)


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


def letter_frequencies(s: Substitution, a, tol: float = DEFAULT_FREQ_TOL,
                       max_iter: int = DEFAULT_MAX_ITER):
    """Limit frequencies of every letter inside ``zeta**t(a)``.

    Returns ``(vector, report)`` where the vector is indexed by the
    alphabet, sums to one, and is an eigenvector of the incidence matrix of
    the substitution raised to its stabilizing power.
    """
    a = _letter_index(s, a)
    power = stabilizing_power(s)
    zs = s.power(power) if power > 1 else s
    m = zs.incidence_matrix()
    v0 = [0] * m.n
    v0[a] = 1
    report = normalized_limit(m, v0, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise MaxIterError(
            f"letter frequencies for base {s.alphabet.letters[a]!r} did not "
            f"settle: {report.diagnostic}", partial=report)
    return report.limit, report


def growth_rate(s: Substitution, a, tol: float = DEFAULT_FREQ_TOL,
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
                       tol: float = DEFAULT_FREQ_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> dict[Word, float]:
    """Limit frequencies of all length-n factors inside ``zeta**t(a)``,
    via the blow-up eigenvector route.  Words not in the factor set do not
    appear (their frequency is zero)."""
    if n < 2:
        raise ValueError("use letter_frequencies for length 1")
    a = _letter_index(s, a)
    power = stabilizing_power(s)
    zs = s.power(power) if power > 1 else s
    return _blow_up_limit(s, zs, a, n, tol, max_iter)


def _blow_up_limit(s: Substitution, zs: Substitution, a: int, n: int,
                   tol: float, max_iter: int,
                   fa: FactorAlphabet | None = None) -> dict[Word, float]:
    """``factor_frequencies`` once ``zs``, the stabilizing power of ``s``,
    is known; ``fa`` is ``factor_alphabet(zs, n)`` if already built."""
    zn, fa = blow_up(zs, n, fa)
    mn = zn.incidence_matrix()
    if not scc_blocks(mn).is_pb_frobenius():
        raise NotPBFrobeniusError(
            "blow-up incidence matrix is not PB-Frobenius; this contradicts "
            "the blow-up stability property and indicates a bug"
        )
    seed = _seed_word(fa, a)
    v0 = [0] * mn.n
    v0[fa.index[seed]] = 1
    report = normalized_limit(mn, v0, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise MaxIterError(
            f"length-{n} frequencies for base {s.alphabet.letters[a]!r} did "
            f"not settle: {report.diagnostic}", partial=report)
    return {fa.words[k]: x for k, x in enumerate(report.limit)}


def frequency_table(s: Substitution, a, max_len: int,
                    tol: float = DEFAULT_FREQ_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> FrequencyTable:
    """Build the full frequency table for lengths 1..max_len in lockstep.

    All lengths are advanced to the same iteration count (the largest any
    single length needs), which keeps the cross-length Kirchhoff residuals
    at the exact-counting level instead of the convergence tolerance.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    a = _letter_index(s, a)
    power = stabilizing_power(s)
    zs = s.power(power) if power > 1 else s

    lanes: list[tuple[int, FactorAlphabet | None, _Trajectory]] = []
    m1 = zs.incidence_matrix()
    v0 = [0] * m1.n
    v0[a] = 1
    lanes.append((1, None, _Trajectory(m1, v0)))
    for n in range(2, max_len + 1):
        zn, fa = blow_up(zs, n)
        mn = zn.incidence_matrix()
        if not scc_blocks(mn).is_pb_frobenius():
            raise NotPBFrobeniusError(
                f"level-{n} blow-up incidence matrix is not PB-Frobenius"
            )
        seed = _seed_word(fa, a)
        vn = [0] * mn.n
        vn[fa.index[seed]] = 1
        lanes.append((n, fa, _Trajectory(mn, vn)))

    settled_all = False
    for _ in range(max_iter):
        for _, _, traj in lanes:
            traj.step()
        if all(traj.settled(tol) for _, _, traj in lanes):
            settled_all = True
            break
    entries: dict[Word, float] = {}
    for n, fa, traj in lanes:
        if n == 1:
            for i, x in enumerate(traj.x):
                entries[(i,)] = x
        else:
            for k, x in enumerate(traj.x):
                entries[fa.words[k]] = x
    base_traj = lanes[0][2]
    table = FrequencyTable(
        substitution=s, base_letter=s.alphabet.letters[a], power_used=power,
        max_len=max_len, entries=entries, growth_rate=base_traj.lam_hat,
        iterations=base_traj.t,
    )
    if not settled_all:
        raise MaxIterError(
            f"frequency table did not settle within {max_iter} iterations",
            partial=table)
    return table


def kirchhoff_check(table: FrequencyTable, tol: float = 1e-6) -> KirchhoffReport:
    """Largest violation of ``omega(w) = sum_a omega(a w) = sum_a omega(w a)``
    over all table words shorter than ``max_len``."""
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
                     tol: float = DEFAULT_FREQ_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> float:
    """The invariant-measure value mu_a(Cyl_w): the limit frequency of the
    word ``w`` in ``zeta**t(a)``.  Exactly zero for words outside the
    language; the per-length values form a probability assignment."""
    if not is_expanding_subst(s):
        # the gates inside the frequency routes would catch this too, but
        # the zero shortcut below must not mask a non-expanding input
        raise NotExpandingError("substitution is not expanding")
    a = _letter_index(s, a)
    if isinstance(word, str):
        word = s.alphabet.encode(word)
    word = tuple(int(i) for i in word)
    if len(word) < 1:
        raise ValueError("word must be non-empty")
    for i in word:
        if not 0 <= i < len(s.alphabet):
            raise ParseError(f"letter index {i} out of range")
    if len(word) == 1:
        vec, _ = letter_frequencies(s, a, tol=tol, max_iter=max_iter)
        return vec[word[0]]
    power = stabilizing_power(s)
    zs = s.power(power) if power > 1 else s
    fa = factor_alphabet(zs, len(word))
    if word not in fa:
        return 0.0
    return _blow_up_limit(s, zs, a, len(word), tol, max_iter, fa)[word]
