"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 is implemented exactly as stated.  Four starting vectors of the
8x8 fixture have an equal-eigenvalue chain (growth degree 1): their raw
normalized iterates approach the limit only at rate 1/t, with an eigenvalue
estimate biased by about lam/t.  ``normalized_limit`` reads those limits off
one pass over the blocks, without a step, so the criterion is met.  The
companion test directly below it checks the same starts through the cached
runs of ``deep_runs_m8``.
"""

import math
import random

from conftest import (count_occurrences_str, lstsq, mat_pow_apply, nnls,
                      random_pb_frobenius_expanding, record_criterion)
from subperron import (
    ExactMatrix,
    block_eigenvalues,
    blow_up,
    dominant_interior_contains,
    eigencone_membership,
    factor_frequencies,
    frequency_table,
    growth_type,
    kirchhoff_check,
    normalized_limit,
    power_eigenvector_lift,
    principal_blocks,
    principal_eigenvector,
    scc_blocks,
    stabilizing_power,
)
from subperron.spectral import float_matvec, l1_dist

LAM_A = 2 + math.sqrt(2)
LAM_B = (3 + math.sqrt(5)) / 2
F_AB = (3 - math.sqrt(5)) / 2
F_AA = math.sqrt(5) - 2


def e(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


def exact_normalized_iterate(m, v0, t):
    w = mat_pow_apply(m, v0, t)
    total = sum(w)
    shift = max(0, total.bit_length() - 500)
    den = float(total >> shift)
    return [float(x >> shift) / den for x in w]


def test_criterion_1_golden_fixture(m8, dec8, eig8):
    """Block decomposition, eigenvalues, growth degrees, dependencies and
    dominant interiors of the 8x8 fixture."""
    ok = dec8.num_blocks == 4 and [
        stop - start for start, stop in dec8.spans] == [2, 2, 2, 2]
    ok = ok and dec8.order == frozenset(
        {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)})
    ok = ok and abs(eig8[0] - LAM_A) <= 1e-9 and abs(eig8[2] - LAM_A) <= 1e-9
    ok = ok and abs(eig8[1] - LAM_B) <= 1e-9 and abs(eig8[3] - LAM_B) <= 1e-9
    degrees = [growth_type(dec8, eig8, i).degree for i in range(4)]
    ok = ok and degrees == [1, 1, 0, 0]
    ok = ok and [set(d) for d in dec8.dependency] == [
        {1, 2, 3}, {3}, {3}, set()]

    def indicator(blocks):
        v = [0.0] * 8
        for b in blocks:
            for idx in dec8.members(b):
                v[idx] = 1.0
        return v

    interiors = [
        # (cone, member vector blocks, True/False)
        ({0, 1, 2, 3}, {0, 2}, True),
        ({0, 1, 2, 3}, {0, 1, 2, 3}, True),
        ({0, 1, 2, 3}, {0, 1, 3}, False),
        ({1, 3}, {1, 3}, True),
        ({1, 3}, {1}, False),
        ({1, 3}, {3}, False),
        ({2, 3}, {2}, True),
        ({2, 3}, {3}, False),
        ({3}, {3}, True),
        ({1, 2, 3}, {2}, True),
        ({1, 2, 3}, {1, 3}, False),
    ]
    for cone, support, expected in interiors:
        ok = ok and dominant_interior_contains(
            dec8, eig8, cone, indicator(support)) is expected
    record_criterion(1, ok, "8x8 golden fixture: blocks, eigenvalues, "
                            "growth, dependencies, dominant interiors")
    assert ok


def test_criterion_2_convergence_as_stated(m8):
    """Every coordinate vector: converged, residual <= 1e-8, eigenvalue
    within 1e-8, all within 5000 iterations.  Unattainable as stated for
    e_1..e_4 (1/t convergence); kept faithful, expected RED."""
    failures = []
    for i in range(8):
        rep = normalized_limit(m8, e(8, i), tol=1e-9, max_iter=5000)
        eig_err = min(abs(rep.eigenvalue - LAM_A), abs(rep.eigenvalue - LAM_B))
        if not (rep.converged and rep.residual <= 1e-8 and eig_err <= 1e-8):
            failures.append(
                f"e_{i + 1}: converged={rep.converged} "
                f"residual={rep.residual:.2e} eigenvalue_error={eig_err:.2e}")
    detail = ("convergence at desk scale, 5000-iteration budget"
              if not failures else
              "unattainable for slow starts (1/t rate): " + "; ".join(failures))
    record_criterion(2, not failures, detail)
    assert not failures, (
        "criterion 2 is numerically unattainable as stated for starting "
        "vectors whose trajectory growth carries a polynomial factor "
        "(see the module docstring and the companion test): "
        + "; ".join(failures))


def test_criterion_2_companion_attainable_rates(m8, deep_runs_m8):
    """The same convergence statement at the rates the fixture admits:
    residual <= 1e-8 within 23000 iterations, spectral eigenvalue of the
    trajectory growth type within 1e-9 of the exact block eigenvalues."""
    for i in (4, 5, 6, 7):
        rep = normalized_limit(m8, e(8, i), tol=1e-9, max_iter=5000)
        assert rep.converged and rep.residual <= 1e-8
        assert min(abs(rep.eigenvalue - LAM_A),
                   abs(rep.eigenvalue - LAM_B)) <= 1e-8
    for i in (0, 1, 2, 3):
        rep = deep_runs_m8[i]
        assert rep.converged, f"e_{i+1} did not settle within 23000 iterations"
        assert rep.residual <= 1e-8
        assert min(abs(rep.growth.lam - LAM_A),
                   abs(rep.growth.lam - LAM_B)) <= 1e-9
        # loose: criterion 2 holds these starts to 1e-8
        assert min(abs(rep.eigenvalue - LAM_A),
                   abs(rep.eigenvalue - LAM_B)) <= 1e-3


def test_criterion_3_exact_oracle_equivalence(random_corpus_200):
    """Normalized-iterate engine versus the exact big-integer iterate at
    t = 400, l1-normalized, on 200 random expanding PB-Frobenius
    matrices."""
    rng = random.Random(424242)
    worst = 0.0
    for m in random_corpus_200:
        v0 = [rng.randint(0, 2) for _ in range(m.n)]
        if not any(v0):
            v0[rng.randrange(m.n)] = 1
        rep = normalized_limit(m, v0, tol=0.0, max_iter=400)
        expected = exact_normalized_iterate(m, v0, 400)
        worst = max(worst, l1_dist(rep.limit, expected))
    ok = worst <= 1e-6
    record_criterion(3, ok, f"engine vs exact iterate at t=400 on 200 "
                            f"random matrices, worst l1 distance {worst:.2e}")
    assert ok


def nullspace(a, tol: float = 1e-9) -> list[list[float]]:
    """Basis of the (numerical) null space of ``a`` via row reduction."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(map(float, row)) for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = max(range(r, rows), key=lambda i: abs(m[i][c]), default=None)
        if piv is None or abs(m[piv][c]) <= tol:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1.0 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and abs(m[i][c]) > 0.0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [0.0] * cols
        v[f] = 1.0
        for row_idx, pc in enumerate(pivots):
            v[pc] = -m[row_idx][f]
        basis.append(v)
    return basis


def _eigenvector_candidates(m, lam):
    """Non-negative eigenvector candidates from direct eigen-analysis:
    null-space basis of (M - lam I) plus coordinate projections, filtered
    by non-negativity and a verified eigen-residual."""
    n = m.n
    a = [[float(m.entries[r][c]) - (lam if r == c else 0.0)
          for c in range(n)] for r in range(n)]
    basis = nullspace(a, tol=1e-9)
    if not basis:
        return []
    raw = [list(v) for v in basis]
    if len(basis) >= 2:
        cols = [[basis[j][r] for j in range(len(basis))] for r in range(n)]
        for i in range(n):
            target = [1.0 if r == i else 0.0 for r in range(n)]
            coeffs = lstsq(cols, target)
            raw.append([sum(basis[j][r] * coeffs[j] for j in range(len(basis)))
                        for r in range(n)])
    candidates = []
    for v in raw:
        peak = max(v, key=abs)
        if peak == 0.0:
            continue
        if peak < 0:
            v = [-x for x in v]
        if min(v) < -1e-9:
            continue
        v = [x if x > 1e-9 else 0.0 for x in v]
        norm = sum(v)
        if norm < 1e-9:
            continue
        v = [x / norm for x in v]
        if l1_dist(float_matvec(m, v), [lam * x for x in v]) <= 1e-9:
            candidates.append(tuple(v))
    return candidates


def test_criterion_4_eigencone_brute_force(random_corpus_200):
    """Every non-negative eigenvector candidate found by direct
    eigen-analysis lies in the principal-eigenvector cone of its
    eigenvalue, and every principal eigenvector satisfies M v = lam v."""
    checked_candidates = 0
    checked_principal = 0
    ok = True
    for m in random_corpus_200:
        dec = scc_blocks(m)
        eig = block_eigenvalues(m, dec)
        lams = []
        for lam in eig:
            if lam >= 1.0 and all(abs(lam - seen) > 1e-9 for seen in lams):
                lams.append(lam)
        for lam in lams:
            for v in _eigenvector_candidates(m, lam):
                checked_candidates += 1
                if not eigencone_membership(m, dec, eig, v, lam, tol=1e-8):
                    ok = False
        for i in sorted(principal_blocks(dec, eig)):
            pe = principal_eigenvector(m, dec, eig, i)
            checked_principal += 1
            mass = sum(pe.vector)
            vn = [x / mass for x in pe.vector]
            resid = l1_dist(float_matvec(m, vn),
                            [pe.eigenvalue * x for x in vn])
            if resid > 1e-9:
                ok = False
    record_criterion(
        4, ok, f"eigencone membership of {checked_candidates} candidates, "
               f"eigen-equation of {checked_principal} principal vectors")
    assert ok
    assert checked_candidates >= 200 and checked_principal >= 200


def _nnls_verdict(m, dec, eig, v, lam, tol):
    """The NNLS-projection verdict: ``v`` is within l1 distance ``tol`` of
    its non-negative least-squares projection onto the principal
    eigenvectors of root ``lam``."""
    cols = [principal_eigenvector(m, dec, eig, i).vector
            for i in sorted(principal_blocks(dec, eig))
            if abs(eig[i] - lam) <= 1e-9 * max(1.0, lam)]
    if not cols:
        return False
    a = [[col[r] for col in cols] for r in range(m.n)]
    coeffs = nnls(a, list(v))
    proj = [sum(a[r][j] * coeffs[j] for j in range(len(cols)))
            for r in range(m.n)]
    return l1_dist(proj, v) <= tol


def test_eigencone_read_off_matches_nnls(random_corpus_200, case3_matrix):
    """The block read-off of ``eigencone_membership`` gives the verdict of
    an NNLS projection: in, on criterion 4's eigenvector candidates and on
    random non-negative mixes of the principal eigenvectors of one root;
    out, on those mixes with ``10 * tol`` of mass moved to a coordinate
    outside every generator's support."""
    tol = 1e-8
    for m in random_corpus_200:
        dec = scc_blocks(m)
        eig = block_eigenvalues(m, dec)
        for lam in sorted({x for x in eig if x >= 1.0}):
            for v in _eigenvector_candidates(m, lam):
                assert eigencone_membership(m, dec, eig, v, lam, tol=tol)
                assert _nnls_verdict(m, dec, eig, v, lam, tol)
    rng = random.Random(7)
    matrices = [case3_matrix] + [
        random_pb_frobenius_expanding(rng) for _ in range(100)]
    mixes = outside = 0
    for m in matrices:
        dec = scc_blocks(m)
        eig = block_eigenvalues(m, dec)
        principal = sorted(principal_blocks(dec, eig))
        for lam in sorted({eig[i] for i in principal}):
            gens = [principal_eigenvector(m, dec, eig, i).vector
                    for i in principal if eig[i] == lam]
            support = {r for g in gens for r in range(m.n) if g[r] > 0.0}
            for _ in range(3):
                coeffs = [rng.random() for _ in gens]
                mix = [sum(c * g[r] for c, g in zip(coeffs, gens))
                       for r in range(m.n)]
                total = sum(mix)
                mix = [x / total for x in mix]
                assert eigencone_membership(m, dec, eig, mix, lam, tol=tol)
                assert _nnls_verdict(m, dec, eig, mix, lam, tol)
                mixes += 1
                free = [r for r in range(m.n) if r not in support]
                if not free:
                    continue
                # take 10 * tol of mass off the largest coordinate
                moved = list(mix)
                moved[max(range(m.n), key=mix.__getitem__)] -= 10 * tol
                moved[rng.choice(free)] += 10 * tol
                assert not eigencone_membership(m, dec, eig, moved, lam,
                                                tol=tol)
                assert not _nnls_verdict(m, dec, eig, moved, lam, tol)
                outside += 1
    assert mixes >= 400 and outside >= 300


def test_criterion_5_case1_series_identity(m8, dec8, eig8):
    """Principal-eigenvector linear solve equals the truncated geometric
    series (depth 60) on the designated fixtures."""
    fixtures = []
    m_a = ExactMatrix([[3, 0], [1, 2]])
    dec_a = scc_blocks(m_a)
    fixtures.append((m_a, dec_a, block_eigenvalues(m_a, dec_a),
                     dec_a.block_of(0)))
    m_b = ExactMatrix([[2, 0], [1, 2]])
    dec_b = scc_blocks(m_b)
    fixtures.append((m_b, dec_b, block_eigenvalues(m_b, dec_b),
                     dec_b.block_of(1)))
    fixtures.append((m8, dec8, eig8, 3))
    worst = 0.0
    for m, dec, eig, block in fixtures:
        pe = principal_eigenvector(m, dec, eig, block)
        lam = pe.eigenvalue
        v_pf = [0.0] * m.n
        for idx in pe.pf_support:
            v_pf[idx] = pe.vector[idx]
        y = float_matvec(m, v_pf)
        u = [y[idx] if idx in pe.dependency_support else 0.0
             for idx in range(m.n)]
        series = [0.0] * m.n
        term = u[:]
        for k in range(61):
            for idx in range(m.n):
                series[idx] += term[idx] / lam ** (k + 1)
            term = float_matvec(m, term)
        w_solved = [pe.vector[idx] if idx in pe.dependency_support else 0.0
                    for idx in range(m.n)]
        worst = max(worst, l1_dist(series, w_solved))
    ok = worst <= 1e-9
    record_criterion(5, ok, f"linear solve vs series at depth 60, worst "
                            f"l1 gap {worst:.2e}")
    assert ok


def test_criterion_6_blow_up_frobenius_stability(corpus):
    """Blow-up incidence matrices at levels 2 and 3 stay PB-Frobenius after
    the stabilizing power, across the whole substitution corpus."""
    assert len(corpus) >= 10
    ok = True
    for name, s in corpus.items():
        power = stabilizing_power(s)
        p = s.power(power) if power > 1 else s
        for n in (2, 3):
            sn, _ = blow_up(p, n)
            if not scc_blocks(sn.incidence_matrix()).is_pb_frobenius():
                ok = False
    record_criterion(6, ok, f"blow-up stability over {len(corpus)} "
                            f"substitutions at levels 2 and 3")
    assert ok


def test_criterion_7_frequency_oracles(fib, thue_morse):
    """Length-2 frequencies versus exact sliding-window counts on words of
    length >= 10^6 (1e-3) and versus the blow-up eigenvector route (1e-8)."""

    def expand_to(s, letter, min_len):
        images = {ltr: s.alphabet.decode(img)
                  for ltr, img in zip(s.alphabet.letters, s.images)}
        w = letter
        while len(w) < min_len:
            w = "".join(images[ch] for ch in w)
        return w

    ok = True
    expected_fib = {"ab": F_AB, "ba": F_AB, "aa": F_AA}
    expected_tm = {"ab": 1 / 3, "ba": 1 / 3, "aa": 1 / 6, "bb": 1 / 6}
    for s, expected in ((fib, expected_fib), (thue_morse, expected_tm)):
        word = expand_to(s, "a", 10**6)
        assert len(word) >= 10**6
        route = {s.alphabet.decode(w): f
                 for w, f in factor_frequencies(s, "a", 2).items()}
        for u, value in expected.items():
            count_freq = count_occurrences_str(word, u) / len(word)
            if abs(count_freq - value) > 1e-3:
                ok = False
            if abs(route[u] - value) > 1e-8:
                ok = False
    record_criterion(7, ok, "fibonacci and thue-morse pair frequencies vs "
                            "counting (1e-3) and eigenvector route (1e-8)")
    assert ok


def test_criterion_8_kirchhoff_acceptance(corpus):
    """Every computed table with max_len = 3: Kirchhoff residual <= 1e-6
    and per-length sums equal to 1 within 1e-8."""
    cases = [
        ("fibonacci", "a"), ("thue_morse", "a"), ("aab_bb", "a"),
        ("ab_bbb", "a"), ("cyclic4", "a"), ("two_bottom", "t"),
        ("period_doubling", "a"), ("case3", "p"),
    ]
    ok = True
    worst_k = 0.0
    for name, base in cases:
        tab = frequency_table(corpus[name], base, max_len=3, tol=1e-6)
        report = kirchhoff_check(tab)
        worst_k = max(worst_k, report.max_residual)
        if not report.max_residual <= 1e-6:
            ok = False
        for n in (1, 2, 3):
            total = sum(f for w, f in tab.entries.items() if len(w) == n)
            if abs(total - 1.0) > 1e-8:
                ok = False
    record_criterion(8, ok, f"Kirchhoff residual <= 1e-6 on {len(cases)} "
                            f"tables (worst {worst_k:.2e}), sums 1 +/- 1e-8")
    assert ok


def test_criterion_9_power_eigenvector_lift(m8, case3_matrix,
                                            random_corpus_200):
    """Principal eigenvectors of M^k (k = 2, 3) are eigenvectors of M
    itself, with residual <= 1e-8."""
    matrices = [
        ExactMatrix([[1, 1], [1, 0]]),
        ExactMatrix([[2, 0], [1, 2]]),
        ExactMatrix([[3, 0], [1, 2]]),
        m8,
        case3_matrix,
    ] + random_corpus_200[:40]
    ok = True
    checked = 0
    for m in matrices:
        for k in (2, 3):
            mk = m.pow(k)
            deck = scc_blocks(mk)
            eigk = block_eigenvalues(mk, deck)
            for i in sorted(principal_blocks(deck, eigk)):
                pe = principal_eigenvector(mk, deck, eigk, i)
                checked += 1
                if not power_eigenvector_lift(m, k, pe.vector, tol=1e-8):
                    ok = False
    record_criterion(9, ok, f"{checked} principal eigenvectors of k-th "
                            f"powers lift to the base matrix (<= 1e-8)")
    assert ok
    assert checked >= 90


def test_criterion_10_case_sensitivity(case3_matrix, m8, deep_runs_m8):
    """The case-3 fixture has start-dependent limits (>= 0.1 apart); all
    case-1/case-2 fixtures have start-independent limits (within 1e-8)."""
    ok = True
    # case 3: a power-bounded 2-cycle feeding two independent eigenvalue-3
    # blocks; the two top coordinates weight the blocks 3:1 versus 1:3
    rep_p = normalized_limit(case3_matrix, e(6, 0), tol=1e-10)
    rep_q = normalized_limit(case3_matrix, e(6, 1), tol=1e-10)
    gap = l1_dist(rep_p.limit, rep_q.limit)
    if not (rep_p.converged and rep_q.converged and gap >= 0.1):
        ok = False

    # case 1, single primitive block: all starts agree
    fib = ExactMatrix([[1, 1], [1, 0]])
    reps = [normalized_limit(fib, v, tol=1e-10)
            for v in ((1, 0), (0, 1), (1, 2))]
    for rep in reps[1:]:
        if l1_dist(rep.limit, reps[0].limit) > 1e-8:
            ok = False

    # case 1 and case 2 with one-dimensional top cones: scaling invariance
    for rows, starts in ((((3, 0), (1, 2)), ((1, 0), (3, 0))),
                         (((2, 0), (1, 2)), ((1, 0), (5, 0)))):
        m = ExactMatrix([list(r) for r in rows])
        a = normalized_limit(m, starts[0], tol=1e-6)
        b = normalized_limit(m, starts[1], tol=1e-6)
        if l1_dist(a.limit, b.limit) > 1e-8:
            ok = False

    # case 2 with two-dimensional block cones: distinct starts inside the
    # same block still share their limit (the cached deep runs)
    gap12 = l1_dist(deep_runs_m8[0].limit, deep_runs_m8[1].limit)
    gap34 = l1_dist(deep_runs_m8[2].limit, deep_runs_m8[3].limit)
    if gap12 > 1e-8 or gap34 > 1e-8:
        ok = False

    record_criterion(
        10, ok, f"case-3 limits differ by {gap:.3f} >= 0.1; case-1/2 "
                f"limits agree (worst {max(gap12, gap34):.2e} <= 1e-8)")
    assert ok
