"""Growth types, the convergence engine, and principal-eigenvector theory."""

import math
import random
from fractions import Fraction

import pytest

from subperron import (
    ExactMatrix,
    MaxIterError,
    NotExpandingError,
    NotPBFrobeniusError,
    NotPrincipalError,
    ZeroColumnError,
    block_eigenvalues,
    classify_limit_case,
    dominant_interior_contains,
    eigencone_membership,
    frequency_table,
    growth_type,
    normalized_limit,
    pf_eigen_block,
    power_eigenvector_lift,
    principal_blocks,
    principal_eigenvector,
    scc_blocks,
)
from subperron.errors import SingularSystemError
from subperron.spectral import (
    _Trajectory,
    float_matvec,
    l1_dist,
    trajectory_growth,
)

from conftest import (limit_reference, mat_pow_apply,
                      random_pb_frobenius_expanding)

PHI = (1 + math.sqrt(5)) / 2
LAM_A = 2 + math.sqrt(2)
LAM_B = (3 + math.sqrt(5)) / 2


#: two 1x1 heads of root 10, both fed by a root-9 start (e_3)
TWO_HEADS = ExactMatrix([[10, 0, 1], [0, 10, 1], [0, 0, 9]])
#: two Fibonacci blocks, both fed by a root-1 start (e_5)
TWO_FIBONACCI = ExactMatrix([[1, 1, 0, 0, 1], [1, 0, 0, 0, 0],
                             [0, 0, 1, 1, 1], [0, 0, 1, 0, 0],
                             [0, 0, 0, 0, 1]])
#: two 2x2 blocks of root 2 whose left and right PF vectors differ, each
#: fed at its first coordinate by a root-1 start (e_5)
TWO_SKEWED = ExactMatrix([[1, 2, 0, 0, 1], [1, 0, 0, 0, 0],
                          [0, 0, 0, 1, 1], [0, 0, 2, 1, 0],
                          [0, 0, 0, 0, 1]])


def e(n, i):
    v = [0] * n
    v[i] = 1
    return tuple(v)


def force_singular_pass(monkeypatch):
    """Every block pass raises the ``SingularSystemError`` of a singular
    block solve, so each run at ``tol > 0`` is refused."""
    import subperron.spectral as spectral

    def singular(*args):
        raise SingularSystemError("pivot 0.0 below tolerance")

    monkeypatch.setattr(spectral, "_block_pass", singular)


def analysis(rows):
    m = ExactMatrix(rows)
    dec = scc_blocks(m)
    return m, dec, block_eigenvalues(m, dec)


class TestPfEigenBlock:
    def test_eight_by_eight_pf_blocks(self, m8, dec8):
        lam0, vec0 = pf_eigen_block(m8, dec8, 0)
        assert lam0 == pytest.approx(LAM_A, abs=1e-11)
        lam1, _ = pf_eigen_block(m8, dec8, 1)
        assert lam1 == pytest.approx(LAM_B, abs=1e-11)
        assert sum(vec0) == pytest.approx(1.0, abs=1e-12)
        assert all(x > 0 for x in vec0)

    def test_zero_block(self):
        m, dec, _ = analysis([[0, 0], [1, 2]])
        i = next(k for k in range(2) if dec.members(k) == (0,))
        lam, vec = pf_eigen_block(m, dec, i)
        assert lam == 0.0
        assert vec == (1.0,)

    def test_rejects_cyclic_block(self):
        m, dec, _ = analysis([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            pf_eigen_block(m, dec, 0)

    def test_eigen_equation_holds(self, m8, dec8):
        for i in range(4):
            lam, vec = pf_eigen_block(m8, dec8, i)
            sub = m8.submatrix(dec8.members(i))
            image = [sum(sub.entries[r][c] * vec[c] for c in range(sub.n))
                     for r in range(sub.n)]
            assert l1_dist(image, [lam * x for x in vec]) < 1e-10


class TestGrowthType:
    def test_eight_by_eight_degrees(self, dec8, eig8):
        types = [growth_type(dec8, eig8, i) for i in range(4)]
        assert [t.degree for t in types] == [1, 1, 0, 0]
        assert types[0].lam == pytest.approx(LAM_A, abs=1e-10)
        assert types[1].lam == pytest.approx(LAM_B, abs=1e-10)
        assert types[2].lam == pytest.approx(LAM_A, abs=1e-10)
        assert types[3].lam == pytest.approx(LAM_B, abs=1e-10)

    def test_zero_block_degree_zero(self):
        _, dec, eig = analysis([[0]])
        assert growth_type(dec, eig, 0) == (0.0, 0)

    def test_cone_growth_types(self, dec8, eig8):
        # an invariant cone grows as the trajectories started on its members
        def cone_growth(blocks):
            return trajectory_growth(
                dec8, eig8, [i for b in blocks for i in dec8.members(b)])

        full = cone_growth({0, 1, 2, 3})
        assert full.lam == pytest.approx(LAM_A, abs=1e-10)
        assert full.degree == 1
        # the eigenvalue-maximal chain inside {B_2, B_3, B_4} is B_3 alone
        extra = cone_growth({1, 2, 3})
        assert extra.lam == pytest.approx(LAM_A, abs=1e-10)
        assert extra.degree == 0
        with pytest.raises(ValueError, match="not invariant"):
            dominant_interior_contains(dec8, eig8, {0}, [0.0] * 8)


class TestDominantInterior:
    def test_eight_by_eight_cones(self, dec8, eig8):
        def indicator(blocks):
            v = [0.0] * 8
            for b in blocks:
                for idx in dec8.members(b):
                    v[idx] = 1.0
            return v

        full = {0, 1, 2, 3}
        # interior of the full cone requires positivity on blocks 1 and 3
        assert dominant_interior_contains(dec8, eig8, full, indicator({0, 2}))
        assert dominant_interior_contains(dec8, eig8, full, indicator(full))
        assert not dominant_interior_contains(dec8, eig8, full, indicator({0}))
        assert not dominant_interior_contains(
            dec8, eig8, full, indicator({0, 1, 3}))
        # cone B_2 + C(B_2): interior needs positivity on both blocks
        cone2 = {1, 3}
        assert dominant_interior_contains(dec8, eig8, cone2, indicator({1, 3}))
        assert not dominant_interior_contains(dec8, eig8, cone2, indicator({1}))
        assert not dominant_interior_contains(dec8, eig8, cone2, indicator({3}))
        # cone B_3 + C(B_3): interior needs positivity on block 3 only
        cone3 = {2, 3}
        assert dominant_interior_contains(dec8, eig8, cone3, indicator({2}))
        assert not dominant_interior_contains(dec8, eig8, cone3, indicator({3}))
        # cone B_4 alone
        assert dominant_interior_contains(dec8, eig8, {3}, indicator({3}))
        # the extra invariant cone B_2 + B_3 + B_4
        cone_extra = {1, 2, 3}
        assert dominant_interior_contains(dec8, eig8, cone_extra, indicator({2}))
        assert not dominant_interior_contains(
            dec8, eig8, cone_extra, indicator({1, 3}))

    def test_full_cone_of_primitive(self):
        _, dec, eig = analysis([[1, 1], [1, 0]])
        assert dominant_interior_contains(dec, eig, {0}, [0.5, 0.5])
        assert not dominant_interior_contains(dec, eig, {0}, [1.0, 0.0])

    def test_empty_cone_contains_nothing(self, dec8, eig8):
        assert dominant_interior_contains(dec8, eig8, set(), [0.0] * 8) is False

    def test_rejects_non_invariant_cone(self, dec8, eig8):
        with pytest.raises(ValueError):
            dominant_interior_contains(dec8, eig8, {0}, [1.0] * 8)


class TestNormalizedLimit:
    def test_fibonacci(self):
        m = ExactMatrix([[1, 1], [1, 0]])
        rep = normalized_limit(m, e(2, 0))
        assert rep.converged
        assert rep.limit[0] == pytest.approx(PHI - 1, abs=1e-9)
        assert rep.limit[1] == pytest.approx(2 - PHI, abs=1e-9)
        assert rep.eigenvalue == pytest.approx(PHI, abs=1e-9)
        assert rep.growth.lam == pytest.approx(PHI, abs=1e-10)
        assert rep.growth.degree == 0

    def test_equal_eigenvalue_chain_is_slow_but_correct(self):
        m = ExactMatrix([[2, 0], [1, 2]])
        rep = normalized_limit(m, e(2, 0), tol=1e-6)
        assert rep.converged
        assert rep.limit[1] == pytest.approx(1.0, abs=2e-3)
        assert rep.eigenvalue == pytest.approx(2.0, abs=2e-3)
        assert rep.growth == (2.0, 1)

    def test_polynomial_growth_limit_matches_richardson_oracle(self, m8):
        # e_1..e_4 have growth degree 1, so the exact iterate x_t comes
        # within c/t of the limit; the Richardson value 2 x_8000 - x_4000 of
        # the exact big-integer iterates cancels that term and leaves an
        # O(1/t**2) gap, about 1e-7 here
        def exact_snapshot(v0, t):
            w = mat_pow_apply(m8, v0, t)
            total = sum(w)
            shift = max(0, total.bit_length() - 500)
            return [float(x >> shift) / float(total >> shift) for x in w]

        for i in range(4):
            rep = normalized_limit(m8, e(8, i), tol=1e-9)
            assert rep.converged and rep.growth.degree == 1
            oracle = [2 * a - b for a, b in zip(exact_snapshot(e(8, i), 8000),
                                                exact_snapshot(e(8, i), 4000))]
            assert l1_dist(rep.limit, oracle) <= 1e-6, i

    def test_near_tie_is_not_read_as_a_chain(self):
        # the 2x2 blocks' roots 10**10 + 1 and 10**10 tie within EIG_TOL, so
        # the growth degree is 1, but there is no Jordan chain: the block
        # pass gives (0, 0, 1/2, 1/2), an eigenvector of 10**10, while the
        # iterate leaves it only as (1 - 1e-10)**t dies out; the pass must
        # be refused, at once, for its root gap
        h = 5 * 10**9
        m = ExactMatrix([[h, h + 1, 0, 0], [h + 1, h, 0, 0],
                         [1, 0, h, h], [0, 0, h, h]])
        rep = normalized_limit(m, e(4, 0), tol=1e-6, max_iter=200)
        assert rep.growth.degree == 1
        assert not rep.converged and rep.iterations == 0
        assert "root gap |lam_hat - lam| 1.000e+00" in rep.diagnostic

    def test_dominated_start(self):
        m = ExactMatrix([[1, 0], [1, 3]])
        rep = normalized_limit(m, e(2, 0))
        assert rep.converged
        assert rep.limit == pytest.approx((0.0, 1.0), abs=1e-9)
        assert rep.eigenvalue == pytest.approx(3.0, abs=1e-9)

    def test_eigen_residual_recompute(self, m8):
        rep = normalized_limit(m8, e(8, 4), tol=1e-10)
        y = float_matvec(m8, rep.limit)
        recomputed = l1_dist(y, [rep.eigenvalue * x for x in rep.limit])
        assert abs(recomputed - rep.residual) <= 2e-10

    def test_eigenvalue_matches_growth_lambda_fast(self, m8):
        # fast trajectories: iteration eigenvalue agrees with the spectral one
        for i in (4, 5, 6, 7):
            rep = normalized_limit(m8, e(8, i), tol=1e-10)
            assert rep.converged
            assert abs(rep.eigenvalue - rep.growth.lam) <= 10 * 1e-10

    def test_eigenvalue_error_scales_like_one_over_t(self):
        # on an equal-eigenvalue chain the eigenvalue estimate carries a
        # bias close to lam * degree / t
        m = ExactMatrix([[2, 0], [1, 2]])
        rep = normalized_limit(m, e(2, 0), tol=0.0, max_iter=4000)
        assert not rep.converged
        assert rep.eigenvalue - 2.0 == pytest.approx(2.0 / 4000, rel=0.1)

    def test_budget_exhaustion_returns_final_iterate(self, monkeypatch):
        # at tol 0 the run takes exactly its budget and reports that iterate
        rep = normalized_limit(TWO_HEADS, e(3, 2), tol=0, max_iter=100)
        assert not rep.converged
        assert rep.iterations == 100
        assert "max_iter=100 reached" in rep.diagnostic
        w = mat_pow_apply(TWO_HEADS, e(3, 2), 100)
        assert l1_dist(rep.limit, [x / sum(w) for x in w]) < 1e-15
        # at tol > 0 a pass with a singular block solve is refused at once
        force_singular_pass(monkeypatch)
        rep = normalized_limit(TWO_HEADS, e(3, 2), tol=1e-12, max_iter=100)
        assert not rep.converged and rep.iterations == 0
        assert "a block solve is singular" in rep.diagnostic
        assert rep.limit == (0.0, 0.0, 1.0)

    def test_budget_stop_reports_final_step_values(self, m8, aab_bb,
                                                   monkeypatch):
        # a run that stops on budget, or is refused, reports the residual
        # and eigen-estimate of the vector it returns
        def measured(m, x):
            y = float_matvec(m, x)
            lam = sum(y)
            return lam, l1_dist(y, [lam * c for c in x])

        for m, v0 in ((m8, e(8, 0)), (TWO_HEADS, e(3, 2))):
            rep = normalized_limit(m, v0, tol=0, max_iter=50)
            assert not rep.converged and rep.iterations == 50
            assert (rep.eigenvalue, rep.residual) == measured(m, rep.limit)
        force_singular_pass(monkeypatch)
        rep = normalized_limit(TWO_HEADS, e(3, 2), tol=1e-3, max_iter=50)
        assert not rep.converged and rep.iterations == 0
        assert (rep.eigenvalue, rep.residual) == measured(TWO_HEADS, rep.limit)

        with pytest.raises(MaxIterError) as exc_info:
            frequency_table(aab_bb, "a", max_len=3, tol=0, max_iter=50)
        table = exc_info.value.partial
        assert table.iterations == 50
        m1 = aab_bb.power(table.power_used).incidence_matrix()
        x1 = [table.entries[(i,)] for i in range(m1.n)]
        assert table.growth_rate == measured(m1, x1)[0]

    def test_residual_once_per_run(self, monkeypatch):
        # the residual's float matvec runs once per run: after the block
        # pass, after a refused one, or after the last step at tol 0
        import subperron.spectral as spectral

        calls = []
        matvec = spectral.float_matvec

        def counting(m, x):
            calls.append(None)
            return matvec(m, x)

        monkeypatch.setattr(spectral, "float_matvec", counting)
        cases = [(m, v0, tol) for m, v0 in ((TWO_HEADS, e(3, 2)),
                                            (TWO_FIBONACCI, e(5, 4)))
                 for tol in (1e-10, 1e-6)]
        for m, v0, tol in cases:
            calls.clear()
            rep = normalized_limit(m, v0, tol=tol)
            assert rep.converged and rep.iterations == 0
            assert len(calls) == 1
        for m, v0, _ in cases:
            calls.clear()
            rep = normalized_limit(m, v0, tol=0, max_iter=200)
            assert rep.iterations == 200 and len(calls) == 1
        force_singular_pass(monkeypatch)
        for m, v0, tol in cases:
            calls.clear()
            rep = normalized_limit(m, v0, tol=tol)
            assert not rep.converged and len(calls) == 1

    def test_rejects_imprimitive(self, antidiag4):
        with pytest.raises(NotPBFrobeniusError):
            normalized_limit(antidiag4, e(4, 0))

    def test_rejects_non_expanding(self):
        with pytest.raises(NotExpandingError):
            normalized_limit(ExactMatrix([[1, 0], [0, 2]]), (1, 1))

    def test_rejects_bad_start(self):
        m = ExactMatrix([[1, 1], [1, 0]])
        with pytest.raises(ValueError):
            normalized_limit(m, (0, 0))

    def test_engine_matches_exact_iterate(self, m8):
        # the rescaled integer engine reproduces the pristine exact iterate
        v0 = (1, 0, 2, 0, 0, 1, 0, 0)
        traj = _Trajectory(m8, v0)
        for _ in range(400):
            traj.step()
        exact = mat_pow_apply(m8, v0, 400)
        total = sum(exact)
        expected = [x / total for x in exact]
        # exact coordinates are huge; normalize via integer shift
        shift = max(0, total.bit_length() - 500)
        denominator = float(total >> shift)
        expected = [float(x >> shift) / denominator for x in exact]
        assert l1_dist(traj.x, expected) < 1e-12

    def test_rescale_keeps_the_smallest_coordinate(self):
        # a rescale that kept 64 bits below the largest coordinate would
        # shift the second one to 0 at t = 64 and return (1, 0); the
        # iterate at t = 400 is still (5.9e-11, 1 - 5.9e-11)
        m = ExactMatrix([[2, 0], [0, 3]])
        rep = normalized_limit(m, (2**200, 1), tol=0, max_iter=400)
        w = mat_pow_apply(m, (2**200, 1), 400)
        exact = [float(Fraction(x, sum(w))) for x in w]
        assert l1_dist(rep.limit, exact) <= 1e-15


class TestBlockPass:
    """Every start takes the block pass without a step, with one head or
    several, at growth degree 0 or above, and lies within ``tol`` of
    ``limit_reference``, which shares no code with the package."""

    @pytest.fixture(scope="class")
    def matrices(self, m8):
        # the first 120 matrices of the seed-7 generator hold 6 unit starts
        # with two 1x1 heads (matrices 103 and 114); the e_5 of TWO_FIBONACCI
        # and of TWO_SKEWED have two 2x2 heads, those of TWO_SKEWED weighed
        # by their left PF vectors
        rng = random.Random(7)
        return [m8, TWO_HEADS, TWO_FIBONACCI, TWO_SKEWED] + [
            random_pb_frobenius_expanding(rng) for _ in range(120)]

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-14])
    def test_every_start_takes_the_block_pass(self, matrices, tol):
        counts = {"starts": 0, "two heads": 0, "degree": 0}
        for m in matrices:
            dec = scc_blocks(m)
            eig = block_eigenvalues(m, dec)
            principal = principal_blocks(dec, eig)
            for i in range(m.n):
                rep = normalized_limit(m, e(m.n, i), tol=tol, dec=dec,
                                       eigenvalues=eig)
                b = dec.block_of(i)
                lam = rep.growth.lam
                heads = [c for c in principal & {b, *dec.dependency[b]}
                         if abs(eig[c] - lam) <= 1e-9 * lam]
                counts["starts"] += 1
                counts["two heads"] += len(heads) >= 2
                counts["degree"] += rep.growth.degree > 0
                assert rep.converged and rep.iterations == 0, (m.rows, i)
                reference = limit_reference(m.entries, e(m.n, i))
                assert l1_dist(rep.limit, reference) <= tol, (m.rows, i)
        assert counts == {"starts": 503, "two heads": 9, "degree": 22}


class TestGrowthNormalizationBound:
    def test_trajectory_ratio_stabilizes(self, m8):
        # sup_t ||M^t v|| / h(t) stays bounded and flattens out
        cases = [
            (m8, e(8, 0)),
            (ExactMatrix([[2, 0], [1, 2]]), e(2, 0)),
            (ExactMatrix([[1, 1], [1, 0]]), e(2, 1)),
            (ExactMatrix([[1, 0], [1, 3]]), e(2, 0)),
        ]
        for m, v0 in cases:
            dec = scc_blocks(m)
            eig = block_eigenvalues(m, dec)
            growth = trajectory_growth(dec, eig, [i for i, c in enumerate(v0) if c])
            w = v0
            log_ratios = []
            for t in range(1, 401):
                w = m.apply(w)
                norm = sum(w)
                log_norm = math.log(norm >> max(0, norm.bit_length() - 53)) + \
                    max(0, norm.bit_length() - 53) * math.log(2)
                log_h = t * math.log(growth.lam) + growth.degree * math.log(t)
                log_ratios.append(log_norm - log_h)
            window = log_ratios[199:400]
            assert max(window) - min(window) <= math.log(1.5)

    def test_case2_normalization_constant(self):
        # ||M^t e_1|| / (2^t t) approaches 1/2 for the Jordan-like fixture
        m = ExactMatrix([[2, 0], [1, 2]])
        t = 2000
        w = mat_pow_apply(m, e(2, 0), t)
        norm = sum(w)  # = 2^t + t 2^(t-1)
        ratio = norm / (2**t * t)
        assert ratio == pytest.approx(0.5, abs=1e-3)


class TestClassifyLimitCase:
    def test_three_cases(self):
        m, dec, eig = analysis([[3, 0], [1, 2]])
        top = dec.block_of(0)
        assert classify_limit_case(dec, eig, top) == 1
        m, dec, eig = analysis([[2, 0], [1, 2]])
        assert classify_limit_case(dec, eig, dec.block_of(0)) == 2
        m, dec, eig = analysis([[1, 0], [1, 3]])
        assert classify_limit_case(dec, eig, dec.block_of(0)) == 3

    def test_eight_by_eight_cases(self, dec8, eig8):
        assert classify_limit_case(dec8, eig8, 0) == 2
        assert classify_limit_case(dec8, eig8, 1) == 2
        assert classify_limit_case(dec8, eig8, 2) == 1
        assert classify_limit_case(dec8, eig8, 3) == 1

    def test_compared_with_the_largest_feed_alone(self):
        # block 0 (root n + 1) feeds blocks of the exact roots n and n - 1;
        # EIG_TOL ties n + 1 to the 2x2 block's n - 1 but not to the 1x1
        # block's n, so a tie set over all that block 0 feeds would make
        # its case 2
        n = 2 * 10**9
        _, dec, eig = analysis([[n + 1, 0, 0, 0], [1, n, 0, 0],
                                [1, 0, 1, n - 2], [0, 0, n - 2, 1]])
        assert eig == (n + 1, n, n - 1)
        assert [classify_limit_case(dec, eig, i) for i in range(3)] == [1, 1, 1]
        assert principal_blocks(dec, eig) == {0, 1, 2}


class TestPrincipalBlocks:
    def test_eight_by_eight(self, dec8, eig8):
        assert principal_blocks(dec8, eig8) == {2, 3}

    def test_equal_chain_bottom_only(self):
        _, dec, eig = analysis([[2, 0], [1, 2]])
        bottom = dec.block_of(1)
        assert principal_blocks(dec, eig) == {bottom}

    def test_separated_both(self):
        _, dec, eig = analysis([[3, 0], [1, 2]])
        assert principal_blocks(dec, eig) == {0, 1}

    def test_zero_column_rejected(self):
        _, dec, eig = analysis([[0, 0], [0, 2]])
        with pytest.raises(ZeroColumnError):
            principal_blocks(dec, eig)


class TestPrincipalEigenvector:
    def test_separated_top_block(self):
        m, dec, eig = analysis([[3, 0], [1, 2]])
        pe = principal_eigenvector(m, dec, eig, dec.block_of(0))
        assert pe.eigenvalue == pytest.approx(3.0, abs=1e-10)
        ratio = pe.vector[1] / pe.vector[0]
        assert ratio == pytest.approx(1.0, abs=1e-10)

    def test_bottom_block_no_dependency(self):
        m, dec, eig = analysis([[2, 0], [1, 2]])
        pe = principal_eigenvector(m, dec, eig, dec.block_of(1))
        assert pe.vector == pytest.approx((0.0, 1.0), abs=1e-12)
        assert pe.dependency_support == ()

    def test_eight_by_eight_bottom(self, m8, dec8, eig8):
        pe = principal_eigenvector(m8, dec8, eig8, 3)
        lam, local = pf_eigen_block(m8, dec8, 3)
        assert pe.vector[:6] == pytest.approx((0.0,) * 6, abs=0.0)
        assert pe.vector[6] == pytest.approx(local[0], abs=1e-10)
        assert pe.vector[7] == pytest.approx(local[1], abs=1e-10)

    def test_pf_part_mass_one(self, m8, dec8, eig8):
        pe = principal_eigenvector(m8, dec8, eig8, 2)
        assert sum(pe.vector[i] for i in pe.pf_support) == pytest.approx(
            1.0, abs=1e-10)
        assert set(pe.dependency_support) == {6, 7}

    def test_not_principal_rejected(self, m8, dec8, eig8):
        with pytest.raises(NotPrincipalError):
            principal_eigenvector(m8, dec8, eig8, 0)

    def test_solve_equals_series(self, m8, dec8, eig8):
        # the dependency solve equals the geometric series sum; deep
        # truncation because the eigenvalue ratio here is only 0.77
        for block, depth in ((2, 250), (3, 60)):
            pe = principal_eigenvector(m8, dec8, eig8, block)
            lam = pe.eigenvalue
            v_pf = [0.0] * 8
            for idx in pe.pf_support:
                v_pf[idx] = pe.vector[idx]
            y = float_matvec(m8, v_pf)
            u = [y[idx] if idx in pe.dependency_support else 0.0
                 for idx in range(8)]
            series = [0.0] * 8
            term = u[:]
            for k in range(depth + 1):
                for idx in range(8):
                    series[idx] += term[idx] / lam ** (k + 1)
                term = float_matvec(m8, term)
            w_solved = [pe.vector[idx] if idx in pe.dependency_support else 0.0
                        for idx in range(8)]
            assert l1_dist(series, w_solved) < 1e-9


class TestEigencone:
    def test_unique_direction(self):
        m, dec, eig = analysis([[2, 0], [1, 2]])
        assert eigencone_membership(m, dec, eig, (0.0, 1.0), 2.0)
        assert not eigencone_membership(m, dec, eig, (0.5, 0.5), 2.0)

    def test_separated_direction(self):
        m, dec, eig = analysis([[3, 0], [1, 2]])
        assert eigencone_membership(m, dec, eig, (0.5, 0.5), 3.0)

    def test_no_matching_eigenvalue(self):
        m, dec, eig = analysis([[2, 0], [1, 2]])
        assert not eigencone_membership(m, dec, eig, (0.0, 1.0), 7.0)

    def test_distinct_1x1_roots_within_eig_tol(self):
        # both blocks are principal, and their roots 10**9 and 10**9 + 1
        # agree within EIG_TOL; each spans the cone of its own root alone
        m, dec, eig = analysis([[10**9, 0], [0, 10**9 + 1]])
        assert sorted(principal_blocks(dec, eig)) == [0, 1]
        assert not eigencone_membership(m, dec, eig, (0.0, 1.0), 1e9)
        assert not eigencone_membership(m, dec, eig, (1.0, 0.0), 1e9 + 1)
        assert eigencone_membership(m, dec, eig, (1.0, 0.0), 1e9)
        assert eigencone_membership(m, dec, eig, (0.0, 1.0), 1e9 + 1)

    def test_two_block_cone(self, case3_matrix):
        m = case3_matrix
        dec = scc_blocks(m)
        eig = block_eigenvalues(m, dec)
        # both primitive blocks have eigenvalue 3; any mix is in the cone
        mix = (0.0, 0.0, 0.25, 0.25, 0.25, 0.25)
        assert eigencone_membership(m, dec, eig, mix, 3.0)
        off = (0.5, 0.0, 0.25, 0.25, 0.0, 0.0)
        assert not eigencone_membership(m, dec, eig, off, 3.0)


class TestPowerEigenvectorLift:
    def test_fibonacci_power(self):
        m = ExactMatrix([[1, 1], [1, 0]])
        rep = normalized_limit(m, (1, 0))
        assert power_eigenvector_lift(m, 3, rep.limit, tol=1e-8)

    def test_jordan_like(self):
        m = ExactMatrix([[2, 0], [1, 2]])
        assert power_eigenvector_lift(m, 2, (0.0, 1.0), tol=1e-10)

    def test_eight_by_eight_square(self, m8):
        m2 = m8.pow(2)
        dec2 = scc_blocks(m2)
        eig2 = block_eigenvalues(m2, dec2)
        for i in sorted(principal_blocks(dec2, eig2)):
            pe = principal_eigenvector(m2, dec2, eig2, i)
            assert power_eigenvector_lift(m8, 2, pe.vector, tol=1e-8)

    def test_rejects_non_eigenvector(self):
        m = ExactMatrix([[2, 0], [1, 2]])
        with pytest.raises(ValueError):
            power_eigenvector_lift(m, 2, (0.5, 0.5))


class TestOracleEquivalence:
    def test_engine_vs_exact_on_random_sample(self):
        # spot check here; the full 200-matrix sweep runs in acceptance
        from conftest import random_pb_frobenius_expanding

        rng = random.Random(99)
        for _ in range(12):
            m = random_pb_frobenius_expanding(rng)
            v0 = [rng.randint(0, 2) for _ in range(m.n)]
            if not any(v0):
                v0[rng.randrange(m.n)] = 1
            rep = normalized_limit(m, v0, tol=0.0, max_iter=400)
            exact = mat_pow_apply(m, v0, 400)
            total = sum(exact)
            shift = max(0, total.bit_length() - 500)
            den = float(total >> shift)
            expected = [float(x >> shift) / den for x in exact]
            assert l1_dist(rep.limit, expected) < 1e-6
