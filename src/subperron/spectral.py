"""Growth types, the normalized-iterate convergence engine, and the
principal-eigenvector theory for matrices in PB-Frobenius form.

A limit and a principal eigenvector are both read off one pass over the
blocks (``_block_pass``): the leading Laurent coefficient of the resolvent
``(zI - M)**-1 v0`` at the top root ``lam``.  Growth types are the
functions ``lambda**t * t**d`` governing trajectory size.  At ``tol > 0`` a
limit whose pass fails its test is refused, with no step; only a run at
``tol = 0`` iterates, with exact integers.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from . import _linalg
from ._linalg import lsum
from .errors import (
    FloatRangeError,
    MaxIterError,
    NotExpandingError,
    NotPBFrobeniusError,
    NotPrincipalError,
    SingularSystemError,
    SubperronError,
    ZeroColumnError,
)
from .matrices import (BlockClass, BlockDecomposition, ExactMatrix,
                       _power_decomposition, scc_blocks)

#: relative tolerance used when comparing block eigenvalues for equality
EIG_TOL = 1e-9

#: Collatz-Wielandt bracket width certifying a PF eigenvalue
PF_BRACKET_WIDTH = 1e-12

#: residual bound of a principal eigenvector, relative to its root and norm
EIGVEC_TOL = 1e-9

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 20000

FloatVector = tuple[float, ...]


def check_budget(tol: float = 0.0, max_iter: int = 0,
                 shown: str | None = None) -> None:
    """Raise ValueError "<name> must be ... >= 0, got <shown or repr>"
    unless ``max_iter`` is an integer >= 0 and ``tol`` a finite float >= 0
    (not nan); the command line's argument types call it too."""
    if not isinstance(max_iter, int) or max_iter < 0:
        raise ValueError(
            f"max_iter must be an integer >= 0, got {shown or repr(max_iter)}")
    if not 0 <= tol < math.inf:
        raise ValueError(
            f"tol must be a finite float >= 0, got {shown or repr(tol)}")


class GrowthType(NamedTuple):
    """The function ``h(t) = lam**t * t**degree``."""

    lam: float
    degree: int


class ConvergenceReport(NamedTuple):
    """Outcome of a normalized-power-iterate run.

    ``eigenvalue`` is the estimate ``||M x||_1`` at the reported
    (l1-normalized) ``limit`` x and ``residual = ||M x - eigenvalue * x||_1``;
    ``growth`` is the trajectory growth type computed from block spectral
    data, whose ``lam`` is the exact limit eigenvalue.
    """

    limit: FloatVector
    eigenvalue: float
    iterations: int
    residual: float
    growth: GrowthType
    converged: bool
    diagnostic: str | None = None


class PrincipalEigenvector(NamedTuple):
    """Non-negative eigenvector attached to a principal block: the extended
    PF-eigenvector of the block (l1 mass 1) plus the solved dependency part."""

    block: int
    eigenvalue: float
    vector: FloatVector
    pf_support: tuple[int, ...]
    dependency_support: tuple[int, ...]


def _same_root(x: float, y: float, exact: bool) -> bool:
    """Whether the roots ``x`` and ``y`` tie.  A 1x1 block's root is its
    entry, exact as a float below ``2**53``, so two such roots (``exact``)
    tie only when equal; other roots tie within a relative ``EIG_TOL``."""
    if exact and max(x, y) < 2.0**53:
        return x == y
    return abs(x - y) <= EIG_TOL * max(1.0, abs(x), abs(y))


def l1_norm(v: Sequence[float]) -> float:
    return float(lsum(abs(x) for x in v))


def l1_dist(a: Sequence[float], b: Sequence[float]) -> float:
    return float(lsum(abs(x - y) for x, y in zip(a, b)))


def _row_sums(rows: Sequence[Sequence[tuple[int, float]]],
              x: Sequence[float]) -> list[float]:
    """``sum(a * x[j])`` over the pairs ``(j, a)`` of each row, from 0.0 in
    increasing ``j``: the order of the dense sum, whose zero terms change
    nothing, so the result is the same to the last bit."""
    out = []
    for row in rows:
        s = 0.0
        for j, a in row:
            s += a * x[j]
        out.append(s)
    return out


def float_matvec(m: ExactMatrix, x: Sequence[float]) -> list[float]:
    """``M @ x`` in floats, over the non-zeros of ``M``."""
    try:
        return _row_sums(m.rows, x)
    except OverflowError:
        raise FloatRangeError("a matrix entry lies beyond float range") from None


def _snapshot(w: Sequence[int]) -> FloatVector:
    """l1-normalized float image of an exact non-negative integer vector,
    safe against float overflow of huge ints."""
    s = sum(w)
    k = max(0, s.bit_length() - 500)
    den = float(s >> k)
    return tuple(float(x >> k) / den for x in w)


def _rescale(w: tuple[int, ...]) -> tuple[int, ...]:
    """Right-shift all coordinates by a common amount, keeping at least 64
    bits on the smallest non-zero coordinate.  Direction is preserved up to
    relative error 2**-63, invisible at float precision."""
    nonzero_bits = [x.bit_length() for x in w if x]
    shift = min(nonzero_bits) - 64
    if shift <= 0:
        return w
    return tuple(x >> shift for x in w)


def _measure(m: ExactMatrix, x: FloatVector) -> tuple[float, float]:
    """The eigen-estimate ``lam_hat = ||M x||_1`` of ``x`` and its residual
    ``||M x - lam_hat x||_1``, from one float matvec."""
    y = float_matvec(m, x)
    lam = lsum(y)
    return lam, lsum(abs(yi - lam * xi) for yi, xi in zip(y, x))


class _Trajectory:
    """Exact power iteration ``w <- M w``, the route of a run at ``tol=0``;
    ``x`` is the l1-normalized float snapshot of ``w``."""

    __slots__ = ("m", "w", "t")

    def __init__(self, m: ExactMatrix, v0: Sequence[int]):
        self.m = m
        self.w = tuple(int(c) for c in v0)
        self.t = 0

    def step(self) -> None:
        self.w = self.m.apply(self.w)
        self.t += 1
        if self.t % 64 == 0:
            self.w = _rescale(self.w)

    @property
    def x(self) -> FloatVector:
        return _snapshot(self.w)


# ---------------------------------------------------------------------------
# block eigenvalues and growth types

def pf_eigen_block(m: ExactMatrix, dec: BlockDecomposition,
                   i: int) -> tuple[float, FloatVector]:
    """Perron-Frobenius eigenvalue and l1-normalized positive eigenvector of
    the diagonal block ``i`` (which must be primitive or a 1x1 zero/one
    block), certified by ``_certify_pf``.  The pair is stored on ``dec``,
    and later calls for the same block and matrix read it back.  On a power
    ``M**t``, ``_power`` stores beforehand the pairs of the blocks
    that are primitive blocks of ``M``, which are thus certified on ``M``
    and never on the power."""
    stored = dec.pf_pairs.get(i)
    if stored is None or stored[0] is not m:
        stored = dec.pf_pairs[i] = (m, _certify_pf(m, dec, i))
    return stored[1]


def _power(m: ExactMatrix, dec0: BlockDecomposition, t: int,
           ) -> tuple[ExactMatrix, BlockDecomposition]:
    """``(m**t, dec)``, ``dec`` its decomposition read off ``dec0 =
    scc_blocks(m)`` (``(m, dec0)`` at ``t = 1``), with the PF pair of each
    primitive block of ``M`` with two or more members stored on it: the
    block of ``M**t`` over such a block ``A`` is ``A**t``, of root
    ``lam(A)**t`` (relative error about ``t`` float roundings) and of
    ``A``'s PF vector, in the same member order.  Raises
    ``FloatRangeError`` naming block ``i`` of ``dec`` when the root lies
    beyond float range; a ``MaxIterError`` names the block of ``M``."""
    if t == 1:
        return m, dec0
    mt = m.pow(t)
    dec = _power_decomposition(m, dec0, t, mt)
    for i in range(dec.num_blocks):
        members = dec.members(i)
        b = dec0.block_of(members[0])
        if len(members) < 2 or dec0.classes[b] is not BlockClass.PRIMITIVE:
            continue
        try:
            lam, vector = pf_eigen_block(m, dec0, b)
            dec.pf_pairs[i] = (mt, (lam ** t, vector))
        except (OverflowError, FloatRangeError):
            raise FloatRangeError(
                f"block B{i + 1} has an entry beyond float range") from None
    return mt, dec


def _certify_pf(m: ExactMatrix, dec: BlockDecomposition,
                i: int) -> tuple[float, FloatVector]:
    """The pair of ``pf_eigen_block``, computed.  Power iteration from the
    uniform vector certifies the root once the Collatz-Wielandt bracket
    ``[min_i (Av)_i/v_i, max_i (Av)_i/v_i]`` is narrower than the absolute
    ``PF_BRACKET_WIDTH``, which rounding can keep it from above a root of
    about 1e4 (``MaxIterError`` after 500,000 steps).  One Wielandt
    inverse-iteration solve then takes the vector to float precision.  The
    root is ``||A y||_1``, the ``y``-weighted mean of the ratios of ``y``'s
    bracket, where its midpoint would carry a tiny coordinate's rounding."""
    cls = dec.classes[i]
    members = dec.members(i)
    if cls is BlockClass.ZERO_ONE:
        return float(m.entry(members[0], members[0])), (1.0,)
    if cls is not BlockClass.PRIMITIVE:
        raise ValueError(
            f"block {i} is {cls.value}, not primitive or zero/one; "
            "raise the matrix to a power first"
        )
    try:
        sub = [[(c, float(a)) for c, a in row]
               for row in m.submatrix(members).rows]
    except OverflowError:
        raise FloatRangeError(
            f"block B{i + 1} has an entry beyond float range") from None
    k = len(members)
    if k == 1:
        return sub[0][0][1], (1.0,)
    x = [1.0 / k] * k
    for _ in range(500000):
        y = _row_sums(sub, x)
        ratios = [y[r] / x[r] for r in range(k)]
        lo, hi = min(ratios), max(ratios)
        s = lsum(y)
        x = [v / s for v in y]
        if hi - lo <= PF_BRACKET_WIDTH:
            break
    else:
        raise MaxIterError(
            f"PF power iteration did not certify the root of block B{i + 1}: "
            f"bracket width {hi - lo:.1e} > {PF_BRACKET_WIDTH:g} after 500000 steps")
    # one Wielandt inverse-iteration solve: sigma exceeds the root, so
    # (sigma I - A)**-1 is positive and keeps y positive
    y = _linalg.solve(
        _shifted_block(m, members, hi + max(hi - lo, 1e-9 * hi)), x)
    s = lsum(y)
    y = [v / s for v in y]
    return lsum(_row_sums(sub, y)), tuple(y)


def block_eigenvalues(m: ExactMatrix, dec: BlockDecomposition) -> tuple[float, ...]:
    """Per-block dominant eigenvalue: PF eigenvalue of primitive blocks, the
    entry of 1x1 zero/one blocks, and 1 for cyclic power-bounded blocks."""
    out = []
    for i, cls in enumerate(dec.classes):
        if cls in (BlockClass.PRIMITIVE, BlockClass.ZERO_ONE):
            out.append(pf_eigen_block(m, dec, i)[0])
        elif cls is BlockClass.POWER_BOUNDED:
            out.append(1.0)
        else:
            raise NotPBFrobeniusError(
                f"block {i} is imprimitive; apply pb_frobenius_power first"
            )
    return tuple(out)


def _longest_chain(dec: BlockDecomposition, candidates: set[int]) -> int:
    """Longest chain b_k > b_{k-1} > ... > b_1 inside ``candidates`` (each
    block depending on the next), by DP in topological index order."""
    length: dict[int, int] = {}
    for b in sorted(candidates):
        length[b] = 1 + max((length[a] for a in length
                             if b in dec.dependency[a]), default=0)
    return max(length.values(), default=0)


def _top(dec: BlockDecomposition, eigenvalues: Sequence[float],
         blocks: set[int]) -> tuple[float, set[int]]:
    """The largest root ``lam`` among ``blocks`` (not empty) and the blocks
    whose root ties it: the one place a tie is decided (``_same_root``,
    exact when both blocks are 1x1)."""
    top = max(blocks, key=eigenvalues.__getitem__)
    lam, one = eigenvalues[top], len(dec.members(top)) == 1
    return lam, {b for b in blocks if b == top or _same_root(
        eigenvalues[b], lam, one and len(dec.members(b)) == 1)}


def _growth_of(dec: BlockDecomposition, eigenvalues: Sequence[float],
               blocks: set[int]) -> GrowthType:
    lam, tied = _top(dec, eigenvalues, blocks) if blocks else (0.0, set())
    if lam <= 0.0:
        return GrowthType(0.0, 0)
    return GrowthType(lam, _longest_chain(dec, tied) - 1)


def growth_type(dec: BlockDecomposition, eigenvalues: Sequence[float],
                i: int) -> GrowthType:
    """Growth type ``lambda_max(B_i)**t * t**d`` of block ``i``: the maximal
    eigenvalue over the downward closure of ``B_i`` and the longest chain of
    blocks realizing it, minus one."""
    return trajectory_growth(dec, eigenvalues, dec.members(i))


def dominant_interior_contains(dec: BlockDecomposition,
                               eigenvalues: Sequence[float],
                               cone_blocks: set[int],
                               v: Sequence[float]) -> bool:
    """Whether ``v`` lies in the dominant interior of the block cone: some
    longest chain of maximal-eigenvalue blocks realizing the cone's growth
    type has strictly positive ``v`` on every index of every chain block."""
    cone_blocks = set(cone_blocks)
    for b in cone_blocks:
        if not dec.dependency[b] <= cone_blocks:
            raise ValueError(
                f"cone is not invariant: block {b} depends on blocks outside it")
    cone_indices = {idx for b in cone_blocks for idx in dec.members(b)}
    for idx, val in enumerate(v):
        if val != 0.0 and idx not in cone_indices:
            raise ValueError("support of v must lie inside the cone")
    if not cone_blocks:
        return False
    lam, tied = _top(dec, eigenvalues, cone_blocks)
    positive = {b for b in tied
                if all(v[idx] > 0.0 for idx in dec.members(b))}
    return lam > 0.0 and (
        _longest_chain(dec, positive) == _longest_chain(dec, tied))


# ---------------------------------------------------------------------------
# the convergence engine for expanding PB-Frobenius matrices

def trajectory_growth(dec: BlockDecomposition, eigenvalues: Sequence[float],
                      support: Sequence[int]) -> GrowthType:
    """Growth type of trajectories started on the given coordinate support:
    that of the downward closure of the touched blocks."""
    return _growth_of(dec, eigenvalues, _closure(dec, support))


def _closure(dec: BlockDecomposition, support: Sequence[int]) -> set[int]:
    """The blocks of the coordinates ``support`` and every block they feed."""
    touched = {dec.block_of(idx) for idx in support}
    return touched.union(*(dec.dependency[b] for b in touched))


def _block_pass(m: ExactMatrix, dec: BlockDecomposition,
                eigenvalues: Sequence[float], blocks: set[int],
                v0: Sequence[float]) -> FloatVector:
    """The leading Laurent coefficient of ``(zI - M)**-1 v0`` at the top
    root ``lam`` of ``blocks``, exactly the blocks that ``v0`` reaches: the
    direction of ``M**t v0`` as ``t`` grows (Rothblum, "Expansions of sums
    of matrix powers", SIAM Review 1981).

    One pass in flow order gives each block the highest pole order among
    its inputs: ``v0`` on the block counts as order 0, and a feeder's flow
    ``M_ba x_a`` as the feeder's order.  A block whose root ties ``lam``
    (``_top``) raises the order by one and takes the residue of its
    resolvent, ``x = r (l . in) / (l . r)`` with ``r`` and ``l`` its right
    and left PF vectors; every other block keeps the order and solves
    ``(lam I - B) x = in``.  The coefficient is ``x`` on the blocks of the
    top order, ``d + 1`` for growth ``lam**t t**d``, and 0 elsewhere; no
    step subtracts, so it is non-negative.  The scales of tied blocks
    weigh against each other only when two or more of them feed no tied
    block; otherwise one scale multiplies the whole coefficient, and each
    tied block takes ``x = r``.  ``l`` solves ``l (root I - B) = 0`` with
    ``l_0 = 1``.  A tied cyclic block (the principal block of a
    non-expanding report) has the uniform ``r``."""
    lam, tied = _top(dec, eigenvalues, blocks)
    scaled = len(tied) > 1 and sum(
        not dec.dependency[b] & tied for b in tied) > 1
    level = [-1] * m.n  # the pole order at each coordinate
    x = [0.0] * m.n
    try:
        for b in sorted(blocks):
            members = dec.members(b)
            q = max([0] + [level[j] for i in members for j, _ in m.rows[i]])
            # a tied block needs its inflow only to be weighed
            inflow = [(v0[i] if q == 0 else 0.0) + lsum(
                a * x[j] for j, a in m.rows[i] if level[j] == q)
                for i in members] if scaled or b not in tied else None
            k = len(members)
            if b in tied:
                q += 1
                xb = ([1.0 / k] * k if dec.classes[b] is BlockClass.POWER_BOUNDED
                      else pf_eigen_block(m, dec, b)[1])
                if scaled:
                    s = _shifted_block(m, members, eigenvalues[b])
                    left = [1.0] + _linalg.solve(
                        [col[1:] for col in zip(*s)][1:], [-c for c in s[0][1:]])
                    scale = (lsum(u * w for u, w in zip(left, inflow))
                             / lsum(u * w for u, w in zip(left, xb)))
                    xb = [scale * c for c in xb]
            else:
                s = _shifted_block(m, members, lam)
                xb = [inflow[0] / s[0][0]] if k == 1 else _linalg.solve(s, inflow)
            for i, c in zip(members, xb):
                x[i], level[i] = c, q
    except OverflowError:
        raise FloatRangeError("a matrix entry lies beyond float range") from None
    top = max(level)
    return tuple(c if h == top else 0.0 for c, h in zip(x, level))


def _shifted_block(m: ExactMatrix, members: Sequence[int],
                   root: float) -> list[list[float]]:
    """``root I - B`` in dense float rows, ``B`` the diagonal block of
    ``m`` on ``members``."""
    pos = {v: c for c, v in enumerate(members)}
    out = []
    for r, i in enumerate(members):
        row = [0.0] * len(members)
        row[r] = root
        for j, a in m.rows[i]:
            if j in pos:
                row[pos[j]] -= a
        out.append(row)
    return out


def normalized_limit(m: ExactMatrix, v0: Sequence[int],
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     dec: BlockDecomposition | None = None,
                     eigenvalues: Sequence[float] | None = None,
                     ) -> ConvergenceReport:
    """Normalized limit of ``M**t v0 / ||M**t v0||_1`` for an expanding
    matrix in PB-Frobenius form.

    The limit lies in the cone spanned by the principal eigenvectors of the
    root ``lam`` in the closure of ``v0``, and ``_block_pass`` over the
    closure gives the point.  At ``tol > 0`` the report carries it,
    l1-normalized, with ``iterations=0``, and is converged when its
    eigen-residual ``||M x - lam_hat x||_1`` (``lam_hat = ||M x||_1``) is
    below ``tol`` and, when the growth type ``lam**t * t**d`` has
    ``d >= 1``, so is the root gap ``|lam_hat - lam|``.  The gap test is
    needed: ``_top`` ties the blocks ``[[h, h + 1], [h + 1, h]]`` and
    ``[[h, h], [h, h]]``, ``h = 5 * 10**9``, within ``EIG_TOL`` alone,
    they have no chain, and the pass then gives an eigenvector of the
    other root.  A run that fails a test, or whose block solve is singular
    (the report then carries the normalized ``v0``), is refused at once,
    with a diagnostic naming the test.  At ``tol=0`` the run takes exactly
    ``max_iter`` exact steps and reports that iterate, not converged.
    ``dec`` and ``eigenvalues``, when given, are ``scc_blocks(m)`` and
    ``block_eigenvalues(m, dec)``, and are not computed again.
    """
    check_budget(tol, max_iter)
    if dec is None:
        dec = scc_blocks(m)
    if not dec.is_pb_frobenius():
        raise NotPBFrobeniusError(
            "matrix has an imprimitive diagonal block; apply pb_frobenius_power"
        )
    if not dec.is_expanding():
        raise NotExpandingError("matrix is not expanding")
    v0 = tuple(int(c) for c in v0)
    if len(v0) != m.n:
        raise ValueError("dimension mismatch")
    if any(c < 0 for c in v0) or not any(v0):
        raise ValueError("v0 must be non-negative and non-zero")
    if eigenvalues is None:
        eigenvalues = block_eigenvalues(m, dec)
    closure = _closure(dec, [i for i, c in enumerate(v0) if c])
    growth = _growth_of(dec, eigenvalues, closure)
    if not tol:
        traj = _Trajectory(m, v0)
        for _ in range(max_iter):
            traj.step()
        x, refused = traj.x, (f"max_iter={max_iter} reached at tol 0; "
                              "returning the final iterate")
    else:
        x = _snapshot(v0)
        try:
            v = _block_pass(m, dec, eigenvalues, closure, x)
        except SingularSystemError as exc:
            refused = f"block pass refused: a block solve is singular ({exc})"
        else:
            norm = l1_norm(v)
            x, refused = tuple(c / norm for c in v), None
    lam_hat, residual = _measure(m, x)
    gap = abs(lam_hat - growth.lam)
    if refused is None and residual >= tol:
        refused = f"block pass refused: residual {residual:.3e} >= tol {tol:.3e}"
    if refused is None and growth.degree and gap >= tol:
        refused = (f"block pass refused: root gap |lam_hat - lam| {gap:.3e} "
                   f">= tol {tol:.3e}")
    return ConvergenceReport(
        limit=x, eigenvalue=lam_hat, iterations=0 if tol else max_iter,
        residual=residual, growth=growth, converged=refused is None,
        diagnostic=refused)


# ---------------------------------------------------------------------------
# three-case classification and principal eigenvectors

def classify_limit_case(dec: BlockDecomposition, eigenvalues: Sequence[float],
                        i: int) -> int:
    """Which of the three limit cases governs trajectories started in block
    ``i``: 1 when its eigenvalue beats everything it feeds (limits unique up
    to scale, positive on the block), 2 on a tie, 3 when it is dominated
    (limits may depend on the starting vector).  ``i`` is compared with
    ``u``, the block of largest root that it feeds, alone: the float tie
    rule is not transitive, so the tie set of all it feeds can tie ``i`` to
    a block of smaller root than ``u``'s when ``u`` does not tie ``i``."""
    u = max(dec.dependency[i], key=eigenvalues.__getitem__, default=None)
    if u is None:
        return 2 if eigenvalues[i] == 0.0 else 1
    tied = _top(dec, eigenvalues, {i, u})[1]
    return 2 if len(tied) == 2 else 1 if i in tied else 3


def principal_blocks(dec: BlockDecomposition,
                     eigenvalues: Sequence[float]) -> set[int]:
    """Blocks whose eigenvalue strictly dominates every block they feed
    (limit case 1)."""
    if not dec.is_pb_frobenius():
        raise NotPBFrobeniusError("apply pb_frobenius_power first")
    for i in range(dec.num_blocks):
        if eigenvalues[i] == 0.0 and not dec.dependency[i]:
            raise ZeroColumnError(f"column {dec.members(i)[0]} is zero")
    return {i for i in range(dec.num_blocks)
            if classify_limit_case(dec, eigenvalues, i) == 1}


def principal_eigenvector(m: ExactMatrix, dec: BlockDecomposition,
                          eigenvalues: Sequence[float],
                          i: int) -> PrincipalEigenvector:
    """The unique (up to scale) non-negative eigenvector supported on a
    principal block plus its dependency union: ``_block_pass`` started on
    the block, whose part there is the block's PF vector, of l1 mass 1.
    The dependency part solves ``(lam I - M_C) x = u``, ``u`` the flow of
    the PF part, block by block; each solve equals the geometric series
    ``(1/lam) sum lam**-k M**k u``, which converges because ``lam`` exceeds
    the root of every block the principal block feeds.
    """
    if i not in principal_blocks(dec, eigenvalues):
        raise NotPrincipalError(f"block {i} is not principal")
    lam = eigenvalues[i]
    # the start on the blocks it feeds is outweighed by the flow of the PF
    # vector, one pole order higher
    v = _block_pass(m, dec, eigenvalues, {i, *dec.dependency[i]}, [1.0] * m.n)
    # relative to ||M v|| ~ lam ||v||: a huge root leaves a large absolute
    # rounding residual
    residual = l1_dist(float_matvec(m, v), [lam * c for c in v])
    if residual > EIGVEC_TOL * lam * l1_norm(v):
        raise SubperronError(
            f"principal eigenvector residual {residual:.3e} exceeds "
            f"{EIGVEC_TOL:.1e} * lam * ||v||; upstream misclassification likely"
        )
    return PrincipalEigenvector(
        block=i, eigenvalue=lam, vector=v, pf_support=dec.members(i),
        dependency_support=tuple(sorted(
            idx for j in dec.dependency[i] for idx in dec.members(j))))


def eigencone_membership(m: ExactMatrix, dec: BlockDecomposition,
                         eigenvalues: Sequence[float], v: Sequence[float],
                         lam: float, tol: float = 1e-8) -> bool:
    """Whether ``v`` lies within l1 distance ``tol`` of the cone spanned by
    the principal eigenvectors with eigenvalue ``lam``.

    The coefficients are read off the blocks.  Each principal eigenvector
    has l1 mass 1 on its own block, and no principal block feeds another of
    the same root, so the eigenvector of one such block vanishes on the
    others.  For each principal block of root ``lam`` in flow order (the
    tie rule of ``_same_root``, exact when the block is 1x1 and ``lam`` a
    whole number, a value a 1x1 root can take), the coefficient is the
    mass of the remainder on the block, clamped at 0, and that multiple of
    the block's eigenvector is taken off the remainder (which starts as
    ``v``).  ``v`` is in the cone when the l1 norm of what is left is at
    most ``tol``."""
    if any(x < -tol for x in v) or l1_norm(v) == 0.0:
        raise ValueError("v must be non-negative and non-zero")
    rest = [float(x) for x in v]
    whole = float(lam).is_integer()
    for i in sorted(principal_blocks(dec, eigenvalues)):
        if not _same_root(eigenvalues[i], lam,
                          whole and len(dec.members(i)) == 1):
            continue
        c = max(0.0, lsum(rest[idx] for idx in dec.members(i)))
        pe = principal_eigenvector(m, dec, eigenvalues, i)
        rest = [x - c * y for x, y in zip(rest, pe.vector)]
    return l1_norm(rest) <= tol


def power_eigenvector_lift(m0: ExactMatrix, k: int, v: Sequence[float],
                           tol: float = 1e-8) -> bool:
    """Executable check that an eigenvector of ``m0**k`` is an eigenvector
    of ``m0`` itself; for expanding PB-Frobenius matrices this is a theorem, so a
    False return is a numerical diagnostic, not an expected outcome."""
    dec = scc_blocks(m0)
    if not dec.is_pb_frobenius():
        raise NotPBFrobeniusError("m0 must be in PB-Frobenius form")
    if not dec.is_expanding():
        raise NotExpandingError("m0 must be expanding")
    norm = l1_norm(v)
    if norm == 0.0 or any(x < -tol for x in v):
        raise ValueError("v must be non-negative and non-zero")
    vn = [float(x) / norm for x in v]
    mk = m0.pow(k)
    yk = float_matvec(mk, vn)
    mu = l1_norm(yk)
    if l1_dist(yk, [mu * x for x in vn]) > tol:
        raise ValueError("v is not an eigenvector of m0**k within tolerance")
    y = float_matvec(m0, vn)
    lam0 = l1_norm(y)
    return l1_dist(y, [lam0 * x for x in vn]) <= tol
