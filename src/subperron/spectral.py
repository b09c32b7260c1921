"""Growth types, the normalized-iterate convergence engine, and the
principal-eigenvector theory for matrices in PB-Frobenius form.

The convergence engine iterates with exact integers and takes a float
snapshot each step; renormalization is by l1 length.  Growth types are the
functions ``lambda**t * t**d`` governing trajectory size; when ``d >= 1``
the limit is read off the deflated snapshot ``(M - lambda I)**d x``.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from . import _linalg
from ._linalg import lsum
from .errors import (
    FloatRangeError,
    MaxIterError,
    NotExpandingError,
    NotPBFrobeniusError,
    NotPrincipalError,
    SubperronError,
    ZeroColumnError,
)
from .matrices import BlockClass, BlockDecomposition, ExactMatrix, scc_blocks

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


def _tied(dec: BlockDecomposition, eigenvalues: Sequence[float],
          b: int, c: int) -> bool:
    """Whether blocks ``b`` and ``c`` share their root."""
    return _same_root(eigenvalues[b], eigenvalues[c],
                      len(dec.members(b)) == len(dec.members(c)) == 1)


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
    """Exact power iteration ``w <- M w``.  Each step takes the float
    snapshot ``x`` and its l1 distance ``diff`` from the previous one."""

    __slots__ = ("m", "w", "t", "x", "diff")

    def __init__(self, m: ExactMatrix, v0: Sequence[int]):
        self.m = m
        self.w = tuple(int(c) for c in v0)
        self.t = 0
        self.x = _snapshot(self.w)

    def step(self) -> None:
        self.w = self.m.apply(self.w)
        self.t += 1
        if self.t % 64 == 0:
            self.w = _rescale(self.w)
        x_new = _snapshot(self.w)
        self.diff = l1_dist(x_new, self.x)
        self.x = x_new


def _deflate(m: ExactMatrix, growth: GrowthType,
             s: FloatVector) -> FloatVector | None:
    """The read-out ``normalize((M - lam I)**d s)`` of a snapshot ``s`` of a
    trajectory of growth type ``lam**t * t**d`` with ``d >= 1``.

    The ``lam`` Jordan chain of the trajectory has length ``d + 1``
    (Rothblum's index theorem), so ``(M - lam I)**d M**t v0`` has no
    polynomial part: its ``lam`` component is the limit eigenvector itself,
    and the read-out converges geometrically, at the ratio of the next
    eigenvalue to ``lam``, where the snapshot only comes within ``1/t``.
    Negative coordinates (rounding noise on coordinates that are zero in
    the limit, and transients of the smaller eigenvalues) are clamped to 0;
    a transient that moves the read-out still shows in its successive
    difference and residual, as in the snapshot.  None while no coordinate
    is positive.
    """
    r = s
    for _ in range(growth.degree):
        r = [y - growth.lam * c for y, c in zip(float_matvec(m, r), r)]
    pos = lsum(c for c in r if c > 0.0)
    return tuple(c / pos if c > 0.0 else 0.0 for c in r) if pos else None


# ---------------------------------------------------------------------------
# block eigenvalues and growth types

def pf_eigen_block(m: ExactMatrix, dec: BlockDecomposition,
                   i: int) -> tuple[float, FloatVector]:
    """Perron-Frobenius eigenvalue and l1-normalized positive eigenvector of
    the diagonal block ``i`` (which must be primitive or a 1x1 zero/one
    block).

    Power iteration on the block's non-zeros from the uniform vector; the
    Collatz-Wielandt bracket ``[min_i (Av)_i/v_i, max_i (Av)_i/v_i]``
    certifies the eigenvalue once its width drops below the absolute
    ``PF_BRACKET_WIDTH``, which rounding can keep it from above a root of
    about 1e4 (``MaxIterError`` after 500,000 steps).  The pair is stored
    on ``dec``, and later calls for the same block and matrix read it back.
    On a power ``M**t``, ``_power_pairs`` stores beforehand the pairs of
    the blocks that are primitive blocks of ``M``, which are thus
    certified on ``M`` and never on the power.
    """
    stored = dec.pf_pairs.get(i)
    if stored is None or stored[0] is not m:
        stored = dec.pf_pairs[i] = (m, _certify_pf(m, dec, i))
    return stored[1]


def _power_pairs(m: ExactMatrix, dec0: BlockDecomposition, t: int,
                 mt: ExactMatrix, dec: BlockDecomposition) -> None:
    """Store on ``dec``, the decomposition of ``mt = m**t``, the PF pair of
    each primitive block of ``mt`` with at least two members that is a
    primitive block of ``dec0 = scc_blocks(m)``: the block of ``M**t`` over
    a primitive block ``A`` of ``M`` is ``A**t``, whose root is
    ``lam(A)**t`` and whose PF vector is ``A``'s.  The root is bracketed by
    ``[lo**t, hi**t]`` of ``A``'s certificate, a relative width of about
    ``t * PF_BRACKET_WIDTH / lam``.  Both decompositions list a block's
    members in increasing order, so the vector needs no reordering.
    Raises ``FloatRangeError`` naming block ``i`` when the root lies beyond
    float range; a ``MaxIterError`` names the block of ``M`` (``dec0``)."""
    for i in range(dec.num_blocks):
        members = dec.members(i)
        b = dec0.block_of(members[0])
        if (len(members) < 2 or dec0.members(b) != members
                or dec0.classes[b] is not BlockClass.PRIMITIVE):
            continue
        try:
            lam, vector = pf_eigen_block(m, dec0, b)
            dec.pf_pairs[i] = (mt, (lam ** t, vector))
        except (OverflowError, FloatRangeError):
            raise FloatRangeError(
                f"block B{i + 1} has an entry beyond float range") from None


def _certify_pf(m: ExactMatrix, dec: BlockDecomposition,
                i: int) -> tuple[float, FloatVector]:
    """The pair of ``pf_eigen_block``, computed."""
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
            return (lo + hi) / 2.0, tuple(x)
    raise MaxIterError(
        f"PF power iteration did not certify the root of block B{i + 1}: "
        f"bracket width {hi - lo:.1e} > {PF_BRACKET_WIDTH:g} after 500000 steps")


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


def _maximal(dec: BlockDecomposition, eigenvalues: Sequence[float],
             blocks: set[int]) -> set[int]:
    """The blocks in ``blocks`` (not empty) whose root ties the largest."""
    top = max(blocks, key=eigenvalues.__getitem__)
    return {b for b in blocks if _tied(dec, eigenvalues, b, top)}


def _growth_of(dec: BlockDecomposition, eigenvalues: Sequence[float],
               blocks: set[int]) -> GrowthType:
    lam = max((eigenvalues[b] for b in blocks), default=0.0)
    if lam <= 0.0:
        return GrowthType(0.0, 0)
    return GrowthType(
        lam, _longest_chain(dec, _maximal(dec, eigenvalues, blocks)) - 1)


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
    growth = _growth_of(dec, eigenvalues, cone_blocks)
    if growth.lam <= 0.0:
        return False
    maximal = _maximal(dec, eigenvalues, cone_blocks)
    positive = {
        b for b in maximal if all(v[idx] > 0.0 for idx in dec.members(b))
    }
    return _longest_chain(dec, positive) == growth.degree + 1


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


def normalized_limit(m: ExactMatrix, v0: Sequence[int],
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     dec: BlockDecomposition | None = None,
                     eigenvalues: Sequence[float] | None = None,
                     ) -> ConvergenceReport:
    """Normalized limit of ``M**t v0 / ||M**t v0||_1`` for an expanding
    matrix in PB-Frobenius form.

    The limit lies in the cone spanned by the principal eigenvectors of the
    root ``lam`` in the closure of ``v0``.  When the closure holds exactly
    one principal block of root ``lam`` (``_heads``), the cone is a ray, and
    the report carries that block's l1-normalized principal eigenvector with
    ``iterations=0``, provided it passes the strict test of a ``d >= 1``
    step below (so never at ``tol=0``).  Otherwise the run iterates.

    When the trajectory's growth type ``lam**t * t**d`` (from block data)
    has ``d = 0``, the run stops once the snapshot's successive difference
    and its eigen-residual ``||M x - lam_hat x||_1`` (``lam_hat = ||M x||_1``)
    are within ``tol``.  When ``d >= 1`` the snapshot comes within only
    ``1/t`` of its limit, so the run watches the read-out of ``_deflate``
    and stops once its successive difference, its eigen-residual and the
    gap between its eigen-estimate and ``lam`` are all strictly below
    ``tol`` (strictly, because a read-out can be an exact float fixed point:
    ``[[2, 0], [1, 2]]`` from ``(1, 0)`` gives ``(0, 1)`` at every step).

    The residual is computed only at steps whose successive difference
    passes its test, and is that of the reported vector.  When the budget
    runs out, as it always does at ``tol=0`` with ``d >= 1``, the report
    carries the final snapshot with ``converged=False`` and a diagnostic.
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
    heads = _heads(dec, eigenvalues, growth.lam, closure)
    try:
        # one head: the cone of the limit theorem is a ray, no step to take
        v = (principal_eigenvector(m, dec, eigenvalues, heads[0]).vector
             if len(heads) == 1 else None)
    except SubperronError:  # its solve or its residual test failed
        v = None
    if v is not None:
        norm = l1_norm(v)
        x = tuple(c / norm for c in v)
        lam_hat, residual = _measure(m, x)
        if residual < tol and (growth.degree == 0
                               or abs(lam_hat - growth.lam) < tol):
            return ConvergenceReport(
                limit=x, eigenvalue=lam_hat, iterations=0,
                residual=residual, growth=growth, converged=True)
    traj = _Trajectory(m, v0)
    # the vector the stopping rule watches and a settled run reports
    x = _deflate(m, growth, traj.x) if growth.degree else traj.x
    for _ in range(max_iter):
        traj.step()
        if growth.degree == 0:
            x = traj.x
            if not traj.diff <= tol:
                continue
            lam_hat, residual = _measure(m, x)
            settled = residual <= tol
        else:
            x_prev, x = x, _deflate(m, growth, traj.x)
            if x is None or x_prev is None or not l1_dist(x, x_prev) < tol:
                continue
            lam_hat, residual = _measure(m, x)
            # strict, so that a run at tol = 0 runs its whole budget; the
            # eigen-estimate must match lam, since a tie within EIG_TOL alone
            # (blocks [[h, h + 1], [h + 1, h]] and [[h, h], [h, h]] with
            # h = 5 * 10**9) has no chain, and its read-out settles on an
            # eigenvector of the other eigenvalue
            settled = residual < tol and abs(lam_hat - growth.lam) < tol
        if settled:
            return ConvergenceReport(
                limit=x, eigenvalue=lam_hat, iterations=traj.t,
                residual=residual, growth=growth, converged=True,
            )
    lam_hat, residual = _measure(m, traj.x)
    return ConvergenceReport(
        limit=traj.x, eigenvalue=lam_hat, iterations=traj.t,
        residual=residual, growth=growth, converged=False,
        diagnostic=(
            f"max_iter={max_iter} reached with residual {residual:.3e} "
            f"> tol {tol:.3e}; returning the final iterate"
        ),
    )


# ---------------------------------------------------------------------------
# three-case classification and principal eigenvectors

def classify_limit_case(dec: BlockDecomposition, eigenvalues: Sequence[float],
                        i: int) -> int:
    """Which of the three limit cases governs trajectories started in block
    ``i``: 1 when its eigenvalue beats everything it feeds (limits unique up
    to scale, positive on the block), 2 on a tie, 3 when it is dominated
    (limits may depend on the starting vector)."""
    lam = eigenvalues[i]
    u = max(dec.dependency[i], key=eigenvalues.__getitem__, default=None)
    if u is None:
        return 2 if lam == 0.0 else 1
    if _tied(dec, eigenvalues, i, u):
        return 2
    return 1 if lam > eigenvalues[u] else 3


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


def _heads(dec: BlockDecomposition, eigenvalues: Sequence[float],
           lam: float, blocks: Iterable[int]) -> list[int]:
    """The principal blocks among ``blocks`` whose root ties ``lam``, in
    flow order: the heads whose eigenvectors span the limit cone of ``lam``.
    The tie rule is that of ``_same_root``, exact when the block is 1x1 and
    ``lam`` a whole number (a value a 1x1 root can take)."""
    whole = float(lam).is_integer()
    heads = principal_blocks(dec, eigenvalues).intersection(blocks)
    return sorted(i for i in heads if _same_root(
        eigenvalues[i], lam, whole and len(dec.members(i)) == 1))


def principal_eigenvector(m: ExactMatrix, dec: BlockDecomposition,
                          eigenvalues: Sequence[float],
                          i: int) -> PrincipalEigenvector:
    """The unique (up to scale) non-negative eigenvector supported on a
    principal block plus its dependency union.

    The PF part has l1 mass 1 on the block; the dependency part solves
    ``(lam I - M_C) x = u`` where ``u`` is the dependency component of
    ``M`` applied to the extended PF-eigenvector.  The linear solve equals
    the geometric series ``(1/lam) sum lam**-k M**k u``, which converges
    because ``lam`` exceeds the spectral radius of the dependency block.
    """
    if i not in principal_blocks(dec, eigenvalues):
        raise NotPrincipalError(f"block {i} is not principal")
    cls = dec.classes[i]
    members = dec.members(i)
    if cls is BlockClass.PRIMITIVE:
        lam, local = pf_eigen_block(m, dec, i)
    elif cls is BlockClass.ZERO_ONE and eigenvalues[i] == 1.0:
        lam, local = 1.0, (1.0,)
    elif cls is BlockClass.POWER_BOUNDED:
        lam, local = 1.0, tuple(1.0 / len(members) for _ in members)
    else:
        raise NotPrincipalError(f"block {i} of class {cls.value} has no "
                                "positive PF direction")
    v = [0.0] * m.n
    for idx, val in zip(members, local):
        v[idx] = val
    dep_indices = sorted(
        idx for j in dec.dependency[i] for idx in dec.members(j)
    )
    if dep_indices:
        y = float_matvec(m, v)
        u = [y[idx] for idx in dep_indices]
        dep = m.submatrix(dep_indices).entries
        a = [
            [(lam if r == c else 0.0) - float(x) for c, x in enumerate(row)]
            for r, row in enumerate(dep)
        ]
        x = _linalg.solve(a, u)
        for idx, val in zip(dep_indices, x):
            v[idx] = val
    # relative to ||M v|| ~ lam ||v||: a huge root leaves a large absolute
    # rounding residual
    residual = l1_dist(float_matvec(m, v), [lam * c for c in v])
    if residual > EIGVEC_TOL * lam * l1_norm(v):
        raise SubperronError(
            f"principal eigenvector residual {residual:.3e} exceeds "
            f"{EIGVEC_TOL:.1e} * lam * ||v||; upstream misclassification likely"
        )
    return PrincipalEigenvector(
        block=i, eigenvalue=lam, vector=tuple(v),
        pf_support=tuple(members), dependency_support=tuple(dep_indices),
    )


def eigencone_membership(m: ExactMatrix, dec: BlockDecomposition,
                         eigenvalues: Sequence[float], v: Sequence[float],
                         lam: float, tol: float = 1e-8) -> bool:
    """Whether ``v`` lies within l1 distance ``tol`` of the cone spanned by
    the principal eigenvectors with eigenvalue ``lam``.

    The coefficients are read off the blocks.  Each principal eigenvector
    has l1 mass 1 on its own block, and no principal block feeds another of
    the same root, so the eigenvector of one such block vanishes on the
    others.  For each block of ``_heads`` in flow order, the coefficient is
    the mass of the remainder on the block, clamped at 0, and that multiple
    of the block's eigenvector is taken off the remainder (which starts as
    ``v``).  ``v`` is in the cone when the l1 norm of what is left is at
    most ``tol``."""
    if any(x < -tol for x in v) or l1_norm(v) == 0.0:
        raise ValueError("v must be non-negative and non-zero")
    rest = [float(x) for x in v]
    for i in _heads(dec, eigenvalues, lam, range(dec.num_blocks)):
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
