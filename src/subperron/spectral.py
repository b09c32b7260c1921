"""Growth types, the normalized-iterate convergence engine, and the
principal-eigenvector theory for matrices in PB-Frobenius form.

The convergence engine iterates with exact integers and takes a float
snapshot each step; renormalization is by l1 length.  Growth types are the
functions ``lambda**t * t**d`` governing trajectory size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import _linalg
from .errors import (
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

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 20000

FloatVector = tuple[float, ...]


class GrowthType(NamedTuple):
    """The function ``h(t) = lam**t * t**degree``."""

    lam: float
    degree: int

    def value_log(self, t: int) -> float:
        """log h(t); requires lam > 0 and t >= 1."""
        import math

        return t * math.log(self.lam) + self.degree * math.log(t)


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a normalized-power-iterate run.

    ``eigenvalue`` is the iteration estimate ``||M x||_1`` at the final
    (l1-normalized) iterate and ``residual = ||M x - eigenvalue * x||_1``;
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


@dataclass(frozen=True)
class PrincipalEigenvector:
    """Non-negative eigenvector attached to a principal block: the extended
    PF-eigenvector of the block (l1 mass 1) plus the solved dependency part."""

    block: int
    eigenvalue: float
    vector: FloatVector
    pf_support: tuple[int, ...]
    dependency_support: tuple[int, ...]

    @property
    def normalized(self) -> FloatVector:
        s = sum(self.vector)
        return tuple(x / s for x in self.vector)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EIG_TOL * max(1.0, abs(a), abs(b))


def l1_norm(v: Sequence[float]) -> float:
    return float(sum(abs(x) for x in v))


def l1_dist(a: Sequence[float], b: Sequence[float]) -> float:
    return float(sum(abs(x - y) for x, y in zip(a, b)))


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
    return _row_sums(m.rows, x)


def _snapshot(w: Sequence[int]) -> FloatVector:
    """l1-normalized float image of an exact non-negative integer vector,
    safe against float overflow of huge ints."""
    s = sum(w)
    k = max(0, s.bit_length() - 500)
    if k:
        den = float(s >> k)
        return tuple(float(x >> k) / den for x in w)
    den = float(s)
    return tuple(float(x) / den for x in w)


def _rescale(w: tuple[int, ...]) -> tuple[int, ...]:
    """Right-shift all coordinates by a common amount, keeping at least 64
    bits on the smallest non-zero coordinate.  Direction is preserved up to
    relative error 2**-63, invisible at float precision."""
    nonzero_bits = [x.bit_length() for x in w if x]
    shift = min(nonzero_bits) - 64
    if shift <= 0:
        return w
    return tuple(x >> shift for x in w)


class _Trajectory:
    """Exact power iteration ``w <- M w``.  Each step takes the float
    snapshot ``x`` and its l1 distance ``diff`` from the previous one.

    The eigen-estimate ``lam_hat = ||M x||_1`` and the residual
    ``||M x - lam_hat x||_1`` cost a float matvec, so they are computed on
    first use at the current step: ``settled`` asks for them only once
    ``diff`` is within ``tol``, and a run that stops on budget reads them at
    its final step.
    """

    __slots__ = ("m", "w", "t", "x", "diff", "_measured")

    def __init__(self, m: ExactMatrix, v0: Sequence[int]):
        self.m = m
        self.w = tuple(int(c) for c in v0)
        self.t = 0
        self.x = _snapshot(self.w)
        self._measured = None

    def _measure(self) -> tuple[float, float]:
        if self._measured is None:
            y = float_matvec(self.m, self.x)
            lam = sum(y)
            self._measured = (
                lam, sum(abs(yi - lam * xi) for yi, xi in zip(y, self.x)))
        return self._measured

    @property
    def lam_hat(self) -> float:
        return self._measure()[0]

    @property
    def residual(self) -> float:
        return self._measure()[1]

    def step(self) -> None:
        self.w = self.m.apply(self.w)
        self.t += 1
        if self.t % 64 == 0:
            self.w = _rescale(self.w)
        x_new = _snapshot(self.w)
        self.diff = l1_dist(x_new, self.x)
        self.x = x_new
        self._measured = None

    def settled(self, tol: float) -> bool:
        return self.diff <= tol and self.residual <= tol


# ---------------------------------------------------------------------------
# block eigenvalues and growth types

def pf_eigen_block(m: ExactMatrix, dec: BlockDecomposition, i: int,
                   width: float = PF_BRACKET_WIDTH) -> tuple[float, FloatVector]:
    """Perron-Frobenius eigenvalue and l1-normalized positive eigenvector of
    the diagonal block ``i`` (which must be primitive or a 1x1 zero/one
    block).

    Power iteration on the block's non-zeros from the uniform vector; the
    Collatz-Wielandt bracket ``[min_i (Av)_i/v_i, max_i (Av)_i/v_i]``
    certifies the eigenvalue once its width drops below ``width``.
    """
    cls = dec.classes[i]
    members = dec.members(i)
    if cls is BlockClass.ZERO_ONE:
        return float(m.entry(members[0], members[0])), (1.0,)
    if cls is not BlockClass.PRIMITIVE:
        raise ValueError(
            f"block {i} is {cls.value}, not primitive or zero/one; "
            "raise the matrix to a power first"
        )
    sub = [[(c, float(a)) for c, a in row]
           for row in m.submatrix(members).rows]
    k = len(members)
    if k == 1:
        return sub[0][0][1], (1.0,)
    x = [1.0 / k] * k
    for _ in range(500000):
        y = _row_sums(sub, x)
        ratios = [y[r] / x[r] for r in range(k)]
        lo, hi = min(ratios), max(ratios)
        s = sum(y)
        x = [v / s for v in y]
        if hi - lo <= width:
            return (lo + hi) / 2.0, tuple(x)
    raise MaxIterError("PF power iteration did not certify the eigenvalue")


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
    if not candidates:
        return 0
    length = {b: 1 for b in candidates}
    for b in sorted(candidates):
        preds = [a for a in candidates if b in dec.dependency[a]]
        if preds:
            length[b] = 1 + max(length[a] for a in preds)
    return max(length.values())


def _growth_of(dec: BlockDecomposition, eigenvalues: Sequence[float],
               blocks: set[int]) -> GrowthType:
    lam = max((eigenvalues[b] for b in blocks), default=0.0)
    if lam <= 0.0:
        return GrowthType(0.0, 0)
    maximal = {b for b in blocks if _close(eigenvalues[b], lam)}
    return GrowthType(lam, _longest_chain(dec, maximal) - 1)


def growth_type(dec: BlockDecomposition, eigenvalues: Sequence[float],
                i: int) -> GrowthType:
    """Growth type ``lambda_max(B_i)**t * t**d`` of block ``i``: the maximal
    eigenvalue over the downward closure of ``B_i`` and the longest chain of
    blocks realizing it, minus one."""
    closure = {i} | set(dec.dependency[i])
    return _growth_of(dec, eigenvalues, closure)


def cone_growth_type(dec: BlockDecomposition, eigenvalues: Sequence[float],
                     cone_blocks: set[int]) -> GrowthType:
    """Growth type of an invariant block cone (maximal growth type over its
    blocks)."""
    _require_invariant_cone(dec, cone_blocks)
    return _growth_of(dec, eigenvalues, set(cone_blocks))


def _require_invariant_cone(dec: BlockDecomposition, cone_blocks: set[int]) -> None:
    for b in cone_blocks:
        if not set(dec.dependency[b]) <= set(cone_blocks):
            raise ValueError(
                f"cone is not invariant: block {b} depends on blocks outside it"
            )


def dominant_interior_contains(dec: BlockDecomposition,
                               eigenvalues: Sequence[float],
                               cone_blocks: set[int],
                               v: Sequence[float]) -> bool:
    """Whether ``v`` lies in the dominant interior of the block cone: some
    longest chain of maximal-eigenvalue blocks realizing the cone's growth
    type has strictly positive ``v`` on every index of every chain block."""
    cone_blocks = set(cone_blocks)
    _require_invariant_cone(dec, cone_blocks)
    cone_indices = {idx for b in cone_blocks for idx in dec.members(b)}
    for idx, val in enumerate(v):
        if val != 0.0 and idx not in cone_indices:
            raise ValueError("support of v must lie inside the cone")
    growth = _growth_of(dec, eigenvalues, cone_blocks)
    if growth.lam <= 0.0:
        return False
    maximal = {b for b in cone_blocks if _close(eigenvalues[b], growth.lam)}
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
    touched = {dec.block_of(idx) for idx in support}
    closure = set(touched)
    for b in touched:
        closure |= set(dec.dependency[b])
    return _growth_of(dec, eigenvalues, closure)


def normalized_limit(m: ExactMatrix, v0: Sequence[int],
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> ConvergenceReport:
    """Normalized limit of ``M**t v0 / ||M**t v0||_1`` for an expanding
    matrix in PB-Frobenius form.

    Iterates with exact integers (rescaled by a common right-shift every 64
    steps to cap bit growth), renormalizing the float snapshot to l1 = 1.
    Stops when both the successive difference and the eigen-residual
    ``||M x - lam * x||_1`` (with ``lam = ||M x||_1``) fall below ``tol``;
    the residual, a float matvec, is computed only at steps whose
    successive difference is within ``tol``.  The reported eigenvalue and
    residual are those of the reported iterate.  If the budget runs out
    the report carries the final iterate with ``converged=False`` and a
    diagnostic; slow trajectories (equal block eigenvalues along a chain)
    approach their limit at rate 1/t, so budget exhaustion there is
    expected rather than pathological.
    """
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
    eigenvalues = block_eigenvalues(m, dec)
    growth = trajectory_growth(dec, eigenvalues,
                               [i for i, c in enumerate(v0) if c])
    traj = _Trajectory(m, v0)
    for _ in range(max_iter):
        traj.step()
        if traj.settled(tol):
            return ConvergenceReport(
                limit=traj.x, eigenvalue=traj.lam_hat, iterations=traj.t,
                residual=traj.residual, growth=growth, converged=True,
            )
    return ConvergenceReport(
        limit=traj.x, eigenvalue=traj.lam_hat, iterations=traj.t,
        residual=traj.residual, growth=growth, converged=False,
        diagnostic=(
            f"max_iter={max_iter} reached with residual {traj.residual:.3e} "
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
    lam_u = max((eigenvalues[j] for j in dec.dependency[i]), default=0.0)
    if _close(lam, lam_u):
        return 2
    return 1 if lam > lam_u else 3


def _check_no_zero_columns(dec: BlockDecomposition,
                           eigenvalues: Sequence[float]) -> None:
    for i in range(dec.num_blocks):
        if eigenvalues[i] == 0.0 and not dec.dependency[i]:
            idx = dec.members(i)[0]
            raise ZeroColumnError(f"column {idx} is zero")


def principal_blocks(dec: BlockDecomposition,
                     eigenvalues: Sequence[float]) -> set[int]:
    """Blocks whose eigenvalue strictly dominates every block they feed
    (limit case 1)."""
    if not dec.is_pb_frobenius():
        raise NotPBFrobeniusError("apply pb_frobenius_power first")
    _check_no_zero_columns(dec, eigenvalues)
    return {i for i in range(dec.num_blocks)
            if classify_limit_case(dec, eigenvalues, i) == 1}


def principal_eigenvector(m: ExactMatrix, dec: BlockDecomposition,
                          eigenvalues: Sequence[float], i: int,
                          tol: float = 1e-9) -> PrincipalEigenvector:
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
    residual = l1_dist(float_matvec(m, v), [lam * c for c in v])
    if residual > tol * l1_norm(v):
        raise SubperronError(
            f"principal eigenvector residual {residual:.3e} exceeds "
            f"{tol:.1e} * ||v||; upstream misclassification likely"
        )
    return PrincipalEigenvector(
        block=i, eigenvalue=lam, vector=tuple(v),
        pf_support=tuple(members), dependency_support=tuple(dep_indices),
    )


def eigencone_membership(m: ExactMatrix, dec: BlockDecomposition,
                         eigenvalues: Sequence[float], v: Sequence[float],
                         lam: float, tol: float = 1e-8) -> bool:
    """Whether ``v`` lies (within l1 distance ``tol`` after non-negative
    projection) in the cone spanned by the principal eigenvectors with
    eigenvalue ``lam``."""
    if any(x < -tol for x in v) or l1_norm(v) == 0.0:
        raise ValueError("v must be non-negative and non-zero")
    matching = [
        principal_eigenvector(m, dec, eigenvalues, i)
        for i in sorted(principal_blocks(dec, eigenvalues))
        if _close(eigenvalues[i], lam)
    ]
    if not matching:
        return False
    cols = [p.vector for p in matching]
    a = [[cols[j][r] for j in range(len(cols))] for r in range(m.n)]
    coeffs = _linalg.nnls(a, list(map(float, v)))
    proj = [sum(a[r][j] * coeffs[j] for j in range(len(cols))) for r in range(m.n)]
    return l1_dist(proj, v) <= tol


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
