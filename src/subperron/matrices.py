"""Exact non-negative integer matrices and their block structure.

Everything here is exact: entries are arbitrary-precision Python ints, and
the block machinery (strongly connected components, periods, Frobenius-form
powers) is purely combinatorial and walks only the non-zeros of each row.
Vectors are plain tuples of ints.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError

IntVector = tuple[int, ...]
#: non-zeros of one matrix row: ``(column, entry)`` pairs, increasing column
SparseRow = tuple[tuple[int, int], ...]


class ExactMatrix:
    """Immutable square non-negative integer matrix, stored by its
    non-zeros: ``rows[i]`` holds the pairs ``(j, m_ij)`` with ``m_ij > 0``,
    sorted by ``j`` (an incidence matrix has one per letter of its images,
    far fewer than ``n**2``).  Entry ``(i, j)`` counts flow from coordinate
    ``j`` into coordinate ``i``, so the digraph has an edge ``j -> i``
    whenever it is positive."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        dense = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(dense)
        if n == 0:
            raise ValueError("matrix must be non-empty")
        for row in dense:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                if x < 0:
                    raise ValueError("matrix entries must be non-negative")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(
            tuple((j, x) for j, x in enumerate(row) if x) for row in dense
        ))

    @classmethod
    def from_nonzeros(cls, rows: Sequence[SparseRow]) -> "ExactMatrix":
        """Wrap rows already in stored form: ``rows[i]`` lists the pairs
        ``(j, m_ij)`` with ``m_ij > 0`` in increasing ``j``.  Not checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "n", len(rows))
        object.__setattr__(m, "rows", tuple(rows))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"ExactMatrix({[list(r) for r in self.entries]})"

    @property
    def entries(self) -> tuple[IntVector, ...]:
        """The dense rows (``n**2`` entries, built on each access)."""
        return tuple(tuple(d.get(j, 0) for j in range(self.n))
                     for d in map(dict, self.rows))

    def entry(self, i: int, j: int) -> int:
        """The entry ``(i, j)``, looked up in row ``i``'s non-zeros."""
        return dict(self.rows[i]).get(j, 0)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_nonzeros([((i, 1),) for i in range(n)])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        b = other.rows
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for k, x in row:
                for j, y in b[k]:
                    acc[j] = acc.get(j, 0) + x * y
            out.append(tuple(sorted(acc.items())))
        return ExactMatrix.from_nonzeros(out)

    def pow(self, t: int) -> "ExactMatrix":
        """Exact ``self**t`` by binary powering (``t >= 0``)."""
        if t < 0:
            raise ValueError("exponent must be non-negative")
        result = ExactMatrix.identity(self.n)
        base = self
        while t:
            if t & 1:
                result = result @ base
            base = base @ base if t > 1 else base
            t >>= 1
        return result

    def apply(self, v: Sequence[int]) -> IntVector:
        """Exact matrix-vector product ``M @ v``."""
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            s = 0
            for j, x in row:
                s += x * v[j]
            out.append(s)
        return tuple(out)

    def submatrix(self, indices: Sequence[int]) -> "ExactMatrix":
        """Rows and columns ``indices``, in that order."""
        pos = {v: k for k, v in enumerate(indices)}
        return ExactMatrix.from_nonzeros([
            tuple(sorted((pos[j], x) for j, x in self.rows[i] if j in pos))
            for i in indices
        ])


# ---------------------------------------------------------------------------
# parsing

def parse_matrix(text: str) -> ExactMatrix:
    """Parse a matrix from text.

    Accepted formats: one row per line with decimal non-negative integers
    separated by whitespace or commas (``#`` starts a comment), or a JSON
    2D array of non-negative integers.
    """
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON matrix: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ParseError("JSON matrix must be a 2D array")
        for row in data:
            for x in row:
                # bool is an int subclass; int() would also truncate floats
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ParseError(f"JSON matrix entry {x!r} is not an integer")
        rows = data
    else:
        rows = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([int(tok) for tok in line.replace(",", " ").split()])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
    if not rows:
        raise ParseError("empty matrix")
    try:
        return ExactMatrix(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_matrix(path) -> ExactMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


# ---------------------------------------------------------------------------
# block structure

class BlockClass(Enum):
    """Classification of a diagonal block of the SCC decomposition."""

    PRIMITIVE = "primitive"
    POWER_BOUNDED = "power_bounded"
    ZERO_ONE = "zero_one"
    #: Irreducible with period >= 2 and spectral radius > 1.  Not a legal
    #: PB-Frobenius block; callers must raise the matrix to a power.
    IMPRIMITIVE = "imprimitive"


class _Blocks(NamedTuple):
    n: int
    perm: tuple[int, ...]
    spans: tuple[tuple[int, int], ...]
    classes: tuple[BlockClass, ...]
    dependency: tuple[frozenset[int], ...]
    block_index: tuple[int, ...]


class BlockDecomposition(_Blocks):
    """Ordered block partition of a matrix, lower block triangular: the
    blocks go by the longest flow path from a source block, then by
    smallest original index (``_order_blocks``).

    ``perm[p]`` is the original index placed at permuted position ``p``;
    ``spans`` are ``(start, stop)`` ranges in permuted positions;
    ``dependency[i]`` is the set of blocks ``j`` that block ``i`` strictly
    precedes in the flow order (mass started in block ``i`` eventually
    reaches block ``j``); ``block_index[v]`` is the block holding original
    index ``v``.  ``pf_pairs`` holds the block PF pairs that
    ``spectral.pf_eigen_block`` certified, and, on a power ``M**t``, those
    that ``spectral._power_pairs`` took from the primitive blocks of ``M``,
    so that each is certified once for as long as the decomposition is
    used; it lives outside the tuple, so equality, hash and repr ignore
    it.
    """

    def __setattr__(self, name, value):
        raise AttributeError("BlockDecomposition is immutable")

    @cached_property
    def pf_pairs(self) -> dict:
        return {}

    @property
    def num_blocks(self) -> int:
        return len(self.spans)

    @property
    def order(self) -> frozenset[tuple[int, int]]:
        """The pairs ``(i, j)`` with ``j`` in ``dependency[i]``."""
        return frozenset(
            (i, j) for i, deps in enumerate(self.dependency) for j in deps)

    def members(self, i: int) -> tuple[int, ...]:
        """Original indices belonging to block ``i``."""
        start, stop = self.spans[i]
        return self.perm[start:stop]

    def block_of(self, original_index: int) -> int:
        return self.block_index[original_index]

    def is_pb_frobenius(self) -> bool:
        """Every diagonal block primitive or power bounded (Def. of the
        PB-Frobenius form)."""
        return all(c is not BlockClass.IMPRIMITIVE for c in self.classes)

    def is_expanding(self) -> bool:
        """Every block grows (primitive or imprimitive) or depends on one
        that does; see ``is_expanding``."""
        grows = [c in (BlockClass.PRIMITIVE, BlockClass.IMPRIMITIVE)
                 for c in self.classes]
        return all(
            grows[i] or any(grows[j] for j in self.dependency[i])
            for i in range(self.num_blocks)
        )


def _successors(m: ExactMatrix) -> list[list[int]]:
    """Flow digraph: edge j -> i whenever entry (i, j) > 0."""
    adj: list[list[int]] = [[] for _ in range(m.n)]
    for i, row in enumerate(m.rows):
        for j, _ in row:
            adj[j].append(i)
    return adj


def _sccs(m: ExactMatrix, adj: list[list[int]]) -> list[list[int]]:
    """Kosaraju-Sharir: a depth-first pass over the successor lists ``adj``
    gives the finishing order; a second pass, from each unassigned vertex
    in reverse finishing order, collects over the predecessors ``m.rows``
    what it reaches.  The components, as sorted index lists, come out in
    flow order: every edge between two goes from the earlier one."""
    seen = [False] * m.n
    finished: list[int] = []
    for root in range(m.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    assigned = [False] * m.n
    sccs: list[list[int]] = []
    for root in reversed(finished):
        if assigned[root]:
            continue
        assigned[root] = True
        comp = [root]
        for v in comp:
            for u, _ in m.rows[v]:
                if not assigned[u]:
                    assigned[u] = True
                    comp.append(u)
        sccs.append(sorted(comp))
    return sccs


def _cyclic_classes(adj: list[list[int]], comp: Sequence[int]) -> list[list[int]]:
    """Cyclic classes of a strongly connected component; their number is
    its period.  One BFS from ``comp[0]`` over the successor lists ``adj``
    (edges restricted to the component) gives levels; the period ``h`` is
    the gcd over the component's edges ``u -> v`` of
    ``level(u) + 1 - level(v)``, and a class holds the vertices of one level
    residue mod ``h``.  Classes are sorted and ordered by first member."""
    members = set(comp)
    level = {comp[0]: 0}
    queue = [comp[0]]
    g = 0
    while queue:
        nxt = []
        for u in queue:
            for v in adj[u]:
                if v not in members:
                    continue
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
                else:
                    g = math.gcd(g, level[u] + 1 - level[v])
        queue = nxt
    h = g if g > 0 else 1
    classes: list[list[int]] = [[] for _ in range(h)]
    for v in comp:
        classes[level[v] % h].append(v)
    for cls in classes:
        cls.sort()
    classes.sort(key=lambda c: c[0])
    return classes


def _is_cyclic_permutation(m: ExactMatrix, comp: Sequence[int]) -> bool:
    """True iff the strongly connected component's submatrix is a
    permutation matrix; for an irreducible non-negative integer matrix this
    characterizes spectral radius exactly 1.  It suffices that each row has
    a single non-zero inside the component, equal to 1: every column then
    has one too, as every vertex has a successor inside."""
    members = set(comp)
    for i in comp:
        inside = [x for j, x in m.rows[i] if j in members]
        if inside != [1]:
            return False
    return True


def _classify_scc(m: ExactMatrix, adj: list[list[int]],
                  comp: list[int]) -> BlockClass:
    if len(comp) == 1:
        if m.entry(comp[0], comp[0]) in (0, 1):
            return BlockClass.ZERO_ONE
        return BlockClass.PRIMITIVE
    if _is_cyclic_permutation(m, comp):
        return BlockClass.POWER_BOUNDED
    if len(_cyclic_classes(adj, comp)) == 1:
        return BlockClass.PRIMITIVE
    return BlockClass.IMPRIMITIVE


def _block_dag_edges(m: ExactMatrix, block_of: Sequence[int],
                     k: int) -> list[set[int]]:
    """One-step flow edges between the ``k`` blocks, index ``v`` lying in
    block ``block_of[v]``: edge a -> b when some entry (i in b, j in a) of
    m is positive, a != b."""
    out: list[set[int]] = [set() for _ in range(k)]
    for i, row in enumerate(m.rows):
        b = block_of[i]
        for j, _ in row:
            a = block_of[j]
            if a != b:
                out[a].add(b)
    return out


def _transitive_closure(out: list[set[int]]) -> list[frozenset[int]]:
    """``reach[a]``: the blocks that a path from block ``a`` reaches.  The
    blocks come in topological order (every edge ``a -> b`` has ``a < b``),
    so one backward sweep builds ``reach[a]`` as the union of ``{b}`` and
    ``reach[b]`` over the edges ``a -> b``."""
    reach: list[frozenset[int]] = [frozenset()] * len(out)
    for a in range(len(out) - 1, -1, -1):
        reach[a] = frozenset(out[a]).union(*[reach[b] for b in out[a]])
    return reach


def _order_blocks(blocks: list[list[int]], out: list[set[int]]) -> list[int]:
    """The block order of every decomposition, which fixes the block
    numbers of every report: by the longest flow path from a source block,
    then by smallest original index.  ``blocks`` must come in flow order
    (every edge ``a -> b`` of ``out`` has ``a < b``), so one forward pass
    gives each block's longest path."""
    depth = [0] * len(blocks)
    for a, targets in enumerate(out):
        for b in targets:
            if b < a:
                raise ValueError("blocks are not in flow order")
            depth[b] = max(depth[b], depth[a] + 1)
    return sorted(range(len(blocks)), key=lambda a: (depth[a], blocks[a][0]))


def _build_decomposition(m: ExactMatrix, blocks: list[list[int]],
                         classes: list[BlockClass]) -> BlockDecomposition:
    block_of = [0] * m.n
    for k, comp in enumerate(blocks):
        for v in comp:
            block_of[v] = k
    out = _block_dag_edges(m, block_of, len(blocks))
    position_of = _order_blocks(blocks, out)
    ordered = [blocks[k] for k in position_of]
    ordered_classes = [classes[k] for k in position_of]
    new_index = {old: new for new, old in enumerate(position_of)}
    reach = _transitive_closure(
        [{new_index[b] for b in out[old]} for old in position_of])
    perm: list[int] = []
    spans: list[tuple[int, int]] = []
    for comp in ordered:
        spans.append((len(perm), len(perm) + len(comp)))
        perm.extend(comp)
    return BlockDecomposition(m.n, tuple(perm), tuple(spans),
                              tuple(ordered_classes), tuple(reach),
                              tuple(new_index[b] for b in block_of))


def scc_blocks(m: ExactMatrix) -> BlockDecomposition:
    """Block decomposition into strongly connected components, each with
    its ``BlockClass``, ordered by the longest flow path from a source
    block, then by smallest original index."""
    adj = _successors(m)
    sccs = _sccs(m, adj)
    classes = [_classify_scc(m, adj, comp) for comp in sccs]
    return _build_decomposition(m, sccs, classes)


def is_primitive(m: ExactMatrix) -> bool:
    """True iff ``m`` is irreducible with period 1 and not the 1x1 zero
    matrix (equivalently some power up to the Wielandt bound is entrywise
    positive)."""
    if m.n == 1:
        return m.entry(0, 0) > 0
    dec = scc_blocks(m)
    return dec.num_blocks == 1 and dec.classes[0] is BlockClass.PRIMITIVE


def is_power_bounded(m: ExactMatrix) -> bool:
    """True iff the entries of all powers of ``m`` are uniformly bounded.

    Structural characterization: every SCC is a cyclic permutation (spectral
    radius 1) or a 1x1 zero block, and no flow path connects two distinct
    SCCs of spectral radius 1 (such a path forces linear growth).
    """
    dec = scc_blocks(m)
    rho_one = []
    for i, cls in enumerate(dec.classes):
        if cls in (BlockClass.PRIMITIVE, BlockClass.IMPRIMITIVE):
            return False
        members = dec.members(i)
        rho_one.append(
            cls is BlockClass.POWER_BOUNDED
            or (len(members) == 1 and m.entry(members[0], members[0]) == 1)
        )
    return not any(
        rho_one[a] and rho_one[b]
        for a in range(dec.num_blocks) for b in dec.dependency[a]
    )


def is_expanding(m: ExactMatrix) -> bool:
    """True iff no coordinate vector is mapped by a positive power of ``m``
    to itself or to zero; equivalently every coordinate reaches, in the
    condensation, an SCC with spectral radius > 1."""
    return scc_blocks(m).is_expanding()


def _frobenius_partition(m: ExactMatrix, dec: BlockDecomposition,
                         split_cyclic: bool,
                         ) -> tuple[int, list[list[int]], list[BlockClass]]:
    """``(t, blocks, classes)``: the least power ``t`` at which every
    imprimitive block of ``dec = scc_blocks(m)`` (with ``split_cyclic``,
    also every cyclic permutation block) splits into its cyclic classes;
    the blocks of ``m**t`` (those classes and the other blocks, in flow
    order) and their classes.  Takes no power of ``m``."""
    adj = _successors(m)
    exponent = 1
    blocks: list[list[int]] = []
    classes: list[BlockClass] = []
    for i, cls in enumerate(dec.classes):
        members = dec.members(i)
        if cls is BlockClass.IMPRIMITIVE:
            parts = _cyclic_classes(adj, members)
            classes += [BlockClass.PRIMITIVE] * len(parts)
        elif split_cyclic and cls is BlockClass.POWER_BOUNDED:
            # cyclic permutation block: the power fixes every vertex
            parts = [[v] for v in sorted(members)]
            classes += [BlockClass.ZERO_ONE] * len(parts)
        else:
            parts = [sorted(members)]
            classes.append(cls)
        blocks += parts
        exponent = math.lcm(exponent, len(parts))
    return exponent, blocks, classes


def _frobenius_power(m: ExactMatrix, dec: BlockDecomposition, split_cyclic: bool,
                     ) -> tuple[int, ExactMatrix, BlockDecomposition]:
    """``(t, m**t, dec_t)``: the power of ``_frobenius_partition`` and the
    decomposition of ``m**t`` into its blocks.  ``(1, m, dec)`` when no
    block splits."""
    exponent, blocks, classes = _frobenius_partition(m, dec, split_cyclic)
    if exponent == 1:
        return 1, m, dec
    mt = m.pow(exponent)
    return exponent, mt, _build_decomposition(mt, blocks, classes)


def pb_frobenius_power(m: ExactMatrix) -> tuple[int, BlockDecomposition]:
    """Least exponent ``t`` (lcm of periods of the growing SCCs) such that
    ``m**t`` is in PB-Frobenius form, with the refined decomposition in
    which every imprimitive SCC splits into its cyclic classes."""
    t, _, dec = _frobenius_power(m, scc_blocks(m), split_cyclic=False)
    return t, dec


def primitive_frobenius_power(m: ExactMatrix) -> tuple[int, BlockDecomposition]:
    """Exponent (lcm of periods over all non-zero SCCs) such that ``m**t``
    is in primitive Frobenius form: every diagonal block primitive or a 1x1
    block with entry 0 or 1.  Outside PB blocks of the PB-Frobenius
    decomposition the partition is unchanged."""
    t, _, dec = _frobenius_power(m, scc_blocks(m), split_cyclic=True)
    return t, dec
