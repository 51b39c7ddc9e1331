"""Seidel operators and the generalized switching transform.

The switching operator on one cell of n vertices is U_n = (2/n)J_n - I_n,
a symmetric unitary involution. For a partitioned graph the full operator is
the block-diagonal direct sum of the cell operators with an identity on the
hub set D, and switching is the conjugation A |-> U A U. Since
U = 2P - I, with P the projector that averages over each cell and fixes D,
U A U = A - 2PA - 2AP + 4PAP, and the transform is computed block by block
from cell sums of the dense adjacency matrix:
  * a hub row or column over a cell C of size n: the weight vector x over C
    becomes 2 mean(x) - x. A half-attached vector with equal weights flips
    to the complementary half; a constant fully-attached vector is fixed; an
    empty vector stays empty.
  * a cross block B from a cell of size m to a cell of size n, with row sums
    r, column sums c and total S, becomes
    B - (2/n) r 1' - (2/m) 1 c' + (4S/mn) J, computed as B minus the sum of
    (2/n) r 1' - (2S/mn) J and (2/m) 1 c' - (2S/mn) J, with 4S/mn summed
    row-first plus column-first: (i, j) and (j, i) then subtract the same
    two numbers, so a symmetric A switches to an exactly symmetric one.
  * cell interiors (loops included) and D x D are copied, never recomputed,
    so rounding cannot create or remove an edge there. U_C B U_C = B holds
    for an interior B exactly when its signed row and column sums are
    constant, which validation checks.
  * a recomputed weight within EXACT_TOL (1 + max |entry|) of zero is set to
    0: it is the rounding residue of a weight that cancels, not an edge.

Every per-cell check of `validate_seidel` and `validate_starlike` reads one
hub table, built once per call by `_checked` from the hub weights
w[direction, cell vertex, hub] (direction 0 outgoing, 1 incoming): per
direction, cell and hub the count, min and max of the nonzero weights; per
cell and hub the count of attached cell vertices and whether the hub is in
category 1 (attached to all), 2 (to half) or 3 (to none); a hub with any
other count is in none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import (
    BadAdjacencyCount,
    InvalidOrder,
    InvalidPartition,
    NonConstantRowSum,
    NotHalfAndHalf,
    NotRegularInduced,
    UnequalWeights,
    VerificationFailed,
    raise_first,
)
from .graph import EXACT_TOL, WeightedDigraph, _bound, _down, _scaled, _within, adjacency_matrix


@dataclass(frozen=True)
class SeidelPartition:
    """Ordered cells C_1..C_k plus the hub set D.

    Vertices are Python or numpy integers; a bool is refused. Cells have at
    least two vertices each; no part repeats a vertex, and cells and D are
    pairwise disjoint. Vertex indices inside each part are kept sorted so
    the partition ordering (cells concatenated, then D) is canonical.
    """

    cells: tuple[tuple[int, ...], ...]
    d_cell: tuple[int, ...] = ()

    def __post_init__(self):
        cells, d = tuple(tuple(c) for c in self.cells), tuple(self.d_cell)
        for v in chain(*cells, d):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InvalidPartition(f"vertex {v!r} is not an integer")
        object.__setattr__(self, "cells", tuple(tuple(sorted(c)) for c in cells))
        object.__setattr__(self, "d_cell", tuple(sorted(d)))
        seen: set[int] = set()
        for cell in self.cells:
            if len(cell) < 2:
                raise InvalidPartition(f"cell {cell} has fewer than 2 vertices")
            if seen & set(cell):
                raise InvalidPartition(f"cell {cell} overlaps another part")
            seen |= set(cell)
        if seen & set(self.d_cell):
            raise InvalidPartition("hub set D overlaps a cell")
        for part in (*self.cells, self.d_cell):  # an overlap keeps its own error
            if len(set(part)) < len(part):
                raise InvalidPartition(f"part {part} repeats a vertex")

    def members(self) -> set[int]:
        out = set(self.d_cell)
        for cell in self.cells:
            out |= set(cell)
        return out

    def check_cover(self, order: int) -> None:
        if self.members() != set(range(order)):
            raise InvalidPartition(f"partition does not cover vertices 0..{order - 1} exactly")

    @functools.cached_property
    def _layout(self) -> _Layout:
        """The partition order, built on first use, after a cover check."""
        return _Layout(self.cells, self.d_cell)


@dataclass(frozen=True)
class CategoryReport:
    """Hub-vertex categories per cell and the per-cell counts (p, q, r).

    Category 1 = adjacent to all cell vertices, 2 = to exactly half,
    3 = to none. `categories[(i, v)]` is the category of hub vertex v with
    respect to cell i.
    """

    categories: dict[tuple[int, int], int]
    counts: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SeidelOperator:
    """Block description of a switching operator.

    `block_sizes` lists the cell operator orders; `identity_size` is the size
    of the trailing identity block. A single cell with no identity block is
    the plain operator U_n.
    """

    block_sizes: tuple[int, ...]
    identity_size: int = 0

    @property
    def order(self) -> int:
        return sum(self.block_sizes) + self.identity_size

    @property
    def kind(self) -> str:
        return "single" if len(self.block_sizes) == 1 and self.identity_size == 0 else "block"

    def matrix(self) -> np.ndarray:
        """Dense block-diagonal matrix in the partition's vertex ordering."""
        u = np.eye(self.order)
        pos = 0
        for n in self.block_sizes:
            u[pos : pos + n, pos : pos + n] = seidel_matrix(n)
            pos += n
        return u


def seidel_matrix(n: int) -> np.ndarray:
    """The order-n switching operator (2/n)J - I.

    Symmetric, unitary and involutory; n = 2 gives the Pauli X.
    """
    if n < 2:
        raise InvalidOrder(f"switching operator needs order >= 2, got {n}")
    u = np.full((n, n), 2.0 / n)
    np.fill_diagonal(u, 2.0 / n - 1.0)
    return u


def block_seidel(part: SeidelPartition) -> SeidelOperator:
    """Block operator diag{U_n1, ..., U_nk, I_|D|} for a partition."""
    return SeidelOperator(
        block_sizes=tuple(len(c) for c in part.cells),
        identity_size=len(part.d_cell),
    )


def switching_matrix(part: SeidelPartition, order: int) -> np.ndarray:
    """Switching operator in graph vertex order (not partition order)."""
    part.check_cover(order)
    u = np.eye(order)
    for cell in part.cells:
        u[np.ix_(cell, cell)] = seidel_matrix(len(cell))
    return u


def switch_cross_block(a: np.ndarray) -> np.ndarray:
    """Conjugate an m x n constant-row-sum block by the two cell operators.

    Expanding (2/m J - I) A (2/n J - I) with row sums fixed at r gives
    A + (2r/n)J - (2/m)K exactly, where K broadcasts the column sums of A.
    The column-sum term does not collapse to a multiple of J unless the
    column sums are constant too. This runs the switch's own cross-block
    code on a two-cell matrix holding A.
    """
    a = np.asarray(a, dtype=float)
    s, top, x = _down(2 * a.size, a)
    if a.ndim != 2 or not a.size or not np.isfinite(top):
        raise NonConstantRowSum(f"need a nonempty finite m x n block, got shape {a.shape}")
    m, n = a.shape
    row_sums = x.sum(axis=1)
    if not _within(row_sums - row_sums.mean(), EXACT_TOL, row_sums, s).all():
        raise NonConstantRowSum(f"row sums vary: {_scaled(row_sums, s)}")
    full = np.zeros((m + n, m + n))
    full[:m, m:] = a
    return _conjugated(full, _Layout((range(m), range(m, m + n)), ()), _scaled(top, s))[:m, m:]


def flip_half_pattern(x: Sequence[float]) -> np.ndarray:
    """Complement-flip a vector that is half zeros, half one constant c.

    Returns c*j - x, which is what the cell operator does to such a vector:
    the constant moves onto the previously empty half. This runs the
    switch's own hub-row code on a matrix whose one hub carries x.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) % 2 != 0:
        raise NotHalfAndHalf(f"need an even-length vector, got shape {x.shape}")
    nonzero = x[x != 0]
    if len(nonzero) != len(x) // 2 or len(set(nonzero.tolist())) != 1 or not np.isfinite(x).all():
        raise NotHalfAndHalf("vector is not half zeros and half one repeated constant")
    n = len(x)
    full = np.zeros((n + 1, n + 1))
    full[n, :n] = x
    return _conjugated(full, _Layout((range(n),), (n,)), abs(nonzero[0]))[n, :n]


class _Layout:
    """The partition order of a vertex set: the cells as consecutive blocks,
    then D, so that every per-cell quantity of a matrix in this order is one
    `reduceat` over whole rows or columns, from `starts`. A partition keeps
    its own (`SeidelPartition._layout`), which holds O(n) arrays only.
    `cells` and `d` are vertex sequences that cover 0..n-1; a cell of one
    vertex behaves like a vertex of D, since U_1 = I.
    """

    def __init__(self, cells, d):
        k = len(cells)
        self.sizes = np.fromiter(map(len, cells), dtype=np.intp, count=k)
        self.starts = self.sizes.cumsum() - self.sizes
        self.perm = np.fromiter(chain(*cells, d), dtype=np.intp)
        self.m = len(self.perm) - len(d)  # cells fill [0, m), D the rest
        part = np.arange(k + 1).repeat(np.concatenate((self.sizes, [len(d)])))  # k for D
        self.cell_of = part[: self.m]  # of each cell position
        self.part_of = np.empty(len(part), dtype=np.intp)  # of each vertex
        self.part_of[self.perm] = part


def _conjugated(a: np.ndarray, lay: _Layout, top: float, symmetric: bool = False) -> np.ndarray:
    """U A U for a square matrix A with max |entry| `top` and a layout that
    covers it, in A's own vertex order. `symmetric` says that A is exactly
    symmetric, so its row sums over a cell are its column sums.

    Only rows are permuted: the work runs on A with its rows in partition
    order and its columns in vertex order, which every per-cell row sum
    reads in partition order, so every entry is computed as in partition
    order. The result, a second n x n array, first holds the intermediate
    sums. No other n x n float array is made, but for the cell columns of
    an asymmetric A; the snap and the copy-back each make one n x n
    boolean mask, the copy-back's that of the same-part pairs."""
    m, sizes, starts, perm = lay.m, lay.sizes, lay.starts, lay.perm
    if not m:
        return a.copy()
    cells, hubs, cell_of, part_of = perm[:m], perm[m:], lay.cell_of, lay.part_of
    s, low, x = _down(max(2 * len(a), 9), a, top=top)  # no sum passes 2n top, no entry 9 top
    q = x.take(perm, axis=0)
    # twice the mean of each row over each cell, and of each column
    cols2 = 2.0 * np.add.reduceat(q[:m], starts, axis=0) / sizes[:, None]
    # cross blocks; half[i, j] = 2 S_ij / (m_i n_j), as the module docstring says
    if symmetric:
        rows2 = cols2.T[perm]
        row_sums = np.add.reduceat(rows2[:m], starts, axis=0)
        col_sums = row_sums.T
    else:
        rows2 = (2.0 * np.add.reduceat(x.take(cells, axis=1), starts, axis=1) / sizes)[perm]
        row_sums = np.add.reduceat(rows2[:m], starts, axis=0)
        col_sums = np.add.reduceat(cols2[:, cells], starts, axis=1)
    half = (row_sums / sizes[:, None] + col_sums / sizes) / 2.0
    result = np.empty(q.shape)
    both = result[:m]
    # D columns take the values of the last cell here; they are recomputed below
    (rows2[:m] - half.repeat(sizes, axis=0)).take(part_of, axis=1, out=both, mode="clip")
    col_part = cols2 - half.take(part_of, axis=1, mode="clip")
    for start, n, c in zip(starts.tolist(), sizes.tolist(), col_part):
        both[start : start + n] += c  # no second m x n array
    hub_columns = q[:m, hubs]
    q[:m] -= both
    q[:m, hubs] = cols2[:, hubs][cell_of] - hub_columns
    q[m:] = rows2[m:].take(part_of, axis=1, mode="clip") - q[m:]
    # snap rounding residues, as the module docstring says: a product
    # with the keep mask, plus 0.0 for the -0.0 that a negative residue
    # leaves; the diagonal blocks, cell interiors and D x D, are copied
    # from A afterwards, wherever the row and column share a part
    np.multiply(q, np.abs(q, out=result) > _bound(EXACT_TOL, low, s), out=q)
    q += 0.0
    result[perm] = _scaled(q, s)
    np.copyto(result, a, where=part_of[:, None] == part_of)
    return result


def _checked(g: WeightedDigraph, part: SeidelPartition) -> SimpleNamespace:
    """Run the checks of `validate_seidel`; return the hub table. Only the
    diagonal blocks and the hub rows and columns of A are read, in A's own
    vertex order: A is not permuted here."""
    part.check_cover(g.order)
    lay = part._layout
    a, n, m, perm, d = g._adjacency, g.order, lay.m, lay.perm, part.d_cell
    # (b) for all parts at once, the cells and then D (if any): a part's
    # interior row (column) sums are the sums of its rows (columns) over its
    # own vertices. Its block is gathered row by row, then column by column,
    # so that each sum is one segment of one reduceat, added in partition
    # order: `seg` starts each position's entries, `starts` each part's positions.
    parts = np.concatenate((lay.sizes, [n - m])) if n > m else lay.sizes
    starts = parts.cumsum() - parts
    size = parts.repeat(parts)  # of the part of each position
    seg = size.cumsum() - size
    rows = perm.repeat(size)
    cols = perm[np.arange(len(rows)) - (seg - starts.repeat(parts)).repeat(size)]
    entries = a.take(np.concatenate((rows * n + cols, cols * n + rows)))
    # absolute then signed, row sums then column sums: a (4, n) table
    segments = (seg + np.arange(0, 2 * len(entries), len(rows))[:, None]).ravel()
    s, _, sums = _down(2 * n, np.concatenate((np.abs(entries), entries)), top=g._top)
    sums = np.add.reduceat(sums, segments).reshape(4, n)  # s serves hi - lo of the hub table too
    extremes = np.maximum.reduceat(np.concatenate((sums, -sums)), starts, axis=1)
    hi, neg_lo = extremes.reshape(2, 4, -1)
    irregular = np.logical_or.reduce(hi + neg_lo > _bound(EXACT_TOL, np.maximum(hi, neg_lo), s))
    raise_first((irregular, lambda i: NotRegularInduced(
        f"induced subgraph on {f'cell {i}' if i < len(part.cells) else 'D'} is not regular")))
    # the hub table; per-cell arrays put cells before hubs, so that raveling
    # one walks cells first and then hubs, as the checks do
    cells, hubs = perm[:m], perm[m:]
    w = np.concatenate((a.take(hubs, axis=0).take(cells, axis=1).T,
                        a.take(hubs, axis=1).take(cells, axis=0))).reshape(2, m, len(d))
    nonzero = w != 0
    attached = nonzero[0] | nonzero[1]
    counts = np.add.reduceat(np.concatenate((nonzero, attached[None])), lay.starts, axis=1)
    present, count, sizes = counts[:2], counts[2], lay.sizes[:, None]
    table = SimpleNamespace(
        w=w, attached=attached, count=count, present=present,
        hi=np.maximum.reduceat(np.where(nonzero, w, -np.inf), lay.starts, axis=1),
        lo=np.minimum.reduceat(np.where(nonzero, w, np.inf), lay.starts, axis=1),
        # categories 1, 2, 3: attached to all, half, none; any other count is in none
        kinds=count == sizes * np.array([1.0, 0.5, 0.0])[:, None, None],
        nonzero_inside=np.add.reduce(entries[: len(rows)] != 0),
    )

    def fault(error, text, direction, j):
        i, h = divmod(j, len(d))
        s, n = lay.starts[i], lay.sizes[i]
        row = w[direction, s : s + n, h]
        allowed = f"0, {n // 2} or {n}" if n % 2 == 0 else f"0 or {n}"
        return error(text.format(v=d[h], i=i, count=count[i, h], allowed=allowed, w=row[row != 0]))

    spans = table.kinds[1] & (table.present > 0)  # half-attached, with edges this way
    partial = spans & (table.present < count)
    hi, lo = _scaled(table.hi, -s), _scaled(table.lo, -s)
    uneven = spans & (hi - lo > _bound(EXACT_TOL, np.maximum(hi, -lo), s))
    checks = [(~np.logical_or.reduce(table.kinds), lambda j: fault(BadAdjacencyCount,
        "hub {v} is adjacent to {count} vertices of cell {i}; allowed counts are {allowed}", 0, j))]
    for k, name in enumerate(("outgoing", "incoming")):
        checks += [
            (partial[k], lambda j, name=name: fault(UnequalWeights,
                f"hub {{v}} / cell {{i}}: {name} edges cover only part of the attachment", 0, j)),
            (uneven[k], lambda j, name=name, k=k: fault(UnequalWeights,
                f"hub {{v}} / cell {{i}}: unequal {name} weights {{w}}", k, j)),
        ]
    raise_first(*checks)
    return table


def validate_seidel(g: WeightedDigraph, part: SeidelPartition) -> CategoryReport:
    """Check the four switching-graph conditions and classify hub vertices.

    (a) the parts partition the vertex set, (b) the subgraphs induced by each
    cell and by D are regular, in signed and in absolute weight, over rows
    and over columns, (c) each hub vertex is adjacent to 0, n/2 or n vertices
    of every cell, with equal weights per direction in the half-attached
    case, (d) parallel edges only occur as oppositely oriented pairs, which
    the graph model guarantees.
    """
    d, kinds = part.d_cell, _checked(g, part).kinds
    category = np.arange(1, 4) @ kinds.reshape(3, -1)  # 0 for a count that is in none
    categories = {(i, v): c for i, row in enumerate(category.reshape(kinds.shape[1:]).tolist())
                  for v, c in zip(d, row)}
    counts = zip(*kinds.sum(axis=2).tolist())
    return CategoryReport(categories=categories, counts=tuple(counts))


def _verify_switch(m: np.ndarray, switched: np.ndarray, part: SeidelPartition) -> None:
    """Raise VerificationFailed, naming the worst entry, unless `switched` is
    U M U for the partition's operator U, under the tolerance rule with
    EXACT_TOL; U is orthogonal, so this proves equal spectra with no eigensolver."""
    u = switching_matrix(part, len(m))
    s, _, m, switched = _down(16, m, switched)  # |U| has row sums under 3
    expected = u @ m @ u
    deviation = np.abs(switched - expected)
    i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
    if not _within(deviation[i, j], EXACT_TOL, expected, s):
        raise VerificationFailed(f"switched matrix deviates from U M U by "
                                 f"{_scaled(deviation[i, j], s):.3e} at ({i}, {j})")


def _switched(g: WeightedDigraph, part: SeidelPartition) -> WeightedDigraph:
    """The switch of g, for a partition that covers it; no check runs. The
    switch of a symmetric A is exactly symmetric, so that result is never scanned."""
    symmetric = g.is_symmetric()
    return WeightedDigraph._of(
        _conjugated(g._adjacency, part._layout, g._top, symmetric), symmetric or None)


def switch(g: WeightedDigraph, part: SeidelPartition, verify: bool = False) -> WeightedDigraph:
    """Switching transform G -> G^pi; the result is cospectral with G.

    Validates the input first; cross blocks between cells may be arbitrary.
    A symmetric input switches to an exactly symmetric result, which is
    born known to be symmetric and never scanned. verify=True certifies the
    result against the dense U A U under the tolerance rule of `graph`,
    which proves cospectrality; meant for tests, not production runs.
    """
    _checked(g, part)
    result = _switched(g, part)
    if verify:
        _verify_switch(adjacency_matrix(g), adjacency_matrix(result), part)
    return result
