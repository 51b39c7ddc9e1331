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
cell and hub the count of attached cell vertices and the category (1 for
all, 2 for half, 3 for none, 0 for any other count).
"""

from __future__ import annotations

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
from .graph import EXACT_TOL, WeightedDigraph, _within, adjacency_matrix


@dataclass(frozen=True)
class SeidelPartition:
    """Ordered cells C_1..C_k plus the hub set D.

    Cells have at least two vertices each; cells and D are pairwise disjoint.
    Vertex indices inside each part are kept sorted so the partition ordering
    (cells concatenated, then D) is canonical.
    """

    cells: tuple[tuple[int, ...], ...]
    d_cell: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(tuple(sorted(c)) for c in self.cells))
        object.__setattr__(self, "d_cell", tuple(sorted(self.d_cell)))
        seen: set[int] = set()
        for cell in self.cells:
            if len(cell) < 2:
                raise InvalidPartition(f"cell {cell} has fewer than 2 vertices")
            if seen & set(cell):
                raise InvalidPartition(f"cell {cell} overlaps another part")
            seen |= set(cell)
        if seen & set(self.d_cell):
            raise InvalidPartition("hub set D overlaps a cell")

    def members(self) -> set[int]:
        out = set(self.d_cell)
        for cell in self.cells:
            out |= set(cell)
        return out

    def check_cover(self, order: int) -> None:
        if self.members() != set(range(order)):
            raise InvalidPartition(f"partition does not cover vertices 0..{order - 1} exactly")


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
    m, n = a.shape
    row_sums = a.sum(axis=1)
    if not _within(row_sums - row_sums.mean(), EXACT_TOL, row_sums).all():
        raise NonConstantRowSum(f"row sums vary: {row_sums}")
    full = np.zeros((m + n, m + n))
    full[:m, m:] = a
    return _Partitioned(full, (range(m), range(m, m + n)), ()).conjugated()[:m, m:]


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
    if len(nonzero) != len(x) // 2 or len(set(nonzero.tolist())) != 1:
        raise NotHalfAndHalf("vector is not half zeros and half one repeated constant")
    n = len(x)
    full = np.zeros((n + 1, n + 1))
    full[n, :n] = x
    return _Partitioned(full, (range(n),), (n,)).conjugated()[n, :n]


class _Partitioned:
    """A square matrix permuted into partition order.

    The cells become consecutive diagonal blocks and D the trailing one, so
    every per-cell quantity is one `reduceat` over whole rows or columns.
    `cells` and `d` are vertex sequences that cover the matrix; a cell of one
    vertex behaves like a vertex of D, since U_1 = I.
    """

    def __init__(self, a: np.ndarray, cells, d):
        self.sizes = np.array([len(c) for c in cells], dtype=np.intp)
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.m = int(self.sizes.sum())  # cells fill [0, m), D the rest
        self.perm = np.fromiter(chain(*cells, d), dtype=np.intp, count=self.m + len(d))
        self.p = a[np.ix_(self.perm, self.perm)]

    def per_cell(self, ufunc, x: np.ndarray, axis: int = 1) -> np.ndarray:
        """`ufunc` reduced over each cell's columns (axis 1) or rows (axis 0)."""
        return ufunc.reduceat(x, self.starts, axis=axis)

    def conjugated(self) -> np.ndarray:
        """U A U, in the matrix's own vertex order."""
        p, m, sizes = self.p, self.m, self.sizes
        out = p.copy()
        if m:
            # twice the mean of each row over each cell, and of each column
            rows2 = 2.0 * self.per_cell(np.add, p[:, :m]) / sizes
            cols2 = 2.0 * self.per_cell(np.add, p[:m], axis=0) / sizes[:, None]
            out[m:, :m] = np.repeat(rows2[m:], sizes, axis=1) - p[m:, :m]
            out[:m, m:] = np.repeat(cols2[:, m:], sizes, axis=0) - p[:m, m:]
            # cross blocks; half[i, j] = 2 S_ij / (m_i n_j), as the module docstring says
            half = (self.per_cell(np.add, rows2[:m], axis=0) / sizes[:, None]
                    + self.per_cell(np.add, cols2[:, :m]) / sizes) / 2.0
            col_part = cols2[:, :m] - np.repeat(half, sizes, axis=1)
            both = np.repeat(rows2[:m] - np.repeat(half, sizes, axis=0), sizes, axis=1)
            for s, n, c in zip(self.starts, sizes, col_part):  # no second m x m array
                both[s : s + n] += c
            out[:m, :m] -= both
            top = p.min(), p.max()  # snap rounding residues, as the module docstring says
            for block in (out[:m], out[m:, :m]):
                block[_within(block, EXACT_TOL, top)] = 0.0
            for s, n in zip(self.starts, sizes):
                out[s : s + n, s : s + n] = p[s : s + n, s : s + n]
        result = np.empty_like(out)
        result[np.ix_(self.perm, self.perm)] = out
        return result


def _in_partition_order(g: WeightedDigraph, part: SeidelPartition) -> _Partitioned:
    """The adjacency matrix of g in the order of `part`, which must cover g."""
    part.check_cover(g.order)
    return _Partitioned(adjacency_matrix(g), part.cells, part.d_cell)


def _checked(g: WeightedDigraph, part: SeidelPartition) -> tuple[_Partitioned, SimpleNamespace]:
    """Run the checks of `validate_seidel`; return the adjacency matrix in
    partition order and its hub table."""
    blocks = _in_partition_order(g, part)
    m, d, order = blocks.m, part.d_cell, g.order
    # (b) for all parts at once, the cells and then D: a part's interior row
    # (column) sums are the sums of its rows (columns) over its own vertices
    starts = blocks.starts.tolist() + ([m] if d else [])
    part_of = np.repeat(np.arange(len(starts)), np.diff(starts + [order]))
    both = np.stack((np.abs(blocks.p), blocks.p))
    sums = np.concatenate((np.add.reduceat(both, starts, axis=2)[:, np.arange(order), part_of],
                           np.add.reduceat(both, starts, axis=1)[:, part_of, np.arange(order)]))
    hi, neg_lo = np.maximum.reduceat(np.stack((sums, -sums)), starts, axis=2)
    irregular = (hi + neg_lo > EXACT_TOL * (1.0 + np.maximum(hi, neg_lo))).any(axis=0)
    labels = [f"cell {i}" for i in range(len(part.cells))] + ["D"]
    raise_first((irregular, lambda i: NotRegularInduced(
        f"induced subgraph on {labels[i]} is not regular")))
    # the hub table; per-cell arrays put cells before hubs, so that raveling
    # one walks cells first and then hubs, as the checks do
    w = np.stack((blocks.p[m:, :m].T, blocks.p[:m, m:]))
    nonzero = w != 0
    attached = nonzero[0] | nonzero[1]
    count, sizes = blocks.per_cell(np.add, attached, axis=0), blocks.sizes[:, None]
    table = SimpleNamespace(
        w=w, attached=attached, count=count, present=blocks.per_cell(np.add, nonzero, axis=1),
        hi=blocks.per_cell(np.maximum, np.where(nonzero, w, -np.inf), axis=1),
        lo=blocks.per_cell(np.minimum, np.where(nonzero, w, np.inf), axis=1),
        category=np.select([count == 0, count == sizes, 2 * count == sizes], [3, 1, 2], 0),
    )

    def fault(error, text, direction=0):
        def make(j):
            i, h = divmod(j, len(d))
            s, n = blocks.starts[i], blocks.sizes[i]
            row = w[direction, s : s + n, h]
            allowed = f"0, {n // 2} or {n}" if n % 2 == 0 else f"0 or {n}"
            return error(text.format(v=d[h], i=i, count=count[i, h], allowed=allowed,
                                     w=row[row != 0]))

        return make

    spans = (table.category == 2) & (table.present > 0)  # half-attached, with edges this way
    partial = spans & (table.present < count)
    uneven = spans & (table.hi - table.lo > EXACT_TOL * (1.0 + np.maximum(table.hi, -table.lo)))
    checks = [((table.category == 0).ravel(), fault(BadAdjacencyCount,
        "hub {v} is adjacent to {count} vertices of cell {i}; allowed counts are {allowed}"))]
    for k, name in enumerate(("outgoing", "incoming")):
        checks += [
            (partial[k].ravel(), fault(UnequalWeights,
                f"hub {{v}} / cell {{i}}: {name} edges cover only part of the attachment")),
            (uneven[k].ravel(), fault(UnequalWeights,
                f"hub {{v}} / cell {{i}}: unequal {name} weights {{w}}", k)),
        ]
    raise_first(*checks)
    return blocks, table


def validate_seidel(g: WeightedDigraph, part: SeidelPartition) -> CategoryReport:
    """Check the four switching-graph conditions and classify hub vertices.

    (a) the parts partition the vertex set, (b) the subgraphs induced by each
    cell and by D are regular, in signed and in absolute weight, over rows
    and over columns, (c) each hub vertex is adjacent to 0, n/2 or n vertices
    of every cell, with equal weights per direction in the half-attached
    case, (d) parallel edges only occur as oppositely oriented pairs, which
    the graph model guarantees.
    """
    d, category = part.d_cell, _checked(g, part)[1].category
    categories = {(i, v): c for i, row in enumerate(category.tolist()) for v, c in zip(d, row)}
    counts = zip(*(np.count_nonzero(category == c, axis=1).tolist() for c in (1, 2, 3)))
    return CategoryReport(categories=categories, counts=tuple(counts))


def _verify_switch(m: np.ndarray, switched: np.ndarray, part: SeidelPartition) -> None:
    """Raise VerificationFailed, naming the worst entry, unless `switched` is
    U M U for the partition's operator U, under the tolerance rule with
    EXACT_TOL; U is orthogonal, so this proves equal spectra with no eigensolver."""
    u = switching_matrix(part, len(m))
    expected = u @ m @ u
    deviation = np.abs(switched - expected)
    i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
    if not _within(deviation[i, j], EXACT_TOL, expected):
        raise VerificationFailed(
            f"switched matrix deviates from U M U by {deviation[i, j]:.3e} at ({i}, {j})")


def switch(g: WeightedDigraph, part: SeidelPartition, verify: bool = False) -> WeightedDigraph:
    """Switching transform G -> G^pi; the result is cospectral with G.

    Validates the input first; cross blocks between cells may be arbitrary.
    A symmetric input switches to an exactly symmetric result. verify=True
    certifies the result against the dense U A U under the tolerance rule of
    `graph`, which proves cospectrality; meant for tests, not production runs.
    """
    result = WeightedDigraph.from_adjacency(_checked(g, part)[0].conjugated())
    if verify:
        _verify_switch(adjacency_matrix(g), adjacency_matrix(result), part)
    return result
