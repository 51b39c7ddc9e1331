"""Laplacian- and signless-Laplacian-cospectral pairs via switching.

On a starlike graph all vertices of a cell have one degree, so the switching
operator U commutes with the degree matrix Deg and U (Deg -/+ A) U =
Deg -/+ U A U: the switch of M = L(G) or Q(G) is the switch of A, which
keeps loops and degrees. So L(G') (resp. Q(G')) shares its spectrum with
L(G) (resp. Q(G)), and `kind` only selects the M that a certificate checks.

The starlike conditions are sufficient for this, not necessary. They read
the hub table of `switching`; a category-2 hub's half is one count, of the
vertices it shares with its cell's first category-2 hub: n/2 for the same
half, 0 for the complement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    CrossCellEdge,
    NegativeLoopWeight,
    NonComplementaryHalves,
    NonuniformCategory1Weights,
    NonuniformCategory2Weights,
    NotRealizable,
    OddCategory2Count,
    OrderMismatch,
    raise_first,
)
from .graph import (
    NUMERIC_TOL, WeightedDigraph, _require_symmetric_weights, _within, adjacency_matrix, laplacian,
    signless_laplacian,
)
from .switching import SeidelPartition, _checked, _in_partition_order, _Partitioned, _verify_switch
from .switching import validate_seidel  # noqa: F401  kept importable from this module


class SpectralKind(enum.Enum):
    LAPLACIAN = "laplacian"
    SIGNLESS = "signless"


def spectral_matrix(g: WeightedDigraph, kind: SpectralKind) -> np.ndarray:
    return laplacian(g) if kind is SpectralKind.LAPLACIAN else signless_laplacian(g)


@dataclass(frozen=True)
class StarlikeCellProfile:
    """Uniform attachment weights of one cell.

    w_plus / w_minus are the category-1 weights (hub to cell / cell to hub),
    w_half_plus / w_half_minus the category-2 ones; a weight is 0.0 when that
    direction carries no edges. q is the number of category-2 hub vertices.
    """

    cell_index: int
    w_plus: float
    w_minus: float
    w_half_plus: float
    w_half_minus: float
    p: int
    q: int
    r: int


def validate_starlike(g: WeightedDigraph, part: SeidelPartition) -> list[StarlikeCellProfile]:
    """Check the starlike conditions on top of the switching-graph ones.

    No edges may run between distinct cells; category-1 edges share one
    weight per direction across each cell; the category-2 vertices of each
    cell come in an even number, split evenly between one half of the cell
    and its complement, again with one weight per direction.
    """
    return _starlike(g, part)[1]


def _starlike(g: WeightedDigraph, part: SeidelPartition) -> tuple[_Partitioned, list]:
    """Run the checks of `validate_starlike`; return the adjacency matrix in
    partition order and the cell profiles."""
    blocks, table = _checked(g, part)
    k, m, sizes = len(part.cells), blocks.m, blocks.sizes
    cell_of = np.repeat(np.arange(k), sizes)  # cell of each cell vertex, in partition order
    cross = (blocks.p[:m, :m] != 0) & (cell_of[:, None] != cell_of)
    if cross.any():
        rows, cols = np.nonzero(cross)
        j = np.lexsort((cols, rows, cell_of[cols], cell_of[rows]))[0]
        u, v = blocks.perm[rows[j]], blocks.perm[cols[j]]
        i, i2 = cell_of[rows[j]], cell_of[cols[j]]
        raise CrossCellEdge(f"edge ({u}, {v}) joins cell {i} to cell {i2}")

    category, cat2 = table.category, table.category == 2
    p, q, r = (np.count_nonzero(category == c, axis=1) for c in (1, 2, 3))
    # every category-2 hub must attach to the half of its cell's first one,
    # or to the complement, as many to each
    reference = np.zeros(m, dtype=bool)
    if q.any():
        reference = table.attached[np.arange(m), np.argmax(cat2, axis=1)[cell_of]]
    overlap = blocks.per_cell(np.add, table.attached & reference[:, None], axis=0)
    same, flipped = cat2 & (2 * overlap == sizes[:, None]), cat2 & (overlap == 0)
    broken = (q > 0) & (np.any(cat2 & ~(same | flipped), axis=1) | ~flipped.any(axis=1))

    # per category (1, 2) and direction: the one weight the hubs carry where
    # they attach (0.0 for none), and whether they carry more than one
    mask = np.stack((category == 1, cat2))[:, None]
    nonzero = (mask & (table.present > 0)).any(axis=3)
    zero = (mask & (table.present < table.count)).any(axis=3)
    hi = np.where(mask, table.hi, -np.inf).max(axis=3, initial=-np.inf)
    lo = np.where(mask, table.lo, np.inf).min(axis=3, initial=np.inf)
    weights = np.where(nonzero, hi, 0.0).reshape(4, k)
    faults = (nonzero & (zero | (hi != lo))).reshape(4, k)

    def nonuniform(error, c, direction):
        def make(i):
            s, n, hubs = blocks.starts[i], sizes[i], category[i] == c
            values = table.w[direction][s : s + n, hubs][table.attached[s : s + n, hubs]]
            return error(f"cell {i}: weights {np.unique(values).tolist()} are not uniform")

        return make

    def not_halves(i):
        s, n = blocks.starts[i], sizes[i]
        halves = len(np.unique(table.attached[s : s + n, cat2[i]].T, axis=0))
        return NonComplementaryHalves(f"cell {i}: category-2 vertices use {halves} distinct halves"
                                      if halves != 2 else
                                      f"cell {i}: attachment halves are not complementary")

    raise_first(
        (faults[0], nonuniform(NonuniformCategory1Weights, 1, 0)),
        (faults[1], nonuniform(NonuniformCategory1Weights, 1, 1)),
        (q % 2 != 0, lambda i: OddCategory2Count(f"cell {i} has {q[i]} category-2 hub vertices")),
        (broken, not_halves),
        (same.sum(axis=1) != flipped.sum(axis=1), lambda i: NonComplementaryHalves(
            f"cell {i}: halves carry {same[i].sum()} and {flipped[i].sum()} vertices")),
        (faults[2], nonuniform(NonuniformCategory2Weights, 2, 0)),
        (faults[3], nonuniform(NonuniformCategory2Weights, 2, 1)),
    )
    return blocks, [
        StarlikeCellProfile(i, *(float(w) for w in weights[:, i]), int(p[i]), int(q[i]), int(r[i]))
        for i in range(k)
    ]


def lift_graph(g: WeightedDigraph, kind: SpectralKind) -> WeightedDigraph:
    """Graph whose adjacency matrix is L(G) or Q(G).

    Every vertex with a positive diagonal acquires a loop of weight
    d_i -/+ a_ii; off-diagonal entries become -a_ij (Laplacian) or +a_ij.
    Requires symmetric weights, like the Laplacians themselves.
    """
    return WeightedDigraph.from_adjacency(spectral_matrix(g, kind))


def project_graph(h: WeightedDigraph, kind: SpectralKind) -> WeightedDigraph:
    """Inverse of lift_graph: recover G' with L(G') (or Q(G')) = A(H).

    Signless case: off-diagonals carry over and the loop weight is
    (a_ii - sum_j |a_ij|) / 2 per vertex, which must be nonnegative; one
    within NUMERIC_TOL (1 + max |entry|) of 0 is dropped. The loops are
    recomputed, so project_graph(lift_graph(g)) is exact only on dyadic
    weights; elsewhere a loop may differ in its last bits.
    Laplacian case: off-diagonals flip sign and no loop can contribute to
    the diagonal (a positive loop adds |l| to the degree and cancels against
    itself), so a_ii must equal the off-diagonal absolute row sum exactly
    and G' is loopless.
    """
    _require_symmetric_weights(h)
    m = adjacency_matrix(h)
    sign = 1.0 if kind is SpectralKind.SIGNLESS else -1.0
    diag = np.diagonal(m)
    out = sign * m + 0.0  # + 0.0 turns the -0.0 of sign * 0.0 into 0.0
    np.fill_diagonal(out, 0.0)
    off_sums = np.abs(out).sum(axis=1)
    if kind is SpectralKind.SIGNLESS:
        loops = (diag - off_sums) / 2.0
        small = _within(loops, NUMERIC_TOL, m)
        raise_first((~small & (loops < 0), lambda v: NegativeLoopWeight(
            f"vertex {v}: diagonal {diag[v]} below off-diagonal sum {off_sums[v]}")))
        np.fill_diagonal(out, np.where(small, 0.0, loops))
    else:
        raise_first((~_within(diag - off_sums, NUMERIC_TOL, m), lambda v: NotRealizable(
            f"vertex {v}: diagonal {diag[v]} != off-diagonal absolute sum {off_sums[v]}")))
    return WeightedDigraph.from_adjacency(out)


def lq_switch(
    g: WeightedDigraph,
    part: SeidelPartition,
    kind: SpectralKind,
    force: bool = False,
    verify: bool = False,
) -> WeightedDigraph:
    """Produce G' sharing the Laplacian (or signless-Laplacian) spectrum of G.

    G' is the switch of A(G): on a starlike graph each cell has one degree,
    so U commutes with Deg and M(G') = Deg -/+ U A U = U M U. Loops and
    degrees carry over for either kind; `kind` only selects the M = L or Q
    that a certificate checks. force=True skips the (merely sufficient)
    starlike validation and certifies M(G') = U M U, as verify=True does; a
    forced switch that is not L/Q-cospectral raises VerificationFailed.
    """
    blocks = _in_partition_order(g, part) if force else _starlike(g, part)[0]
    _require_symmetric_weights(g)
    result = WeightedDigraph.from_adjacency(blocks.conjugated())
    if force or verify:
        _verify_switch(spectral_matrix(g, kind), spectral_matrix(result, kind), part)
    return result


def loop_weights_preserved(g: WeightedDigraph, g_prime: WeightedDigraph) -> bool:
    """True when every loop weight matches exactly between the two graphs."""
    if g.order != g_prime.order:
        raise OrderMismatch(f"orders differ: {g.order} vs {g_prime.order}")
    return bool(
        np.array_equal(np.diagonal(adjacency_matrix(g)), np.diagonal(adjacency_matrix(g_prime)))
    )
