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
    NUMERIC_TOL, WeightedDigraph, _require_symmetric_weights, _down, _scaled, _tie, _within,
    adjacency_matrix, laplacian, signless_laplacian,
)
from .switching import SeidelPartition, _checked, _switched, _verify_switch
from .switching import validate_seidel  # noqa: F401  kept importable from this module


class SpectralKind(enum.Enum):
    LAPLACIAN = "laplacian"
    SIGNLESS = "signless"


def spectral_matrix(g: WeightedDigraph, kind: SpectralKind) -> np.ndarray:
    """L(G) or Q(G), as a new read-only matrix tied to (g, kind).

    The matrix cannot be made writable again. Its spectrum is solved at
    most once per graph and kind: the first solve by `cospectral`,
    `spectral_gap` or `density_from_graph` of a matrix this returns is
    recorded with g, and read for every later matrix of g and kind. An
    array of the caller's own, a copy of this one included, is solved on
    every call.
    """
    m = laplacian(g) if kind is SpectralKind.LAPLACIAN else signless_laplacian(g)
    return _tie(m, g, ("spectrum", kind))


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

    The graph remembers the cell profiles of a check that passed: a later
    call for an equal partition, or an `lq_switch`, does not check again.
    Each call returns a new list.
    """
    recorded = g._facts.get(("starlike", part))
    return list(_starlike(g, part) if recorded is None else recorded)


def _starlike(g: WeightedDigraph, part: SeidelPartition) -> tuple[StarlikeCellProfile, ...]:
    """Run the checks of `validate_starlike`; return the cell profiles, which
    g records."""
    table, lay = _checked(g, part), part._layout
    k, m, sizes, cell_of = len(part.cells), lay.m, lay.sizes, lay.cell_of
    # every edge lies in a diagonal block, a hub row or column, or joins two cells
    a = adjacency_matrix(g)
    if np.count_nonzero(a) > table.nonzero_inside + np.add.reduce(table.w != 0, axis=None):
        cells = lay.perm[:m]
        cross = (a[cells[:, None], cells] != 0) & (cell_of[:, None] != cell_of)
        rows, cols = np.nonzero(cross)
        j = np.lexsort((cols, rows, cell_of[cols], cell_of[rows]))[0]
        u, v = lay.perm[rows[j]], lay.perm[cols[j]]
        i, i2 = cell_of[rows[j]], cell_of[cols[j]]
        raise CrossCellEdge(f"edge ({u}, {v}) joins cell {i} to cell {i2}")

    kinds = table.kinds  # per category 1, 2, 3, cell and hub
    cat2 = kinds[1]
    # every category-2 hub must attach to the half of its cell's first one,
    # or to the complement, as many to each
    reference = np.zeros(m, dtype=bool)
    if cat2.shape[1]:
        reference = table.attached[np.arange(m), cat2.argmax(axis=1)[cell_of]]
    overlap = np.add.reduceat(table.attached & reference[:, None], lay.starts, axis=0)
    same, flipped = cat2 & (2 * overlap == sizes[:, None]), cat2 & (overlap == 0)
    p, q, r, stray, n_same, n_flipped = np.add.reduce(
        np.concatenate((kinds, [cat2 & ~(same | flipped), same, flipped])), axis=2)
    broken = (q > 0) & ((stray > 0) | (n_flipped == 0))

    # per category (1, 2) and direction: the one weight the hubs carry where
    # they attach (0.0 for none), and whether they carry more than one
    mask = kinds[:2, None]
    nonzero, zero = np.logical_or.reduce(
        mask & np.array([table.present > 0, table.present < table.count])[:, None], axis=4)
    hi, neg_lo = np.maximum.reduce(
        np.where(mask, np.array([table.hi, -table.lo])[:, None], -np.inf), axis=4, initial=-np.inf)
    weights = np.where(nonzero, hi, 0.0).reshape(4, k)
    faults = (nonzero & (zero | (hi != -neg_lo))).reshape(4, k)

    def nonuniform(error, c, direction, i):
        s, n, hubs = lay.starts[i], sizes[i], kinds[c - 1, i]
        values = table.w[direction][s : s + n, hubs][table.attached[s : s + n, hubs]]
        return error(f"cell {i}: weights {np.unique(values).tolist()} are not uniform")

    def not_halves(i):
        s, n = lay.starts[i], sizes[i]
        halves = len(np.unique(table.attached[s : s + n, cat2[i]].T, axis=0))
        return NonComplementaryHalves(f"cell {i}: category-2 vertices use {halves} distinct halves"
                                      if halves != 2 else
                                      f"cell {i}: attachment halves are not complementary")

    raise_first(
        (faults[0], lambda i: nonuniform(NonuniformCategory1Weights, 1, 0, i)),
        (faults[1], lambda i: nonuniform(NonuniformCategory1Weights, 1, 1, i)),
        (q % 2 != 0, lambda i: OddCategory2Count(f"cell {i} has {q[i]} category-2 hub vertices")),
        (broken, not_halves),
        (n_same != n_flipped, lambda i: NonComplementaryHalves(
            f"cell {i}: halves carry {n_same[i]} and {n_flipped[i]} vertices")),
        (faults[2], lambda i: nonuniform(NonuniformCategory2Weights, 2, 0, i)),
        (faults[3], lambda i: nonuniform(NonuniformCategory2Weights, 2, 1, i)),
    )
    profiles = tuple(map(StarlikeCellProfile, range(k), *weights.tolist(), p.tolist(), q.tolist(),
                         r.tolist()))
    g._facts["starlike", part] = profiles
    return profiles


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
    and G' is loopless. The sums run on A(H) 2^-s (see `_down`).
    """
    _require_symmetric_weights(h)
    m = adjacency_matrix(h)
    sign = 1.0 if kind is SpectralKind.SIGNLESS else -1.0
    diag = np.diagonal(m)
    out = sign * m + 0.0  # + 0.0 turns the -0.0 of sign * 0.0 into 0.0
    np.fill_diagonal(out, 0.0)
    s, _, m, off, d = _down(h.order + 1, m, out, diag, top=h._top)
    off = np.abs(off).sum(axis=1)
    if kind is SpectralKind.SIGNLESS:
        loops = (d - off) / 2.0
        small = _within(loops, NUMERIC_TOL, m, s)
        raise_first((~small & (loops < 0), lambda v: NegativeLoopWeight(
            f"vertex {v}: diagonal {diag[v]} below off-diagonal sum {_scaled(off[v], s)}")))
        np.fill_diagonal(out, np.where(small, 0.0, _scaled(loops, s)))
    else:
        raise_first((~_within(d - off, NUMERIC_TOL, m, s), lambda v: NotRealizable(
            f"vertex {v}: diagonal {diag[v]} != off-diagonal absolute sum {_scaled(off[v], s)}")))
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
    Without force, the starlike validation runs unless `validate_starlike`
    already passed on g and an equal partition; the switch takes nothing
    from it but its verdict. The switch reads the partition order that the
    partition builds once, and permutes A once. G' takes the switched matrix
    without a copy, and is born symmetric: the switch of a symmetric A is
    exactly symmetric (`switching`), so G' is never scanned.
    """
    if ("starlike", part) not in g._facts:  # else a check passed, on a cover of g
        if force:
            part.check_cover(g.order)
        else:
            _starlike(g, part)
    _require_symmetric_weights(g)
    result = _switched(g, part)
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
