"""Shared random-instance generators.

Cell sizes are powers of two and weights small integers, so every quantity
the switching transform produces is a dyadic rational: double arithmetic is
exact, and exact-equality assertions (involution, loop invariance) are
meaningful. Cell-internal patterns are chosen so signed and absolute
row/column sums are constant, the class on which the edge-wise transform
agrees with conjugation to the last bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from seidelkit import SeidelPartition, WeightedDigraph, adjacency_matrix
from seidelkit.errors import SeidelKitError

CELL_SIZES = (2, 4, 8)


def _part_pattern(rng, vertices, symmetric_only, allow_loops=True, force_edges=False):
    """Regular pattern on one part: empty, cycle or complete, plus uniform loops."""
    n = len(vertices)
    edges = {}
    w = float(rng.integers(1, 4))
    styles = ["cycle", "complete"] if force_edges else ["empty", "cycle", "complete"]
    style = styles[int(rng.integers(0, len(styles)))]
    if style == "cycle":
        if n == 2:
            edges[(vertices[0], vertices[1])] = w
            edges[(vertices[1], vertices[0])] = w
        else:
            directed = (not symmetric_only) and rng.random() < 0.5
            for i in range(n):
                u, v = vertices[i], vertices[(i + 1) % n]
                edges[(u, v)] = w
                if not directed:
                    edges[(v, u)] = w
    elif style == "complete":
        for u in vertices:
            for v in vertices:
                if u != v:
                    edges[(u, v)] = w
    if allow_loops and rng.random() < 0.3:
        lw = float(rng.integers(1, 4))
        for u in vertices:
            edges[(u, u)] = lw
    return edges


def _scattered_partition(rng, sizes, d_size):
    order = sum(sizes) + d_size
    perm = iter(rng.permutation(order).tolist())
    cells = tuple(tuple(next(perm) for _ in range(s)) for s in sizes)
    d = tuple(next(perm) for _ in range(d_size))
    return order, cells, d


def random_seidel_instance(rng) -> tuple[WeightedDigraph, SeidelPartition]:
    """Valid switching graph: directed weights allowed, cross blocks included."""
    sizes = [int(rng.choice(CELL_SIZES)) for _ in range(int(rng.integers(1, 3)))]
    d_size = int(rng.integers(0, 4))
    order, cells, d = _scattered_partition(rng, sizes, d_size)
    edges = {}
    for cell in cells:
        edges.update(_part_pattern(rng, cell, symmetric_only=False))
    if d_size >= 2:
        edges.update(_part_pattern(rng, d, symmetric_only=False))

    for i, ci in enumerate(cells):
        for j, cj in enumerate(cells):
            if i == j or rng.random() < 0.5:
                continue
            if rng.random() < 0.5:
                c = float(rng.integers(1, 3))
                for u in ci:
                    for v in cj:
                        edges[(u, v)] = c
            else:
                # identical rows: constant row sums, varying column sums
                y = rng.integers(0, 3, size=len(cj)).astype(float)
                for u in ci:
                    for v, wv in zip(cj, y):
                        if wv:
                            edges[(u, v)] = float(wv)

    for v in d:
        for cell in cells:
            n = len(cell)
            roll = rng.random()
            if roll < 0.3:
                continue
            if roll < 0.7:
                members = rng.choice(len(cell), size=n // 2, replace=False)
                c_out = float(rng.integers(1, 4)) if rng.random() < 0.8 else 0.0
                c_in = float(rng.integers(1, 4)) if rng.random() < 0.8 else 0.0
                if not c_out and not c_in:
                    c_out = float(rng.integers(1, 4))
                for k in members:
                    if c_out:
                        edges[(v, cell[k])] = c_out
                    if c_in:
                        edges[(cell[k], v)] = c_in
            else:
                directions = [True] + ([False] if rng.random() < 0.5 else [])
                for outgoing in directions:
                    # avoid entries equal to 2s/n: they would switch to weight
                    # zero and change the attachment count
                    x = rng.integers(1, 5, size=n).astype(float)
                    while not np.all(x != 2.0 * x.sum() / n):
                        x = rng.integers(1, 5, size=n).astype(float)
                    for u, w in zip(cell, x):
                        edges[(v, u) if outgoing else (u, v)] = float(w)

    return WeightedDigraph(order, edges), SeidelPartition(cells=cells, d_cell=d)


def random_starlike_instance(rng, with_loops=True) -> tuple[WeightedDigraph, SeidelPartition]:
    """Valid starlike graph: symmetric nonnegative weights, no cross edges."""
    sizes = [int(rng.choice(CELL_SIZES)) for _ in range(int(rng.integers(1, 4)))]
    d_size = int(rng.integers(0, 5))
    order, cells, d = _scattered_partition(rng, sizes, d_size)
    edges = {}
    for i, cell in enumerate(cells):
        edges.update(
            _part_pattern(rng, cell, symmetric_only=True, allow_loops=with_loops,
                          force_edges=(i == 0))
        )
    if d_size >= 2:
        edges.update(_part_pattern(rng, d, symmetric_only=True, allow_loops=with_loops))

    for cell in cells:
        n = len(cell)
        hubs = list(d)
        rng.shuffle(hubs)
        p_count = int(rng.integers(0, len(hubs) + 1))
        cat1, rest = hubs[:p_count], hubs[p_count:]
        q_count = int(rng.choice([q for q in (0, 2, 4) if q <= len(rest)]))
        cat2 = rest[:q_count]
        if cat1:
            w1 = float(rng.integers(1, 4))
            for v in cat1:
                for u in cell:
                    edges[(v, u)] = w1
                    edges[(u, v)] = w1
        if cat2:
            w2 = float(rng.integers(1, 4))
            half = set(rng.choice(len(cell), size=n // 2, replace=False).tolist())
            for t, v in enumerate(cat2):
                mine = [u for k, u in enumerate(cell) if (k in half) == (t < q_count // 2)]
                for u in mine:
                    edges[(v, u)] = w2
                    edges[(u, v)] = w2
    return WeightedDigraph(order, edges), SeidelPartition(cells=cells, d_cell=d)


def heavy_cycle_instance() -> tuple[WeightedDigraph, SeidelPartition]:
    """A directed 3-cycle of weight 1e4 with one category-1 hub (1e3 in, 3e3
    out). The dense U A U rounds relative to these weights, about 1e-12
    away from the exact switch, which equals the input."""
    edges = {(0, 1): 1e4, (1, 2): 1e4, (2, 0): 1e4}
    for v in range(3):
        edges[(3, v)] = 1e3
        edges[(v, 3)] = 3e3
    return WeightedDigraph(4, edges), SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))


# two cells of 3 joined by a mirrored cross block, and three isolated hubs
MIRRORED_PART = SeidelPartition(cells=((0, 1, 2), (3, 4, 5)), d_cell=(6, 7, 8))


def mirrored_cross_block_instance(rng) -> WeightedDigraph:
    """Symmetric graph on MIRRORED_PART whose only edges join its two cells,
    with one-decimal weights in [0.1, 1]; a switch of it rounds."""
    a = np.zeros((9, 9))
    a[:3, 3:6] = np.round(rng.uniform(0.1, 1, (3, 3)), 1)
    a[3:6, :3] = a[:3, 3:6].T
    return WeightedDigraph.from_adjacency(a)


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def char_poly_exact(a) -> tuple:
    """Characteristic polynomial coefficients in exact rational arithmetic.

    Faddeev-LeVerrier over Fraction entries; similar matrices with dyadic
    entries get literally identical coefficient tuples, so this is a
    zero-tolerance cospectrality oracle for asymmetric matrices, where
    floating eigensolvers only reach ~1e-8 on repeated eigenvalues.
    """
    from fractions import Fraction

    n = len(a)
    rows = [[Fraction(x) for x in row] for row in np.asarray(a).tolist()]

    def matmul(x, y):
        return [
            [sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = []
    m = [[Fraction(0)] * n for _ in range(n)]
    c = Fraction(1)
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += c
        m = matmul(rows, m)
        c = -sum(m[i][i] for i in range(n)) / k
        coeffs.append(c)
    return tuple(coeffs)


@pytest.fixture
def eigensolves(monkeypatch):
    """The matrices passed to np.linalg.eigvals and eigvalsh during the test."""
    calls = []
    for solver in ("eigvals", "eigvalsh"):
        original = getattr(np.linalg, solver)
        monkeypatch.setattr(np.linalg, solver,
                            lambda m, *args, f=original, **kw: calls.append(m) or f(m, *args, **kw))
    return calls


@pytest.fixture
def symmetry_scans(monkeypatch):
    """The matrices `graph._exactly_symmetric` compared with their transposes
    during the test: a graph's at its birth, unless its symmetry was handed
    over, and any that the tolerance rule of `graph._symmetric` tested."""
    from seidelkit import graph

    scans = []
    monkeypatch.setattr(graph, "_exactly_symmetric",
                        lambda m, f=graph._exactly_symmetric: scans.append(m) or f(m))
    return scans


@pytest.fixture
def seidel_checks(monkeypatch):
    """The partitions `switching._checked` ran the Seidel checks on during the
    test, called from `switching` or from `starlike`."""
    from seidelkit import starlike, switching

    calls = []

    def counted(g, part, f=switching._checked):
        calls.append(part)
        return f(g, part)

    for module in (switching, starlike):
        monkeypatch.setattr(module, "_checked", counted)
    return calls


def outcome(f, *args, **kwargs):
    """The bytes of the adjacency matrix of the graph f returns, or the type
    and message of the domain error it raises."""
    try:
        return adjacency_matrix(f(*args, **kwargs)).tobytes()
    except SeidelKitError as e:
        return type(e), str(e)


def fresh(g: WeightedDigraph) -> WeightedDigraph:
    """An equal graph that has recorded no check."""
    return WeightedDigraph.from_adjacency(adjacency_matrix(g))


def mutated(rng, g: WeightedDigraph) -> WeightedDigraph:
    """g with one random entry set to another small integer weight in 0..3
    (0 deletes an edge), mirrored when g is symmetric; many such graphs fail
    a check. The entry always changes."""
    a = np.array(adjacency_matrix(g))
    u, v = rng.integers(0, g.order, 2)
    a[u, v] = rng.choice([w for w in (0.0, 1.0, 2.0, 3.0) if w != a[u, v]])
    if g.is_symmetric():
        a[v, u] = a[u, v]
    return WeightedDigraph.from_adjacency(a)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
