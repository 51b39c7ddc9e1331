"""Weighted multi-digraph model and its spectral matrices.

A graph is a vertex count plus a map from ordered vertex pairs to nonzero
real weights. Two vertices carry at most one edge per direction, so the only
multi-edges are oppositely oriented pairs; a pair (v, v) is a loop. The graph
is stored as one dense read-only float64 adjacency matrix, built once; the
edge map is a view of it, built only when asked for. All derived matrices
(adjacency, degree, Laplacian, signless Laplacian) are dense numpy arrays.

Built-in checks allow |delta| <= tol * (1 + max |entry|) of the matrix
compared, or |delta| <= tol for normalized states and unitaries; the `tol`
of `cospectral` goes through the same rule, other `tol` arguments are used
as given. EXACT_TOL = 1e-12 is for values a closed formula
computes in a few operations (symmetry, row sums, equal weights, traces, a
switch against U A U). NUMERIC_TOL = 1e-9 is for anything an eigensolver or
an SVD computes (spectra, realizability, the PSD floor, unitarity, the rank
cut at 1e-9 * s_max) and is every `tol` default.
"""

from __future__ import annotations

from collections import Counter
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    AsymmetricWeights,
    InvalidGraph,
    NotSquare,
    NotSymmetric,
    OrderMismatch,
    TooLarge,
    raise_first,
)

EXACT_TOL = 1e-12
NUMERIC_TOL = 1e-9
ISO_SEARCH_LIMIT = 12


def _within(x, tol: float, scale) -> np.ndarray:
    """Elementwise |x| <= tol * (1 + max |entry| of scale): the tolerance rule."""
    top = np.maximum(np.max(scale, initial=0.0), -np.min(scale, initial=0.0))  # no |scale| array
    return np.abs(x) <= tol * (1.0 + top)


def _symmetric(m: np.ndarray) -> bool:
    return bool(_within(m - m.T, EXACT_TOL, m).all())


def _square(m) -> np.ndarray:
    """m as a float array, after checking that it is a square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m


def _dense(order: int, rows, cols, weights) -> np.ndarray:
    """Adjacency matrix of parallel edge arrays, after checking their pairs and zeros."""
    if order < 1:
        raise InvalidGraph(f"order must be positive, got {order}")
    rows, cols, weights = (np.asarray(x, dtype=float) for x in (rows, cols, weights))
    pairs = np.stack([rows, cols])
    vertex_pair = np.all((pairs >= 0) & (pairs < order) & (pairs % 1 == 0), axis=0)
    raise_first(
        (~vertex_pair, lambda i: InvalidGraph(
            f"edge ({rows[i]:g}, {cols[i]:g}) outside vertex range 0..{order - 1}")),
        (weights == 0, lambda i: InvalidGraph(
            f"edge ({rows[i]:g}, {cols[i]:g}) stored with zero weight")),
    )
    a = np.zeros((order, order))
    a[rows.astype(np.intp), cols.astype(np.intp)] = weights
    return a


class WeightedDigraph:
    """Immutable weighted digraph with loops.

    `edges` maps ordered pairs (u, v) to weights. A stored weight is never
    zero (no edge and weight zero are the same thing), loop weights are
    strictly positive, and every weight is finite.
    """

    __slots__ = ("order", "_adjacency", "_edges")

    def __init__(self, order: int, edges: Mapping[tuple[int, int], float] | None = None):
        edges = edges or {}
        pairs = np.array(list(edges), dtype=float).reshape(-1, 2).T
        self._adopt(_dense(order, *pairs, np.fromiter(edges.values(), float, len(edges))))

    def _adopt(self, a: np.ndarray) -> None:
        raise_first(
            (~np.isfinite(a).all(axis=1), lambda v: InvalidGraph(
                f"vertex {v} has an edge of non-finite weight")),
            (np.diagonal(a) < 0, lambda v: InvalidGraph(
                f"loop at {v} must have positive weight, got {a[v, v]}")),
        )
        a.flags.writeable = False
        for name, value in (("order", len(a)), ("_adjacency", a), ("_edges", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (WeightedDigraph.from_adjacency, (self._adjacency,))

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "WeightedDigraph":
        """Graph of a square matrix (copied) whose entry (i, j) is the weight of i -> j."""
        a = np.array(_square(a))
        if not a.size:
            raise InvalidGraph("order must be positive, got 0")
        g = cls.__new__(cls)
        g._adopt(a)
        return g

    @classmethod
    def from_edges(cls, order: int, triples: Iterable[tuple[int, int, float]]) -> "WeightedDigraph":
        """Graph of (u, v, weight) triples; a list, or an array with one triple per row."""
        table = np.array(triples if isinstance(triples, np.ndarray) else list(triples), dtype=float)
        rows, cols, weights = table.reshape(-1, 3).T
        a = _dense(order, rows, cols, weights)
        # every pair is a vertex pair now, so equal keys mean equal pairs
        repeated = np.ones(len(rows), dtype=bool)
        repeated[np.unique(rows * order + cols, return_index=True)[1]] = False
        raise_first((repeated, lambda i: InvalidGraph(
            f"duplicate ordered pair ({rows[i]:g}, {cols[i]:g})")))
        g = cls.__new__(cls)
        g._adopt(a)
        return g

    @property
    def edges(self) -> Mapping[tuple[int, int], float]:
        """Read-only map from ordered pairs to weights, in row-major order."""
        if self._edges is None:
            rows, cols = np.nonzero(self._adjacency)
            weights = self._adjacency[rows, cols].tolist()
            edges = dict(zip(zip(rows.tolist(), cols.tolist()), weights))
            object.__setattr__(self, "_edges", MappingProxyType(edges))
        return self._edges

    def weight(self, u: int, v: int) -> float:
        """Weight of the directed edge u -> v, or 0.0 when absent."""
        if 0 <= u < self.order and 0 <= v < self.order:
            return float(self._adjacency[u, v])
        return 0.0

    def loop(self, v: int) -> float:
        return self.weight(v, v)

    def is_symmetric(self) -> bool:
        """True when w(u, v) == w(v, u) for every ordered pair."""
        return bool(np.array_equal(self._adjacency, self._adjacency.T))

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.order == other.order and bool(np.array_equal(self._adjacency, other._adjacency))

    def __repr__(self) -> str:
        return f"WeightedDigraph(order={self.order}, edges={dict(self.edges)!r})"


def adjacency_matrix(g: WeightedDigraph) -> np.ndarray:
    """Dense adjacency matrix; entry (i, j) is the weight of i -> j.

    This is the graph's own storage, so it is read-only.
    """
    return g._adjacency


def degree_matrix(g: WeightedDigraph) -> np.ndarray:
    """Diagonal matrix of degrees d_i = sum_j |a_ij| (loops counted once)."""
    return np.diag(np.abs(g._adjacency).sum(axis=1))


def _require_symmetric_weights(g: WeightedDigraph) -> None:
    a = g._adjacency
    rows, cols = np.nonzero(a != a.T)
    if rows.size:
        u, v = rows[0], cols[0]
        raise AsymmetricWeights(f"w({u}, {v}) = {a[u, v]} but w({v}, {u}) = {a[v, u]}")


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Laplacian D - A; defined only for symmetric weights."""
    _require_symmetric_weights(g)
    return degree_matrix(g) - g._adjacency


def signless_laplacian(g: WeightedDigraph) -> np.ndarray:
    """Signless Laplacian D + A; defined only for symmetric weights."""
    _require_symmetric_weights(g)
    return degree_matrix(g) + g._adjacency


def spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric real matrix.

    Raises NotSquare / NotSymmetric; the symmetry check follows the
    tolerance rule with EXACT_TOL.
    """
    m = _square(m)
    if not _symmetric(m):
        raise NotSymmetric(f"matrix is not symmetric within {EXACT_TOL:g} (1 + max |entry|)")
    return np.linalg.eigvalsh(m)


def _clusters(z: np.ndarray, radius: float) -> np.ndarray:
    """Cluster label of each complex point.

    Points are split wherever sorting them along the real or the imaginary
    axis leaves a gap wider than `radius`, alternating axes until neither
    splits any cluster further. Points closer than `radius` are never split
    apart, so every single-linkage cluster at that radius lies within one of
    these clusters.
    """
    labels = np.zeros(len(z), dtype=np.intp)
    count, unchanged, axis = 1, 0, 0
    while unchanged < 2:
        coord = (z.real, z.imag)[axis]
        order = np.lexsort((coord, labels))
        cut = np.ones(len(z), dtype=bool)
        cut[1:] = (np.diff(labels[order]) != 0) | (np.diff(coord[order]) > radius)
        labels[order] = np.cumsum(cut) - 1
        unchanged = unchanged + 1 if labels.max() + 1 == count else 0
        count, axis = labels.max() + 1, 1 - axis
    return labels


def _spectra(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of two square matrices of one order, for `_gap`: ascending and
    real when both are symmetric, else complex and sorted by (real, imag)."""
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise OrderMismatch(f"orders differ: {a.shape[0]} vs {b.shape[0]}")
    if _symmetric(a) and _symmetric(b):
        return np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    return np.sort_complex(np.linalg.eigvals(a)), np.sort_complex(np.linalg.eigvals(b))


def _gap(sa: np.ndarray, sb: np.ndarray, tol: float) -> float:
    """`spectral_gap` of two spectra as `_spectra` returns them."""
    if not np.iscomplexobj(sa):
        return float(np.max(np.abs(sa - sb), initial=0.0))
    z = np.concatenate([sa, sb])
    labels = _clusters(z, np.sqrt(tol) * (1.0 + np.max(np.abs(z))))
    side = np.repeat([1.0, -1.0], len(sa))  # +1 for the eigenvalues of a, -1 for b
    if np.any(np.bincount(labels, weights=side) != 0):
        return float("inf")
    difference = np.zeros(labels.max() + 1, dtype=complex)
    np.add.at(difference, labels, side * z)
    return float(np.max(np.abs(difference) / np.bincount(labels[: len(sa)])))


def spectral_gap(a: np.ndarray, b: np.ndarray, tol: float = NUMERIC_TOL) -> float:
    """How far apart the eigenvalue multisets of a and b are.

    Symmetric pairs: the largest difference between the ascending spectra.
    Otherwise both general spectra are pooled and clustered at radius
    sqrt(tol) * (1 + max |lambda|), which holds the spread a defective
    eigenvalue picks up in floating point. The gap is infinite when a cluster
    holds unequal numbers of eigenvalues of a and of b, and else the largest
    distance between their means over a cluster: a cluster mean is well
    conditioned even where its members are not.
    """
    return _gap(*_spectra(a, b), tol)


def cospectral(a: np.ndarray, b: np.ndarray, tol: float = NUMERIC_TOL) -> bool:
    """True when the eigenvalue multisets of a and b match under the
    tolerance rule: spectral_gap(a, b, tol) <= tol * (1 + max |entry|).

    See `spectral_gap` for the comparison. Unitary conjugates of asymmetric
    adjacency matrices, defective ones included, are covered by the general
    path.
    """
    a, b = _square(a), _square(b)
    # the extremes of a and b bound max |entry| without a temporary matrix
    scale = [f(x, initial=0.0) for f in (np.min, np.max) for x in (a, b)]
    return bool(_within(spectral_gap(a, b, tol), tol, scale))


def _vertex_signature(a: np.ndarray, v: int) -> tuple:
    # loop weight plus sorted out/in weight rows pin down everything a
    # relabeling can never change
    return (a[v, v], tuple(np.sort(a[v])), tuple(np.sort(a[:, v])))


def brute_force_isomorphic(g: WeightedDigraph, h: WeightedDigraph) -> bool:
    """Exhaustive weight-preserving vertex bijection search.

    Backtracking over vertex assignments, pruned by per-vertex signatures
    (loop weight, sorted out- and in-weight rows). Limited to order 12.
    """
    if g.order != h.order:
        raise OrderMismatch(f"orders differ: {g.order} vs {h.order}")
    if g.order > ISO_SEARCH_LIMIT:
        raise TooLarge(f"isomorphism search limited to order {ISO_SEARCH_LIMIT}")
    a = adjacency_matrix(g)
    b = adjacency_matrix(h)
    n = g.order
    sig_a = [_vertex_signature(a, v) for v in range(n)]
    sig_b = [_vertex_signature(b, v) for v in range(n)]
    if Counter(sig_a) != Counter(sig_b):
        return False
    candidates = [[j for j in range(n) if sig_b[j] == sig_a[i]] for i in range(n)]
    # assign the most constrained vertices first
    order_by = sorted(range(n), key=lambda i: len(candidates[i]))
    assign = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        i = order_by[k]
        for j in candidates[i]:
            if used[j]:
                continue
            ok = True
            for prev in order_by[:k]:
                p = assign[prev]
                if a[i, prev] != b[j, p] or a[prev, i] != b[p, j]:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                used[j] = False
        return False

    return extend(0)
