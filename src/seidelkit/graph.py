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

Finite entries may sum past the float range, so every site that sums or
subtracts entries runs on A 2^-s, s >= 0 the least exponent that keeps its
sums in range (`_down`), and multiplies the result back by 2^s (`_scaled`);
an overflow there is inf, and the site raises its domain error. Tolerance
bounds keep the units of A: the 1 of tol * (1 + top) is 2^-s there. Scaling
by a power of two is exact and commutes with the switch and with spectra;
s = 0 at any ordinary scale, where A itself is read.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import weakref
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
# Above this order the two spectra of a pair may be solved on two threads
# (see _concurrent). Two concurrent eigvals solves against two serial ones,
# 2-CPU host, numpy 2.4.6, one BLAS thread: 0.88-1.15x at orders 64-480
# (64-384, then 416, 448 and 480), 1.31-2.08x at orders 512-1152.
# The cut sits between the measured 480 and 512.
_CONCURRENT_ORDER = 500


def _bound(tol: float, top, s: int = 0):
    """tol * (1 + top), the tolerance rule's bound for top = max |entry|, in units of 2^s."""
    return tol * (2.0**-s + top)


def _top(x):
    """max |entry| of x (0.0 for none) without an |x| array; NaN for a NaN entry."""
    return np.maximum(np.maximum.reduce(x, axis=None, initial=0.0),
                      -np.minimum.reduce(x, axis=None, initial=0.0))


def _down(terms: int, *xs, top=None):
    """(s, top, *xs) times 2^-s, s >= 0 least so `terms` entries of top (max |x|) sum in range."""
    top = np.max([_top(x) for x in xs]) if top is None else top
    s = max(0, math.frexp(top)[1] + (terms - 1).bit_length() - 1023)  # 0 for a non-finite top
    return (s, _scaled(top, -s), *(_scaled(x, -s) for x in xs))


def _scaled(x, s: int):
    """x * 2^s, exactly; x itself for s = 0, and inf with no warning past the float range."""
    with np.errstate(over="ignore"):
        return np.multiply(x, 2.0**s) if s else x


def _within(x, tol: float, scale, s: int = 0) -> np.ndarray:
    """Elementwise |x| <= tol * (1 + max |entry| of scale), in units of 2^s: the tolerance rule."""
    return np.abs(x) <= _bound(tol, _top(scale), s)


def _exactly_symmetric(m: np.ndarray) -> bool:
    """m == m.T entry for entry, as np.array_equal(m, m.T) decides it (a NaN
    equals nothing). Row 0 is compared with column 0 first, so an asymmetric
    matrix is almost always decided without the full comparison."""
    return not len(m) or bool(np.logical_and.reduce(m[0] == m[:, 0])
                              and np.logical_and.reduce(m == m.T, axis=None))


def _symmetric(m: np.ndarray) -> bool:
    """m == m.T under the tolerance rule with EXACT_TOL, which runs only when
    `_exactly_symmetric` fails or m holds a non-finite entry; such an entry
    fails the rule, as it always did."""
    if _exactly_symmetric(m) and np.isfinite(m).all():
        return True
    s, top, x = _down(2, m)
    return bool(np.isfinite(top) and (np.abs(x - x.T) <= _bound(EXACT_TOL, top, s)).all())


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
    if order > math.isqrt(np.iinfo(np.intp).max // 8):  # numpy's bound on its bytes
        raise InvalidGraph(f"order {order} is too large for an order x order matrix")
    rows, cols, weights = (np.asarray(x, dtype=float) for x in (rows, cols, weights))
    pairs = np.stack([rows, cols])
    # floor, not % 1, which warns on a non-finite endpoint
    vertex_pair = np.all((pairs >= 0) & (pairs < order) & (pairs == np.floor(pairs)), axis=0)
    raise_first(
        (~vertex_pair, lambda i: InvalidGraph(
            f"edge ({rows[i]:g}, {cols[i]:g}) outside vertex range 0..{order - 1}")),
        (weights == 0, lambda i: InvalidGraph(
            f"edge ({rows[i]:g}, {cols[i]:g}) stored with zero weight")),
    )
    a = np.zeros((order, order))
    a[rows.astype(np.intp), cols.astype(np.intp)] = weights
    return a


# matrices tied to a graph's record by `_tie`: id -> (weak reference to the
# matrix, the graph's _facts, the record's key); an entry goes with its matrix
_TIED: dict[int, tuple] = {}


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, which is made read-only too: numpy refuses to
    make a view of a read-only array writable again, so no caller can."""
    a.flags.writeable = False
    return a.view()


class WeightedDigraph:
    """Immutable weighted digraph with loops.

    `edges` maps ordered pairs (u, v) to weights. A stored weight is never
    zero (no edge and weight zero are the same thing), loop weights are
    strictly positive, and every weight is finite.

    Whether the weights are symmetric is decided when the graph is built,
    by `_exactly_symmetric`, or handed over by the switch that built it (see
    `switching`); so is max |w|, the scale of the tolerance rule, in one
    pass that also finds a non-finite weight. Since the graph never
    changes, it also remembers, per partition, the cell profiles of a
    `validate_starlike` that passed, so validate-then-`lq_switch` checks
    once; a check that fails is not remembered and fails the same way
    again. It also remembers the first spectrum solved of its Laplacian or
    signless Laplacian, as `spectral_matrix` returns them, so `cospectral`
    and `density_from_graph` solve each once. A copy or pickle is a new
    graph: it scans its weights and remembers no check and no spectrum.
    """

    # _top: max |w|; _facts: the cell profiles of passed starlike checks,
    # keyed by ("starlike", partition), and read-only L/Q spectra, keyed by
    # ("spectrum", kind); O(n) arrays at most, never n x n
    __slots__ = ("order", "_adjacency", "_symmetric", "_top", "_edges", "_facts")

    def __init__(self, order: int, edges: Mapping[tuple[int, int], float] | None = None):
        edges = edges or {}
        pairs = np.array(list(edges), dtype=float).reshape(-1, 2).T
        self._adopt(_dense(order, *pairs, np.fromiter(edges.values(), float, len(edges))))

    def _adopt(self, a: np.ndarray, symmetric: bool | None = None) -> None:
        top = _top(a)  # finite exactly when every weight is; rows are scanned to name one
        nonfinite = np.zeros(len(a), bool) if np.isfinite(top) else ~np.isfinite(a).all(axis=1)
        raise_first(
            (nonfinite, lambda v: InvalidGraph(f"vertex {v} has an edge of non-finite weight")),
            (a.diagonal() < 0, lambda v: InvalidGraph(
                f"loop at {v} must have positive weight, got {a[v, v]}")),
        )
        a = _frozen(a)
        if symmetric is None:
            symmetric = _exactly_symmetric(a)
        for name, value in (("order", len(a)), ("_adjacency", a), ("_symmetric", symmetric),
                            ("_top", float(top)), ("_edges", None), ("_facts", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (WeightedDigraph.from_adjacency, (self._adjacency,))

    @classmethod
    def _of(cls, a: np.ndarray, symmetric: bool | None = None) -> "WeightedDigraph":
        """Graph that takes over a new square float matrix, without a copy;
        symmetric=None scans it for its symmetry, True or False is the answer."""
        g = cls.__new__(cls)
        g._adopt(a, symmetric)
        return g

    @classmethod
    def from_adjacency(cls, a: np.ndarray) -> "WeightedDigraph":
        """Graph of a square matrix (copied) whose entry (i, j) is the weight of i -> j."""
        a = np.array(_square(a))
        if not a.size:
            raise InvalidGraph("order must be positive, got 0")
        return cls._of(a)

    @classmethod
    def from_edges(cls, order: int, triples: Iterable[tuple[int, int, float]]) -> "WeightedDigraph":
        """Graph of (u, v, weight) triples: a list of them, or an array of
        shape (k, 3) with one triple per row. An empty input has no edges;
        any other shape, or a row that is not three numbers, raises
        InvalidGraph."""
        items = triples if isinstance(triples, np.ndarray) else list(triples)
        try:
            table = np.asarray(items, dtype=float)  # a float table is read, not copied
        except (TypeError, ValueError):
            shapes = {np.array(item, dtype=object).shape for item in items}  # ragged rows too
            if len(shapes) > 1:
                raise InvalidGraph(f"edges must be (u, v, weight) triples, "
                                   f"got rows of shapes {sorted(shapes)}") from None
            for item in items:  # the first row that holds something other than numbers
                try:
                    np.array(item, dtype=float)
                except (TypeError, ValueError):
                    raise InvalidGraph(f"edges must be (u, v, weight) triples of numbers, "
                                       f"got {item!r}") from None
            raise
        if table.shape == (0,):
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise InvalidGraph(f"edges must be (u, v, weight) triples, a table of shape (k, 3); "
                               f"got shape {table.shape}")
        rows, cols, weights = table.T
        a = _dense(order, rows, cols, weights)
        if np.count_nonzero(a) != len(rows):  # no weight is zero, so a pair repeats
            # every pair is a vertex pair now, so equal keys mean equal pairs
            repeated = np.ones(len(rows), dtype=bool)
            repeated[np.unique(rows * order + cols, return_index=True)[1]] = False
            raise_first((repeated, lambda i: InvalidGraph(
                f"duplicate ordered pair ({rows[i]:g}, {cols[i]:g})")))
        return cls._of(a)

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
        """True when w(u, v) == w(v, u) for every ordered pair, as decided
        when the graph was built."""
        return self._symmetric

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self.order == other.order and bool(np.array_equal(self._adjacency, other._adjacency))

    def __repr__(self) -> str:
        return f"WeightedDigraph(order={self.order}, edges={dict(self.edges)!r})"


def adjacency_matrix(g: WeightedDigraph) -> np.ndarray:
    """Dense adjacency matrix; entry (i, j) is the weight of i -> j.

    This is a view of the graph's own storage, so it is read-only, and
    numpy refuses to make it writable again.
    """
    return g._adjacency


def degree_matrix(g: WeightedDigraph) -> np.ndarray:
    """Diagonal matrix of degrees d_i = sum_j |a_ij| (loops counted once)."""
    return np.diag(_degrees(g, np.abs(g._adjacency)))


def _degrees(g: WeightedDigraph, m: np.ndarray, combine=np.add, loops=0.0) -> np.ndarray:
    """combine(d, loops) for the row sums d of m = |A|; InvalidGraph past the float range."""
    s, _, m, loops = _down(g.order + 1, m, loops, top=g._top)
    d = _scaled(combine(np.add.reduce(m, axis=1), loops), s)
    raise_first((~np.isfinite(d), lambda v: InvalidGraph(
        f"the weights at vertex {v} sum past the float range")))
    return d


def _with_degrees(g: WeightedDigraph, combine) -> np.ndarray:
    """combine(degree_matrix(g), A), combine being np.subtract or np.add, in
    one n x n array, which first holds |A| for the degree sums; off the
    diagonal combine(0.0, a) is what the dense Deg gives, -0.0 included."""
    _require_symmetric_weights(g)
    a = g._adjacency
    m = np.abs(a)
    diagonal = _degrees(g, m, combine, a.diagonal())
    combine(0.0, a, out=m)
    m.flat[:: a.shape[0] + 1] = diagonal
    return m


def _require_symmetric_weights(g: WeightedDigraph) -> None:
    if not g._symmetric:
        a = g._adjacency
        u, v = np.argwhere(a != a.T)[0]
        raise AsymmetricWeights(f"w({u}, {v}) = {a[u, v]} but w({v}, {u}) = {a[v, u]}")


def laplacian(g: WeightedDigraph) -> np.ndarray:
    """Laplacian D - A; defined only for symmetric weights."""
    return _with_degrees(g, np.subtract)


def signless_laplacian(g: WeightedDigraph) -> np.ndarray:
    """Signless Laplacian D + A; defined only for symmetric weights."""
    return _with_degrees(g, np.add)


def spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric real matrix.

    Raises NotSquare / NotSymmetric; the symmetry check follows the
    tolerance rule with EXACT_TOL.
    """
    m = _square(m)
    if not _symmetric(m):
        raise NotSymmetric(f"matrix is not symmetric within {EXACT_TOL:g} (1 + max |entry|)")
    w = np.linalg.eigvalsh(m)  # LAPACK scales m itself; only an eigenvalue may overflow
    if not np.isfinite(w).all():
        raise InvalidGraph("an eigenvalue of the matrix passes the float range")
    return w


def _tie(m: np.ndarray, g: WeightedDigraph, key) -> np.ndarray:
    """A read-only view of the new matrix m, tied to g's record `key`: the
    first `_eigvalsh` of a matrix tied to it is recorded with g, later ones
    read that record. The tie lasts as long as the view."""
    m = _frozen(m)
    # the callback, called with the dead reference, is _TIED.pop(id(m), ref)
    _TIED[id(m)] = (weakref.ref(m, functools.partial(_TIED.pop, id(m))), g._facts, key)
    return m


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(m). For a matrix of `_tie` it is the spectrum
    recorded with its graph, solved, made read-only and recorded on the
    first call; the weak reference makes sure that m itself is the tied
    matrix, not a later array that reuses its id."""
    tie = _TIED.get(id(m))
    if tie is None or tie[0]() is not m:
        return np.linalg.eigvalsh(m)
    _, facts, key = tie
    if key not in facts:
        facts[key] = _frozen(np.linalg.eigvalsh(m))
    return facts[key]


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads() -> int | None:
    """The BLAS thread count the environment pins, or None if it pins none.

    OpenBLAS takes the first positive count of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS; MKL that of MKL_NUM_THREADS and
    OMP_NUM_THREADS. The count is known only when both are pinned, and is the
    larger. BLAS reads these variables when it loads, with numpy."""
    def first(*names):
        for name in names:
            value = os.environ.get(name, "").strip()
            if value.isdecimal() and int(value) > 0:
                return int(value)
        return None

    counts = (first("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
              first("MKL_NUM_THREADS", "OMP_NUM_THREADS"))
    return None if None in counts else max(counts)


def _concurrent(order: int) -> bool:
    """Whether a pair of this order is solved on two threads: above
    _CONCURRENT_ORDER, when BLAS is pinned to t threads and the process may
    run on at least 2t CPUs. Two solves on an unpinned BLAS compete for the
    same cores and run slower than one after the other."""
    if order <= _CONCURRENT_ORDER:
        return False
    threads = _blas_threads()
    return threads is not None and _usable_cpus() >= 2 * threads


def _solve_both(solve, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve(a) and solve(b); when `_concurrent(len(a))`, b is solved on a
    worker thread while the caller solves a. The worker is joined even when
    the caller's solve raises, and its exception is re-raised here."""
    if not _concurrent(len(a)):
        return solve(a), solve(b)
    out: list = [None]

    def work():
        try:
            out[0] = solve(b)
        except BaseException as e:
            out[0] = e

    worker = threading.Thread(target=work)
    worker.start()
    try:
        sa = solve(a)
    finally:
        worker.join()
    if isinstance(out[0], BaseException):
        raise out[0]
    return sa, out[0]


def _compared(a: np.ndarray, b: np.ndarray, tol: float) -> tuple:
    """(gap, s, top, spectrum of a, of b) of square matrices of one order, in units of 2^s
    (`_down`): ascending and real spectra when both are symmetric, else complex and sorted by
    (real, imag); a symmetric `spectral_matrix` is solved once per graph and kind."""
    a, b = _square(a), _square(b)
    if a.shape != b.shape:
        raise OrderMismatch(f"orders differ: {a.shape[0]} vs {b.shape[0]}")
    s, top, a, b = _down(2 * len(a) ** 2, a, b)  # a cluster sum adds 2n eigenvalues of n top
    if not np.isfinite(top):
        raise InvalidGraph("a matrix entry is not finite")
    spectra = (_solve_both(_eigvalsh, a, b) if _symmetric(a) and _symmetric(b) else
               _solve_both(lambda m: np.sort_complex(np.linalg.eigvals(m)), a, b))
    return (_gap(*spectra, tol, s), s, top, *spectra)


def _gap(sa: np.ndarray, sb: np.ndarray, tol: float, s: int = 0) -> float:
    """`spectral_gap` of two spectra as `_compared` has them, in units of 2^s."""
    if not np.iscomplexobj(sa):
        return float(np.abs(sa - sb).max(initial=0.0))
    z = np.concatenate([sa, sb])
    labels = _clusters(z, _bound(np.sqrt(tol), np.max(np.abs(z)), s))
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
    conditioned even where its members are not. A non-finite entry raises
    InvalidGraph.

    Above order 500, when the environment pins BLAS to t threads and the
    process may run on at least 2t CPUs, the two spectra are solved
    concurrently, each by its own LAPACK call on the same input; otherwise
    one after the other. The results are identical either way.
    """
    return float(_scaled(*_compared(a, b, tol)[:2]))


def cospectral(a: np.ndarray, b: np.ndarray, tol: float = NUMERIC_TOL) -> bool:
    """True when the eigenvalue multisets of a and b match under the
    tolerance rule: spectral_gap(a, b, tol) <= tol * (1 + max |entry|).

    See `spectral_gap` for the comparison. Unitary conjugates of asymmetric
    adjacency matrices, defective ones included, are covered by the general
    path. Large pairs may have their two spectra solved concurrently (see
    `spectral_gap`); the verdict is identical either way.
    """
    gap, s, top, _, _ = _compared(a, b, tol)
    return bool(gap <= _bound(tol, top, s))


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
