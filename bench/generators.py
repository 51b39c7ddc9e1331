"""Seeded input generators for the three benchmark workloads.

Every generator takes a numpy Generator and returns plain data: a dense
adjacency matrix (the benchmark's own ground truth) plus the partition, and
for `adj-docs` the JSON document text the program parses. Nothing here
imports seidelkit, so the program only ever sees generated inputs.

Instances are drawn from the documented input domain and never filtered by
outcome: negative weights, category-1 vectors with entries equal to 2s/n
(which switch to an exact zero) and asymmetric weights all occur.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import numpy as np

ADJ_ORDERS = (576, 576, 576, 1152)  # one cycle: the 3 : 1 order mix
ADJ_CELL_SIZE = 64
ADJ_WEIGHTS = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
LQ_MIN_ORDER, LQ_MAX_ORDER = 16, 256
LQ_SETUP_ORDER = 64  # the median of the log-uniform law on [16, 256]
LQ_CELL_SIZES = (16, 8, 4, 2)
STRENGTH_MAX_ORDER = 200
LOOP_SHARE = 0.3


@dataclass
class Instance:
    """One generated switching graph.

    `a` is the dense adjacency matrix in vertex order, `cells`/`d` the
    partition, and `counts` the per-cell (p, q, r) hub categories the
    generator drew. `cancelling` counts category-1 direction vectors that
    hold an entry equal to 2s/n.
    """

    a: np.ndarray
    cells: list[list[int]]
    d: list[int]
    counts: list[tuple[int, int, int]]
    cancelling: int = 0
    text: str = field(default="", repr=False)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.a))

    @property
    def symmetric(self) -> bool:
        return bool(np.array_equal(self.a, self.a.T))


def instance_rng(seed: int, stream: str, index: int) -> np.random.Generator:
    """Independent generator per (seed, stream name, op index)."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode()), index])


def _interior(rng, a, vs, weights, style: str, directed_ok: bool) -> None:
    """Regular pattern on one part: empty, cycle or complete, plus uniform
    loops on LOOP_SHARE of the parts.

    One weight per part keeps both signed and absolute row and column sums
    constant.
    """
    vs = np.asarray(vs)
    w = float(rng.choice(weights))
    if style == "complete":
        a[np.ix_(vs, vs)] = w
        a[vs, vs] = 0.0
    elif style == "cycle":
        nxt = np.roll(vs, -1)
        a[vs, nxt] = w
        if not (directed_ok and rng.random() < 0.5):
            a[nxt, vs] = w
    if rng.random() < LOOP_SHARE:
        a[vs, vs] = float(rng.integers(1, 4))


def _shuffled_counts(rng, total: int, shares: tuple[float, ...]) -> np.ndarray:
    """Labels 0..len(shares)-1 in fixed proportions, in random order."""
    counts = [int(round(total * share)) for share in shares[:-1]]
    labels = np.repeat(np.arange(len(shares)), counts + [total - sum(counts)])
    return rng.permutation(labels)


def adj_instance(rng: np.random.Generator, order: int) -> Instance:
    """General switching graph: directed, signed weights, cross blocks.

    Cells have cycle or complete interiors and D a cycle, some of them
    directed, some with loops; each hub is in category 1
    (varying signed weight vector), 2 (half the cell, one weight per
    direction) or 3 for each cell; cross blocks between cells have rows that
    are permutations of one vector, so row sums are constant and column sums
    vary.

    The amounts are fixed per order, so that instances of one order cost
    about the same (mixed cell sizes and Bernoulli choices moved the op
    time of one order by 10 % between seeds): order/9 hubs and cells of
    ADJ_CELL_SIZE, half of them complete; 30 % of ordered cell pairs carry
    a cross block; for each cell, hubs split 30/30/40 % into categories
    1/2/3, and half the category-1 hubs also carry incoming weights. Which
    vertices, cells, pairs, hubs, halves and weights is random.
    """
    k = (order - order // 9) // ADJ_CELL_SIZE
    perm = rng.permutation(order)
    cells = [sorted(perm[i * ADJ_CELL_SIZE : (i + 1) * ADJ_CELL_SIZE].tolist()) for i in range(k)]
    d = sorted(perm[k * ADJ_CELL_SIZE :].tolist())

    a = np.zeros((order, order))
    for c, style in zip(cells, _shuffled_counts(rng, len(cells), (0.5, 0.5))):
        _interior(rng, a, c, ADJ_WEIGHTS, ("cycle", "complete")[style], directed_ok=True)
    _interior(rng, a, d, ADJ_WEIGHTS, "cycle", directed_ok=True)

    pairs = [(i, j) for i in range(len(cells)) for j in range(len(cells)) if i != j]
    for (i, j), has_block in zip(pairs, _shuffled_counts(rng, len(pairs), (0.7, 0.3))):
        if has_block:
            ci, cj = cells[i], cells[j]
            base = rng.integers(-2, 3, size=len(cj)).astype(float)
            a[np.ix_(ci, cj)] = rng.permuted(np.tile(base, (len(ci), 1)), axis=1)

    counts, cancelling = [], 0
    for cell in cells:
        n = len(cell)
        cvec = np.asarray(cell)
        # labels: 0 category 1 outgoing only, 1 category 1 both ways, 2 and 3
        # categories 2 and 3
        category = _shuffled_counts(rng, len(d), (0.15, 0.15, 0.3, 0.4))
        for v, cat in zip(d, category):
            if cat == 2:
                half = rng.choice(cvec, size=n // 2, replace=False)
                direction = int(rng.integers(3))  # out, in, both
                if direction != 1:
                    a[v, half] = float(rng.choice(ADJ_WEIGHTS))
                if direction != 0:
                    a[half, v] = float(rng.choice(ADJ_WEIGHTS))
            elif cat < 2:
                x = rng.choice(ADJ_WEIGHTS, size=n)
                a[v, cvec] = x
                cancelling += bool(np.any(n * x == 2 * x.sum()))
                if cat == 1:
                    # incoming weights may be partial: the attachment is the union
                    y = rng.integers(-3, 4, size=n).astype(float)
                    a[cvec, v] = y
                    cancelling += bool(np.any((n * y == 2 * y.sum()) & (y != 0)))
        counts.append((int(np.count_nonzero(category < 2)),
                       int(np.count_nonzero(category == 2)),
                       int(np.count_nonzero(category == 3))))
    inst = Instance(a, cells, d, counts, cancelling)
    inst.text = document_text(inst)
    return inst


def lq_orders(rng: np.random.Generator, count: int) -> list[int]:
    """`count` orders at the quantile midpoints of a log-uniform law on
    [LQ_MIN_ORDER, LQ_MAX_ORDER], in random order.

    Log-uniform makes most graphs small, so fixed per-call costs show.
    Stratifying instead of sampling gives every window of `count` ops the
    same sizes; i.i.d. draws moved the median order by 10 % between seeds.
    """
    lo, hi = np.log(LQ_MIN_ORDER), np.log(LQ_MAX_ORDER)
    quantiles = (np.arange(count) + 0.5) / count
    return rng.permutation(np.round(np.exp(lo + quantiles * (hi - lo))).astype(int)).tolist()


def lq_instance(rng: np.random.Generator, order: int) -> Instance:
    """Starlike graph: symmetric nonnegative weights, no cross edges.

    Cells may carry uniform loops; category-1 hubs share one weight per
    cell, category-2 hubs come in complementary pairs with one weight.

    The amounts depend on the order only, as in `adj_instance`: order/6
    hubs; cell sizes cycle through LQ_CELL_SIZES; interiors are a third
    each empty, cycles and complete, D a cycle; for each cell 40 % of the
    hubs (at least one, so the trace is nonzero) are in category 1 and
    2 * floor(0.15 |D|) in category 2.
    """
    d_size = max(2, order // 6)
    rest, sizes = order - d_size, []
    while rest - LQ_CELL_SIZES[len(sizes) % len(LQ_CELL_SIZES)] >= 2:
        sizes.append(LQ_CELL_SIZES[len(sizes) % len(LQ_CELL_SIZES)])
        rest -= sizes[-1]
    sizes.append(rest - rest % 2)
    perm = rng.permutation(order)
    cells = [sorted(perm[sum(sizes[:k]) : sum(sizes[: k + 1])].tolist()) for k in range(len(sizes))]
    d = sorted(perm[sum(sizes) :].tolist())

    a = np.zeros((order, order))
    weights = (1.0, 2.0, 3.0)
    styles = ("empty", "cycle", "complete")
    for c, style in zip(cells, _shuffled_counts(rng, len(cells), (1 / 3, 1 / 3, 1 / 3))):
        _interior(rng, a, c, weights, styles[style], directed_ok=False)
    _interior(rng, a, d, weights, "cycle", directed_ok=False)

    p = max(1, round(0.4 * len(d)))
    q = min(2 * int(0.15 * len(d)), len(d) - p)
    counts = []
    for cell in cells:
        n = len(cell)
        cvec = np.asarray(cell)
        hubs = rng.permutation(d).tolist()
        w1 = float(rng.choice(weights))
        a[np.ix_(hubs[:p], cvec)] = w1
        a[np.ix_(cvec, hubs[:p])] = w1
        if q:
            w2 = float(rng.choice(weights))
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=n // 2, replace=False)] = True
            for t, v in enumerate(hubs[p : p + q]):
                half = cvec[mask] if t < q // 2 else cvec[~mask]
                a[v, half] = w2
                a[half, v] = w2
        counts.append((p, q, len(hubs) - p - q))
    return Instance(a, cells, d, counts)


def document_text(inst: Instance) -> str:
    """Graph document JSON for an instance, written without seidelkit."""
    rows, cols = np.nonzero(inst.a)
    edges = [[u, v, w] for u, v, w in zip(rows.tolist(), cols.tolist(), inst.a[rows, cols].tolist())]
    return json.dumps(
        {"order": inst.order, "edges": edges, "partition": {"cells": inst.cells, "d": inst.d}}
    )


def ordered_factorizations(order: int) -> int:
    return sum(1 for m in range(2, order // 2 + 1) if order % m == 0)


def strength_expected_rows(max_order: int = STRENGTH_MAX_ORDER) -> int:
    """Rows of strength_scan(max_order, include_blocks=True): two per factorization."""
    return 2 * sum(ordered_factorizations(o) for o in range(4, max_order + 1))
