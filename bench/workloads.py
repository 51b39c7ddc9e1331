"""The three workloads: one job class each, holding its inputs, its
operation and its oracle.

An operation calls only seidelkit's public API and looks every function up
on its module at call time, so the tracer's wrappers see each call. Oracles
run outside the timed region. They compute every expected value with numpy
from the generator's own dense matrices; only the document round trip calls
the program's reader and writer.

Failure classes, counted per operation:
  * "error": the program raised.
  * "mismatch": an output disagrees with its oracle (a wrong answer).
  * "false_on_certified": `cospectral` returned false on a pair the
    conjugation oracle certified (ROADMAP defect 4b); the program refused a
    true claim rather than returning a wrong transform.
"""

from __future__ import annotations

import csv
import io as stdio
import json
from dataclasses import dataclass, field

import numpy as np

import seidelkit
from seidelkit import graph, quantum, starlike, strength, switching
from seidelkit import io as skio

import generators as gen

RESIDUAL_TOL = 1e-10  # relative to 1 + max|entry|; a wrong transform is off by O(1)
ENTROPY_TOL = 1e-9
CONTROL_SHIFT = 1e-3  # diagonal shift for the negative control: moves the trace
SETUP_SEED = 0  # set-up inputs are the same for every --seed


@dataclass
class Item:
    """One generated input: the generator's ground truth for the oracle
    (None when the input is fixed) and the arguments of the operation."""

    inst: gen.Instance | None
    args: tuple


@dataclass
class Outcome:
    """What one operation produced, and the oracle's verdict on it."""

    failure: str | None = None
    detail: str = ""
    edges_changed: int = 0
    output: object = field(default=None, repr=False)


def switching_operator(cells, d, order: int) -> np.ndarray:
    """Dense U = diag{(2/n)J - I per cell, I on D}, built from the partition."""
    u = np.zeros((order, order))
    for c in cells:
        u[np.ix_(c, c)] = 2.0 / len(c)
        u[c, c] -= 1.0
    u[d, d] = 1.0
    return u


def residual(expected: np.ndarray, actual: np.ndarray) -> float:
    scale = 1.0 + float(np.max(np.abs(expected)))
    return float(np.max(np.abs(expected - actual))) / scale


def dense(order: int, edges) -> np.ndarray:
    m = np.zeros((order, order))
    for (u, v), w in edges:
        m[u, v] = w
    return m


def rejects_shifted(m: np.ndarray, output: np.ndarray) -> bool:
    """Negative control: True when cospectral rejects a pair whose trace differs."""
    shifted = output.copy()
    shifted[0, 0] += CONTROL_SHIFT
    return not graph.cospectral(m, shifted)


class Job:
    """One workload. `prepare(i)` makes input i (untimed), `run(*item.args)`
    is the operation, `check` its oracle and `control` the negative control.
    """

    name = ""
    window = 1  # ops per throughput window; runs end on a whole window
    traced_ops = 1

    def __init__(self, seed: int):
        self.seed = seed

    def setup_item(self) -> Item:
        """The set-up warm-up input; it does not depend on the seed."""
        return type(self)(SETUP_SEED).prepare(0)


class AdjDocs(Job):
    """loads_document -> graph -> switch -> cospectral -> dumps_document."""

    name = "adj-docs"
    window = traced_ops = len(gen.ADJ_ORDERS)  # one 576, 576, 576, 1152 cycle

    def prepare(self, i: int) -> Item:
        rng = gen.instance_rng(self.seed, self.name, i)
        inst = gen.adj_instance(rng, gen.ADJ_ORDERS[i % self.window])
        return Item(inst, (inst.text,))

    @staticmethod
    def run(text: str):
        doc = skio.loads_document(text)
        g = doc.graph()
        g2 = switching.switch(g, doc.partition)
        verdict = graph.cospectral(graph.adjacency_matrix(g), graph.adjacency_matrix(g2))
        out = skio.dumps_document(skio.GraphDocument.from_graph(g2, doc.partition, doc.metadata))
        return verdict, out

    @staticmethod
    def check(item: Item, result) -> Outcome:
        inst, (verdict, out) = item.inst, result
        raw = json.loads(out)
        a2 = dense(raw["order"], (((u, v), w) for u, v, w in raw["edges"]))
        u = switching_operator(inst.cells, inst.d, inst.order)
        gap = residual(u @ inst.a @ u, a2)
        outcome = Outcome(edges_changed=int(np.count_nonzero(a2 != inst.a)), output=a2)
        if gap > RESIDUAL_TOL:
            outcome.failure, outcome.detail = "mismatch", f"max|A' - UAU| = {gap:.3e}"
        elif raw["partition"] != {"cells": inst.cells, "d": inst.d}:
            outcome.failure, outcome.detail = "mismatch", "partition not carried through"
        elif skio.dumps_document(skio.loads_document(out)) != out:
            outcome.failure, outcome.detail = "mismatch", "document does not round-trip"
        elif not verdict:
            outcome.failure = "false_on_certified"
        return outcome

    @staticmethod
    def control(item: Item, outcome: Outcome) -> bool:
        return rejects_shifted(item.inst.a, outcome.output)


def spectral(a: np.ndarray, laplacian: bool) -> np.ndarray:
    """L = D - A or Q = D + A with absolute-weight degrees, loops counted once."""
    degrees = np.diag(np.abs(a).sum(axis=1))
    return degrees - a if laplacian else degrees + a


def entropy(m: np.ndarray) -> float:
    lam = np.linalg.eigvalsh(m / np.trace(m))
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


class LqStates(Job):
    """validate_starlike -> lq_switch -> cospectral -> density x2 -> entropy x2."""

    name = "lq-states"
    window = 50  # even, so L and Q alternate evenly within it
    traced_ops = 100

    def prepare(self, i: int) -> Item:
        w, k = divmod(i, self.window)
        order = gen.lq_orders(gen.instance_rng(self.seed, "lq-orders", w), self.window)[k]
        return self.make(gen.instance_rng(self.seed, self.name, i), order, i)

    def setup_item(self) -> Item:
        # a fixed order: the op time grows steeply with it, and the seed's
        # first order would range over all of [16, 256]
        return self.make(gen.instance_rng(SETUP_SEED, self.name, 0), gen.LQ_SETUP_ORDER, 0)

    @staticmethod
    def make(rng: np.random.Generator, order: int, i: int) -> Item:
        """Instance of `order`, as a graph and partition; L for even i, Q for odd."""
        inst = gen.lq_instance(rng, order)
        rows, cols = np.nonzero(inst.a)
        edges = {(u, v): w for u, v, w in zip(rows.tolist(), cols.tolist(), inst.a[rows, cols].tolist())}
        g = seidelkit.WeightedDigraph(inst.order, edges)
        part = seidelkit.SeidelPartition(tuple(map(tuple, inst.cells)), tuple(inst.d))
        kind = starlike.SpectralKind.SIGNLESS if i % 2 else starlike.SpectralKind.LAPLACIAN
        return Item(inst, (g, part, kind))

    @staticmethod
    def run(g, part, kind):
        starlike.validate_starlike(g, part)
        g2 = starlike.lq_switch(g, part, kind)
        verdict = graph.cospectral(starlike.spectral_matrix(g, kind), starlike.spectral_matrix(g2, kind))
        s = quantum.von_neumann_entropy(quantum.density_from_graph(g, kind))
        s2 = quantum.von_neumann_entropy(quantum.density_from_graph(g2, kind))
        return verdict, g2, s, s2

    @staticmethod
    def check(item: Item, result) -> Outcome:
        inst, kind = item.inst, item.args[2]
        verdict, g2, s, s2 = result
        laplacian = kind is starlike.SpectralKind.LAPLACIAN
        m = spectral(inst.a, laplacian)
        m2 = spectral(dense(g2.order, g2.edges.items()), laplacian)
        u = switching_operator(inst.cells, inst.d, inst.order)
        gap = residual(u @ m @ u, m2)
        outcome = Outcome(edges_changed=int(np.count_nonzero(m2 != m)), output=m2)
        if gap > RESIDUAL_TOL:
            outcome.failure, outcome.detail = "mismatch", f"max|M(G') - UMU| = {gap:.3e}"
        elif abs(s - s2) > ENTROPY_TOL or abs(s - entropy(m)) > ENTROPY_TOL:
            outcome.failure, outcome.detail = "mismatch", f"entropies {s!r}, {s2!r}"
        elif not verdict:
            outcome.failure = "false_on_certified"
        return outcome

    @staticmethod
    def control(item: Item, outcome: Outcome) -> bool:
        laplacian = item.args[2] is starlike.SpectralKind.LAPLACIAN
        return rejects_shifted(spectral(item.inst.a, laplacian), outcome.output)


class StrengthScan(Job):
    """strength_scan(200, include_blocks=True) -> scan_csv; the input is fixed."""

    name = "strength-scan"
    traced_ops = 3

    def prepare(self, i: int) -> Item:
        return Item(None, ())

    @staticmethod
    def run():
        rows = strength.strength_scan(gen.STRENGTH_MAX_ORDER, include_blocks=True)
        return strength.scan_csv(rows)

    @staticmethod
    def check(item: Item, text: str) -> Outcome:
        rows = list(csv.DictReader(stdio.StringIO(text)))
        expected = gen.strength_expected_rows()
        first = [r for r in rows if r["order"] == "4" and r["kind"] == "single"]
        if len(rows) != expected:
            return Outcome("mismatch", f"{len(rows)} rows, expected {expected}")
        if len(first) != 1:
            return Outcome("mismatch", f"{len(first)} order-4 single rows")
        k_sch, k_wz = float(first[0]["k_sch"]), float(first[0]["k_wz"])
        if abs(k_sch - 1.0) > 1e-9 or abs(k_wz - 0.5) > 1e-9:
            return Outcome("mismatch", f"order 4: k_sch={k_sch}, k_wz={k_wz}")
        return Outcome()

    @staticmethod
    def control(item: Item, outcome: Outcome) -> bool:
        return True


JOBS = {job.name: job for job in (AdjDocs, LqStates, StrengthScan)}
