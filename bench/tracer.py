"""Span tracer that wraps seidelkit's public functions from outside.

`Tracer.install()` replaces every public function defined in a seidelkit
module, on every module namespace that binds it (so re-bound imports such as
`starlike.validate_seidel` and `cli.switch` are covered), plus
`WeightedDigraph.from_edges`, `GraphDocument.graph`/`from_graph` and the
numpy.linalg kernels `eigvals`, `eigvalsh` and `svd`. `WeightedDigraph.weight`
is called about a million times per large switch, so it is only counted.
`uninstall()` puts every original back.

Spans are (name, start, end, parent) rows kept in memory. A span's self time
is its duration minus the durations of its direct children; since calls nest
on one thread, that is the part of its interval no child covers.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import seidelkit
from seidelkit import cli, graph, io, quantum, starlike, strength, switching

MODULES = (seidelkit, graph, switching, starlike, quantum, strength, io, cli)
LAYERS = ("io", "graph", "switching", "starlike", "quantum", "strength", "cli")
KERNELS = ("eigvals", "eigvalsh", "svd")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if measure is not None:
                measure(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        byte_counters = {
            "io.loads_document": lambda args, _: self._add("io.bytes_in", len(args[0])),
            "io.dumps_document": lambda _, out: self._add("io.bytes_out", len(out)),
        }
        wrappers: dict[int, object] = {}
        for module in MODULES:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                defined_in = getattr(fn, "__module__", "") or ""
                if not defined_in.startswith("seidelkit."):
                    continue
                if id(fn) not in wrappers:
                    name = f"{defined_in.rsplit('.', 1)[1]}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn, byte_counters.get(name))
                self._patch(module, attr, wrappers[id(fn)])

        cls = graph.WeightedDigraph
        self._patch(cls, "weight", self._count("graph.weight", cls.weight))
        self._patch(cls, "from_edges", classmethod(self._wrap("graph.from_edges", cls.from_edges.__func__)))
        doc = io.GraphDocument
        self._patch(doc, "graph", self._wrap("io.GraphDocument.graph", doc.graph))
        self._patch(
            doc, "from_graph", classmethod(self._wrap("io.GraphDocument.from_graph", doc.from_graph.__func__))
        )
        for kernel in KERNELS:
            self._patch(np.linalg, kernel, self._wrap(f"numpy.linalg.{kernel}", getattr(np.linalg, kernel)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount


def summarize(spans: list[Span]) -> dict:
    """Per-name and per-layer aggregates of a span list.

    Returns a dict with, per span name, `calls`, `busy` (summed duration of
    the outermost spans of that name) and `self`; per layer, `self` summed
    over the layer's spans, where a numpy kernel span counts toward the
    layer of its nearest seidelkit ancestor; per layer, `kernel_calls[k]` and
    `kernel_busy[k]`; and `unattributed`, the self time of root spans (the
    benchmark's own glue between calls).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    owner: list[str | None] = []  # layer each span's time is charged to
    names: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
    layers: dict[str, dict] = {
        name: {"self": 0.0, "kernel_calls": defaultdict(int), "kernel_busy": defaultdict(float)}
        for name in LAYERS
    }
    unattributed = 0.0
    for i, s in enumerate(spans):
        duration = s.end - s.start
        own = duration - child_time[i]
        parent_owner = owner[s.parent] if s.parent >= 0 else None
        layer = layer_of(s.name) or (parent_owner if s.name.startswith("numpy.") else None)
        owner.append(layer)
        entry = names[s.name]
        entry["calls"] += 1
        entry["self"] += own
        if not _has_ancestor_named(spans, i, s.name):
            entry["busy"] += duration
        if s.parent < 0:
            unattributed += own
        elif layer is not None:
            layers[layer]["self"] += own
            if s.name.startswith("numpy."):
                kernel = s.name.rsplit(".", 1)[1]
                layers[layer]["kernel_calls"][kernel] += 1
                layers[layer]["kernel_busy"][kernel] += duration
        else:
            unattributed += own
    return {"names": names, "layers": layers, "unattributed": unattributed}


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
