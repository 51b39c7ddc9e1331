"""Graph document files and the bundled figure fixtures.

A graph document is a JSON object with fields `order` (int), `edges`
(list of [u, v, weight] triples), optional `partition` ({"cells": [[...],
...], "d": [...]}) and optional free-form `metadata`. Vertex indices are
0-based; fixtures carry a `labels` metadata entry mapping to the 1-based
labels used in figures. Writing is canonical (edges sorted by (u, v), plain
JSON float formatting), so read-write round trips are byte identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InvalidGraph, ParallelEdges, ParseError
from .graph import WeightedDigraph, adjacency_matrix
from .switching import SeidelPartition


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph document: the graph, its partition and its metadata."""

    digraph: WeightedDigraph
    partition: SeidelPartition | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return self.digraph.order

    def graph(self) -> WeightedDigraph:
        return self.digraph

    @classmethod
    def from_graph(
        cls,
        g: WeightedDigraph,
        partition: SeidelPartition | None = None,
        metadata: dict | None = None,
    ) -> "GraphDocument":
        return cls(g, partition, metadata or {})


def _raise_first_bad_entry(items, order: int, source: str) -> None:
    """Walk an edge list in document order and raise for its first bad entry."""
    seen: set[tuple[int, int]] = set()
    for item in items:
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"{source}: edge entries must be [u, v, weight], got {item!r}")
        u, v, w = item
        if type(u) is not int or type(v) is not int:  # a bool is no endpoint
            raise ParseError(f"{source}: edge endpoints must be integers, got {item!r}")
        if not 0 <= u < order or not 0 <= v < order:
            raise ParseError(f"{source}: edge ({u}, {v}) outside 0..{order - 1}")
        if (u, v) in seen:
            raise ParallelEdges(f"{source}: duplicate ordered pair ({u}, {v})")
        seen.add((u, v))
        try:
            if type(w) is bool:
                raise TypeError
            w = float(w)
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"{source}: edge ({u}, {v}) weight {w!r} is not a number") from None
        if w == 0.0:
            raise ParseError(f"{source}: edge ({u}, {v}) has zero weight")
        if not np.isfinite(w):
            raise ParseError(f"{source}: edge ({u}, {v}) weight {w!r} is not finite")


def _read_graph(items, order: int, source: str) -> WeightedDigraph:
    """The graph of a document's edge list.

    The list is converted and checked as whole arrays. Only when that fails
    is it walked entry by entry, to report the first bad entry as a document
    error; a list that passes the walk fails one of the graph's own checks
    (a loop of negative weight), which the graph reports.
    """
    if not isinstance(items, list):
        raise ParseError(f"{source}: edges must be a list of [u, v, weight] entries")
    try:
        if (
            set(map(type, items)) <= {list}
            and set(map(len, items)) <= {3}
            and set(map(type, map(itemgetter(0), items)))
            | set(map(type, map(itemgetter(1), items))) <= {int}
            and bool not in set(map(type, map(itemgetter(2), items)))
        ):
            table = np.fromiter(chain.from_iterable(items), dtype=float, count=3 * len(items))
            return WeightedDigraph.from_edges(order, table.reshape(-1, 3))
    except (TypeError, ValueError, OverflowError, InvalidGraph):
        pass
    _raise_first_bad_entry(items, order, source)
    return WeightedDigraph.from_edges(order, [tuple(item) for item in items])


def _parse_document(raw: dict, source: str) -> GraphDocument:
    if not isinstance(raw, dict):
        raise ParseError(f"{source}: top level must be an object")
    try:
        order = raw["order"]
        edge_items = raw["edges"]
    except KeyError as missing:
        raise ParseError(f"{source}: missing required field {missing}") from None
    if type(order) is not int or order < 1:
        raise ParseError(f"{source}: order must be a positive integer")
    g = _read_graph(edge_items, order, source)
    partition = None
    if raw.get("partition") is not None:
        p = raw["partition"]
        try:
            cells, d = tuple(tuple(c) for c in p["cells"]), tuple(p.get("d", ()))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{source}: malformed partition: {exc}") from None
        for entry in (*cells, d):
            if any(type(v) is not int for v in entry):
                raise ParseError(
                    f"{source}: partition vertices must be integers, got {list(entry)!r}")
        partition = SeidelPartition(cells, d)
    metadata = raw.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ParseError(f"{source}: metadata must be an object")
    return GraphDocument(g, partition, metadata)


def loads_document(text: str, source: str = "<string>") -> GraphDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno}: {exc.msg}") from None
    return _parse_document(raw, source)


def read_document(path: str | Path) -> GraphDocument:
    path = Path(path)
    return loads_document(path.read_text(), source=str(path))


def dumps_document(doc: GraphDocument) -> str:
    """Canonical rendering: edges in (u, v) order, one per line, trailing newline."""
    lines = ["{", f'  "order": {doc.order},']
    more = "," if doc.partition is not None or doc.metadata else ""
    a = adjacency_matrix(doc.digraph)
    rows, cols = np.nonzero(a)  # row-major, so sorted by (u, v)
    if len(rows):
        # one string per vertex and per distinct weight, then a single join;
        # repr is json.dumps on finite floats, and graphs hold no others
        names = np.array([str(v) for v in range(doc.order)], dtype=object)
        weights, which = np.unique(a[rows, cols], return_inverse=True)
        pieces = np.empty((len(rows), 7), dtype=object)
        pieces[:, 0::2] = ["    [", ", ", ", ", "],\n"]
        pieces[:, 1], pieces[:, 3] = names[rows], names[cols]
        pieces[:, 5] = np.array([repr(w) for w in weights.tolist()], dtype=object)[which]
        lines += ['  "edges": [', "".join(pieces.ravel().tolist())[:-2], "  ]" + more]
    else:
        lines.append('  "edges": []' + more)
    if doc.partition is not None:
        cells = json.dumps([list(c) for c in doc.partition.cells])
        d = json.dumps(list(doc.partition.d_cell))
        lines.append(f'  "partition": {{"cells": {cells}, "d": {d}}}'
                     + ("," if doc.metadata else ""))
    if doc.metadata:
        meta = json.dumps(doc.metadata, indent=4, sort_keys=True)
        lines.append(f'  "metadata": {meta.replace(chr(10), chr(10) + "  ")}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_document(doc: GraphDocument, path: str | Path) -> None:
    Path(path).write_text(dumps_document(doc))


def fixture_names() -> list[str]:
    root = resources.files("seidelkit") / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".graph"))


def load_fixture(name: str) -> GraphDocument:
    """Bundled figure fixture by file name, e.g. 'fig2.graph'."""
    if not name.endswith(".graph"):
        name += ".graph"
    text = (resources.files("seidelkit") / "fixtures" / name).read_text()
    return loads_document(text, source=f"fixture:{name}")
