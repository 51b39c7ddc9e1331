"""Graph document files and the bundled figure fixtures.

A graph document is a JSON object with fields `order` (int), `edges`
(list of [u, v, weight] triples), optional `partition` ({"cells": [[...],
...], "d": [...]}) and optional free-form `metadata`. Vertex indices are
0-based; fixtures carry a `labels` metadata entry mapping to the 1-based
labels used in figures. Writing is canonical (edges sorted by (u, v), plain
JSON float formatting), so read-write round trips are byte identical. Edges
are rendered a block of rows at a time, and the parts joined once at most.

Reading has two paths with one outcome. A document that opens with
`{"order": N, "edges": [` (every writer here writes order first, indented
or on one line) takes the text path. One structure check on the bytes of
its edge list makes sure that the brackets and commas form k >= 1 triples,
with a `.` or exponent only in a weight and no number outside a triple.
Then `json.loads` reads the list with its brackets blanked, a slice of
whole triples at a time: flat lists of JSON numbers, no list per edge, that
fill the (k, 3) table `WeightedDigraph.from_edges` takes. The rest of the
document is its own `json.loads`. The text path vouches for exactly this:
the edge list is k >= 1 triples of JSON numbers with integer endpoints, in
JSON whitespace, and the rest is a JSON object continuation with no second
`order` or `edges` key; then the whole text is valid JSON and `json.loads`
would read the same values. Every other input, and any graph `from_edges`
rejects, takes the walk: `json.loads` of the whole text, then the edge list
entry by entry, which names the first bad entry. So every error, and its
message, is the walk's.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
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
    """The graph of a parsed edge list, walked entry by entry: the first bad
    entry raises a document error; a list that passes the walk fails only the
    graph's own checks (a loop of negative weight), which the graph reports.
    """
    if not isinstance(items, list):
        raise ParseError(f"{source}: edges must be a list of [u, v, weight] entries")
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
    return _document(_read_graph(edge_items, order, source), raw, source)


def _document(g: WeightedDigraph, raw: dict, source: str) -> GraphDocument:
    """The document of a graph and the partition and metadata fields of raw."""
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


def _loads_walked(text: str, source: str) -> GraphDocument:
    """The reference reader: `json.loads` of the whole text, then a walk of
    its edge list. Every input the text path declines comes here."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ParseError(f"{source}: {exc}") from None
    return _parse_document(raw, source)


# The text path. A document that opens with {"order": N, "edges": [ is split
# at the last "]" before its first '"': the body in between must be an edge
# list _edge_table vouches for, and the tail after it must be the rest of a
# JSON object without another "order" or "edges" key. Then the whole text is
# valid JSON, json.loads would give it the same fields, and the table read
# from the body holds the numbers json.loads would give its edge list.
_SPACE = " \t\n\r"  # JSON whitespace: no other, unlike str.strip and \s
_HEAD = re.compile(r'\s*\{\s*"order"\s*:\s*([1-9][0-9]{0,8})\s*,\s*"edges"\s*:\s*\['
                   .replace(r"\s", f"[{_SPACE}]"))
_E_TO_LOWER = bytes.maketrans(b"E", b"e")
_FLAT = bytes.maketrans(b"[]", b"  ")
_READ_SLICE = 1 << 18  # bytes of edge list per json.loads
_WRITE_BLOCK = 1 << 16  # matrix entries per block of rendered rows


def _edge_table(body: bytes) -> np.ndarray | None:
    """The (k, 3) table of an edge-list body (the text between the outer
    brackets), or None unless the body is k >= 1 JSON triples [u, v, weight]
    of numbers with integer endpoints. One check of its brackets and commas,
    then json.loads of its numbers as flat lists, a slice at a time."""
    c = body.translate(None, _SPACE.encode())
    # the marks of c, where a "." and then an exponent mark stand only in a
    # weight, at most once each, so endpoints are integers
    s = c.translate(_E_TO_LOWER, b"0123456789-+")
    s = s.replace(b",.e]", b",]").replace(b",e]", b",]").replace(b",.]", b",]")
    k = (len(s) + 1) // 5
    # marks in triple order, k >= 1 as c opens with "["; bare ends and joints
    # leave no number outside a triple
    if (s != (b"[,,]," * k)[:-1] or c[:1] != b"[" or c[-1:] != b"]"
            or c.count(b"],[") != k - 1):
        return None
    # so every "[" opens a triple and a comma joins two: a slice of about
    # _READ_SLICE bytes runs from a "[" to the "]" before the next cut
    table, filled, start = np.empty(3 * k), 0, body.find(b"[")
    while start >= 0:
        cut = body.find(b"[", start + _READ_SLICE)
        stop = len(body) if cut < 0 else body.rindex(b"]", start, cut) + 1
        # 3k slots, each exactly one JSON number, or json.loads fails; letters
        # failed above, so no NaN or Infinity comes here
        try:
            numbers = json.loads(b"[" + body[start:stop].translate(_FLAT) + b"]")
            table[filled:filled + len(numbers)] = numbers  # too many fail to broadcast
        except (ValueError, OverflowError):  # no JSON number, or an integer beyond any float
            return None
        filled, start = filled + len(numbers), cut
    return table.reshape(k, 3) if filled == 3 * k else None


def _text_path(text: str) -> tuple[int, np.ndarray, dict] | None:
    """(order, edge table, the other top-level fields) of a document the
    text path vouches for, or None."""
    head = _HEAD.match(text)
    if head is None:
        return None
    start = head.end()
    quote = text.find('"', start)
    end = text.rfind("]", start, None if quote < 0 else quote)
    if end < 0:
        return None
    rest = text[end + 1:].lstrip(_SPACE)
    if rest[:1] == ",":  # then a key must follow: a trailing comma is no JSON
        rest = rest[1:]
        if rest.lstrip(_SPACE)[:1] != '"':
            return None
    elif rest[:1] != "}":
        return None
    try:
        fields = json.loads("{" + rest)
    except (ValueError, RecursionError):  # the walk raises it, or an earlier fault
        return None
    if "order" in fields or "edges" in fields:  # json.loads keeps the last value
        return None
    try:
        body = text[start:end].encode("ascii")
    except UnicodeEncodeError:
        return None
    table = _edge_table(body)
    return None if table is None else (int(head[1]), table, fields)


def loads_document(text: str, source: str = "<string>") -> GraphDocument:
    """Parse a graph document. A document that opens with order and edges,
    as every writer here writes one, is read by the text path; any other,
    and any the text path finds a fault in, by `json.loads` and a walk of
    the edges that names the first bad entry."""
    read = _text_path(text) if isinstance(text, str) else None
    if read is not None:
        order, table, fields = read
        try:
            g = WeightedDigraph.from_edges(order, table)
        except (InvalidGraph, ValueError):  # the walk names the bad entry
            pass
        else:
            return _document(g, fields, source)
    return _loads_walked(text, source)


def read_document(path: str | Path) -> GraphDocument:
    path = Path(path)
    return loads_document(path.read_text(), source=str(path))


def _document_parts(doc: GraphDocument) -> list[str]:
    """The text of `dumps_document` as strings to join, the edges one per
    block of about _WRITE_BLOCK matrix entries: one string per vertex and
    per distinct weight, then a single join. repr is json.dumps on finite
    floats, and graphs hold no others."""
    a = adjacency_matrix(doc.digraph)
    names = np.array([str(v) for v in range(doc.order)], dtype=object)
    parts = [f'{{\n  "order": {doc.order},\n  "edges": [']
    step = max(1, _WRITE_BLOCK // doc.order)
    for top in range(0, doc.order, step):
        block = a[top:top + step]
        rows, cols = np.nonzero(block)  # row-major, so sorted by (u, v)
        if len(rows):
            weights, which = np.unique(block[rows, cols], return_inverse=True)
            pieces = np.empty((len(rows), 7), dtype=object)
            pieces[:, 0::2] = [",\n    [", ", ", ", ", "]"]
            pieces[:, 1], pieces[:, 3] = names[top + rows], names[cols]
            pieces[:, 5] = np.array([repr(w) for w in weights.tolist()], dtype=object)[which]
            parts.append("".join(pieces.ravel().tolist()))
    if len(parts) > 1:
        parts[1] = parts[1][1:]  # no comma before the first edge
    more = "," if doc.partition is not None or doc.metadata else ""
    parts.append(("\n  ]" if len(parts) > 1 else "]") + more + "\n")
    if doc.partition is not None:
        cells = json.dumps([list(c) for c in doc.partition.cells])
        d = json.dumps(list(doc.partition.d_cell))
        parts.append(f'  "partition": {{"cells": {cells}, "d": {d}}}'
                     + ("," if doc.metadata else "") + "\n")
    if doc.metadata:
        meta = json.dumps(doc.metadata, indent=4, sort_keys=True)
        parts.append(f'  "metadata": {meta.replace(chr(10), chr(10) + "  ")}\n')
    parts.append("}\n")
    return parts


def dumps_document(doc: GraphDocument) -> str:
    """Canonical rendering: edges in (u, v) order, one per line, trailing newline."""
    return "".join(_document_parts(doc))


def write_document(doc: GraphDocument, path: str | Path) -> None:
    parts = _document_parts(doc)  # rendered before the file is opened
    with Path(path).open("w") as f:
        f.writelines(parts)


def fixture_names() -> list[str]:
    root = resources.files("seidelkit") / "fixtures"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".graph"))


def load_fixture(name: str) -> GraphDocument:
    """Bundled figure fixture by file name, e.g. 'fig2.graph'."""
    if not name.endswith(".graph"):
        name += ".graph"
    text = (resources.files("seidelkit") / "fixtures" / name).read_text()
    return loads_document(text, source=f"fixture:{name}")
