"""Document format, fixtures and the command-line interface."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from conftest import heavy_cycle_instance

from seidelkit import (
    GraphDocument,
    SeidelPartition,
    WeightedDigraph,
    adjacency_matrix,
    dumps_document,
    load_fixture,
    read_document,
    validate_seidel,
    write_document,
)
from seidelkit import io as skio
from seidelkit.cli import main
from seidelkit.errors import (
    InvalidGraph,
    InvalidPartition,
    ParallelEdges,
    ParseError,
    SeidelKitError,
)
from seidelkit.io import fixture_names, loads_document

ALL_FIXTURES = [
    "fig2",
    "fig3",
    "fig4_left",
    "fig4_right",
    "fig5_left",
    "fig5_right",
    "k2",
]


class TestDocuments:
    def test_fixture_listing(self):
        assert fixture_names() == [name + ".graph" for name in ALL_FIXTURES]

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip_byte_identity(self, name, tmp_path):
        doc = load_fixture(name)
        path = tmp_path / "out.graph"
        write_document(doc, path)
        assert read_document(path) == doc
        assert path.read_text() == dumps_document(doc)
        # canonical text survives another cycle unchanged
        assert dumps_document(read_document(path)) == path.read_text()

    def test_graph_round_trip(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 0.5), (1, 0, 0.5), (2, 2, 1.25)])
        doc = GraphDocument.from_graph(g, partition=SeidelPartition(cells=((0, 1),), d_cell=(2,)))
        assert loads_document(dumps_document(doc)) == doc
        assert doc.graph() == g

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            loads_document('{\n  "order": 2,\n  "edges": [[0, 1, ]]\n}')

    def test_missing_field(self):
        with pytest.raises(ParseError, match="order"):
            loads_document('{"edges": []}')

    @pytest.mark.parametrize("text, named", [
        ('{"order": 2, "edges": 5}', "edges must be a list of [u, v, weight] entries"),
        ("[1]", "top level must be an object"),
    ])
    def test_a_document_of_another_shape_is_a_parse_error(self, text, named):
        with pytest.raises(ParseError, match=f"^<string>: {re.escape(named)}$"):
            loads_document(text)

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError, match="zero weight"):
            loads_document('{"order": 2, "edges": [[0, 1, 0.0]]}')

    def test_out_of_range_edge(self):
        with pytest.raises(ParseError, match="outside"):
            loads_document('{"order": 2, "edges": [[0, 5, 1.0]]}')

    def test_duplicate_pair_is_parallel_edges(self):
        with pytest.raises(ParallelEdges):
            loads_document('{"order": 2, "edges": [[0, 1, 1.0], [0, 1, 2.0]]}')

    def test_non_finite_weights_rejected(self):
        with pytest.raises(ParseError, match="not finite"):
            loads_document('{"order": 2, "edges": [[0, 1, NaN], [1, 0, Infinity]]}')

    @pytest.mark.parametrize(
        "edges, error, match",
        [
            ("[[0, 5, 1.0], [0, 1, 0.0]]", ParseError, "outside"),
            ("[[0, 1, 0.0], [0, 5, 1.0]]", ParseError, "zero weight"),
            ("[[0, 1, 1.0], [0, 1, 2.0], [1.5, 0, 1.0]]", ParallelEdges, "duplicate"),
            ("[[0, 1, 1.0], [1.5, 0, 1.0], [0, 1, 2.0]]", ParseError, "integers"),
            ('[[0, 1, "x"], [0, 9, 1.0]]', ParseError, "not a number"),
            ("[[0, 1, 1.0], [0, 100000000000000000000, 1.0]]", ParseError, "outside"),
            ("[[1, 0, 1.0], [0, 1]]", ParseError, "must be"),
        ],
    )
    def test_first_bad_entry_is_reported(self, edges, error, match):
        with pytest.raises(error, match=match):
            loads_document(f'{{"order": 2, "edges": {edges}}}')

    @pytest.mark.parametrize(
        "fields, match",
        [
            ('"order": 2, "edges": [[true, false, 1.0]]',
             r"endpoints must be integers, got \[True, False, 1\.0\]"),
            ('"order": 2, "edges": [[0, 1, true]]', r"edge \(0, 1\) weight True is not a number"),
            ('"order": 2, "edges": [[0, 1, "1.5"], [1, 0, true]]',
             r"edge \(1, 0\) weight True is not a number"),
            ('"order": 2, "edges": [], "partition": {"cells": [[0, true]]}',
             r"partition vertices must be integers, got \[0, True\]"),
            ('"order": 3, "edges": [], "partition": {"cells": [[0, 1]], "d": [2.0]}',
             r"partition vertices must be integers, got \[2\.0\]"),
            ('"order": true, "edges": []', "order must be a positive integer"),
        ],
    )
    def test_a_number_is_never_a_bool(self, fields, match, tmp_path, capsys):
        with pytest.raises(ParseError, match=match):
            loads_document(f"{{{fields}}}")
        path = tmp_path / "bad.graph"
        path.write_text(f"{{{fields}}}")
        assert main(["switch", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("digits", [30, 400])
    def test_an_order_beyond_any_matrix_is_an_invalid_graph(self, digits, tmp_path, capsys):
        order = "1" + "0" * (digits - 1)
        text = f'{{"order": {order}, "edges": [[0, 1, 1.0]]}}'
        with pytest.raises(InvalidGraph, match=f"^order {order} is too large"):
            loads_document(text)
        path = tmp_path / "huge.graph"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: InvalidGraph: order {order} ")

    @pytest.mark.parametrize("order, partition, named", [
        (2, '{"cells": [[0, 0]], "d": [1]}', r"part \(0, 0\) repeats a vertex"),
        (3, '{"cells": [[0, 1]], "d": [2, 2]}', r"part \(2, 2\) repeats a vertex"),
    ])
    def test_a_partition_that_repeats_a_vertex_is_invalid(self, order, partition, named,
                                                          tmp_path, capsys):
        # it passed the set-based cover check, and numpy raised in the switch
        text = f'{{"order": {order}, "edges": [[0, 1, 1.0]], "partition": {partition}}}'
        with pytest.raises(InvalidPartition, match=f"^{named}$"):
            loads_document(text)
        path = tmp_path / "repeats.graph"
        path.write_text(text)
        for command in ("validate", "switch"):
            assert main([command, str(path)]) == 1
            assert re.fullmatch(f"error: InvalidPartition: {named}\n", capsys.readouterr().err)

    @pytest.mark.parametrize("fields", [
        '"order": 2, "edges": [[0, 1, {big}]]',
        '"order": 2, "edges": [[0, {big}, 1.0]]',
        '"order": {big}, "edges": [[0, 1, 1.0]]',
        '"partition": {{"cells": [[0, 1]]}}, "order": 2, "edges": [[0, 1, {big}]]',
    ], ids=["weight", "endpoint", "order", "partition-first"])
    def test_an_integer_json_cannot_read_is_a_parse_error(self, fields, tmp_path, capsys):
        # json.loads raises a bare ValueError beyond int()'s 4,300 digits
        text = "{" + fields.format(big="9" * 5000) + "}"
        with pytest.raises(ParseError, match=r"^doc: Exceeds the limit \(4300 digits\)"):
            loads_document(text, "doc")
        path = tmp_path / "long.graph"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: Exceeds the limit")

    def test_weights_that_sum_past_the_float_range_load(self):
        top = 1.7976931348623157e308
        g = loads_document(f'{{"order": 2, "edges": [[0, 1, {top!r}], [1, 0, {top!r}]]}}').graph()
        assert g.edges == {(0, 1): top, (1, 0): top} and g.is_symmetric()

    def test_a_numeric_string_is_a_weight(self):
        g = loads_document('{"order": 2, "edges": [[0, 1, "1.5"], [1, 0, 2]]}').graph()
        assert g.edges == {(0, 1): 1.5, (1, 0): 2.0}

    def test_negative_loop_is_an_invalid_graph(self):
        with pytest.raises(InvalidGraph, match="loop"):
            loads_document('{"order": 2, "edges": [[0, 1, 1.0], [1, 1, -1.0]]}')

    def test_edges_written_in_order(self):
        doc = loads_document('{"order": 3, "edges": [[2, 0, 1], [0, 2, 0.5], [0, 1, -2]]}')
        assert dumps_document(doc).splitlines()[3:6] == [
            "    [0, 1, -2.0],",
            "    [0, 2, 0.5],",
            "    [2, 0, 1.0]",
        ]

    def test_bad_partition(self):
        with pytest.raises(ParseError, match="partition"):
            loads_document('{"order": 2, "edges": [], "partition": {"wrong": 1}}')

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4_left", "fig4_right"])
    def test_fixture_partitions_validate(self, name):
        doc = load_fixture(name)
        validate_seidel(doc.graph(), doc.partition)


@pytest.fixture
def walks(monkeypatch):
    """The texts `io._loads_walked` read during the test: every document the
    text path declined."""
    texts = []

    def counted(text, source, f=skio._loads_walked):
        texts.append(text)
        return f(text, source)

    monkeypatch.setattr(skio, "_loads_walked", counted)
    return texts


def document_outcome(read, text):
    """The graph, partition and metadata of a document, or the type and
    message of the domain error reading it raises."""
    try:
        doc = read(text, "<string>")
    except SeidelKitError as e:
        return type(e), str(e)
    return adjacency_matrix(doc.graph()).tobytes(), doc.order, doc.partition, doc.metadata


def assert_read_as_walked(text):
    """loads_document reads text as the walk does: same document, or same error."""
    assert document_outcome(loads_document, text) == document_outcome(skio._loads_walked, text)


def small_bench_text(rng, one_line):
    """A small document shaped like the benchmark's: signed weights on some
    ordered pairs, a partition, one line (json.dumps) or dumps_document."""
    order = int(rng.integers(4, 9))
    pairs = rng.choice(order * order, size=int(rng.integers(1, 12)), replace=False)
    weights = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 0.5, 1e-05, 1e16], size=len(pairs))
    edges = [[int(p // order), int(p % order), float(w)] for p, w in zip(sorted(pairs), weights)]
    for edge in edges:
        if edge[0] == edge[1]:  # loops carry positive weights
            edge[2] = abs(edge[2])
    raw = {"order": order, "edges": edges, "partition": {"cells": [[0, 1]], "d": [2]}}
    if one_line:
        return json.dumps(raw)
    g = WeightedDigraph.from_edges(order, edges)
    return dumps_document(GraphDocument.from_graph(g, SeidelPartition(((0, 1),), (2,))))


def read_mutated_as_walked(walks):
    """Read 300 small documents, each with one character inserted, deleted
    or replaced, as loads_document and as the walk; assert equal outcomes.
    Returns how many failed and how many the text path read."""
    rng = np.random.default_rng(12)
    alphabet = list('0123456789-+.eE[],: \n\t"{}aN')
    failed = by_text = 0
    for i in range(300):
        text = small_bench_text(rng, one_line=i % 2 == 0)
        pos, ch = int(rng.integers(len(text))), str(rng.choice(alphabet))
        kind = i % 3  # 0 inserts, 1 deletes, 2 replaces
        text = text[:pos] + ("" if kind == 1 else ch) + text[pos + (kind > 0):]
        walked = len(walks)
        read = document_outcome(loads_document, text)
        by_text += len(walks) == walked
        expected = document_outcome(skio._loads_walked, text)
        assert read == expected
        failed += isinstance(expected[0], type)
    return failed, by_text


def bench_shaped_instance(rng, order):
    """A graph with the benchmark's density (about 28 %) and weights (signed
    integers, positive loops), and a partition of its first four vertices."""
    weights = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=(order, order))
    a = np.where(rng.random((order, order)) < 0.28, weights, 0.0)
    np.fill_diagonal(a, np.abs(a.diagonal()))
    return WeightedDigraph.from_adjacency(a), SeidelPartition(((0, 1), (2, 3)), (4,))


def one_line_text(g, part):
    """The one-line json.dumps layout the benchmark writes."""
    a = adjacency_matrix(g)
    rows, cols = np.nonzero(a)
    edges = list(zip(rows.tolist(), cols.tolist(), a[rows, cols].tolist()))  # tuples dump as lists
    return json.dumps({"order": g.order, "edges": edges,
                       "partition": {"cells": [list(c) for c in part.cells], "d": list(part.d_cell)}})


# documents at the edges of what the text path vouches for
TEXT_PATH_CASES = [
    # duplicate top-level keys: json.loads keeps the last value
    '{"order": 2, "edges": [[0, 1, 1.0]], "edges": []}',
    '{"order": 2, "edges": [[0, 1, 1.0]], "edges": [[1, 0, 2.0]]}',
    '{"order": 2, "edges": [[0, 1, 1.0]], "order": 3}',
    '{"order": 2, "edges": [[1, 1, 1.0]], "order": 1}',
    # the text of an edge list where no edges are, and edges before order
    '{"order": 2, "edges": [[0, 1, 1.0]], "metadata": {"note": "\\"edges\\": [[1, 0, 5.0]]"}}',
    '{"metadata": {"note": "{\\"order\\": 2, \\"edges\\": [["}, "order": 2, "edges": [[0, 1, 1.0]]}',
    '{"edges": [[0, 1, 1.0]], "order": 2}',
    # numbers JSON does not have, and numbers where JSON has none
    '{"order": 2, "edges": [[0, 1, 01]]}',
    '{"order": 2, "edges": [[0, 1, -01]]}',
    '{"order": 2, "edges": [[0, 1, +1]]}',
    '{"order": 2, "edges": [[0, 1, .5]]}',
    '{"order": 2, "edges": [[0, 1, 5.]]}',
    '{"order": 2, "edges": [[0, 1, 1e]]}',
    '{"order": 2, "edges": [[0, 1, 1.5.2]]}',
    '{"order": 2, "edges": [[0, 1, 1e5.0]]}',
    '{"order": 2, "edges": [[0, 1, 1 5]]}',
    '{"order": 2, "edges": [[0, 1, 1.0]] 5}',
    '{"order": 2, "edges": [[0, 1, 1.0], 5]}',
    '{"order": 2, "edges": [[0, 1, 1.0]],}',
    '{"order": 2, "edges": [[0, 1, 1-2]]}',
    '{"order": 2, "edges": [[0, 1, --1]]}',
    '{"order": 2, "edges": [[0, 1, -]]}',
    '{"order": 2, "edges": [[0, 1, 1e+-5]]}',
    # an empty slot, and a number outside a triple to make up the count
    '{"order": 2, "edges": [5 [0, , 1.0]]}',
    '{"order": 2, "edges": [[0, 1, 1.0] 5, [1, , 2.0]]}',
    '{"order": 2, "edges": [[01, 1, 1.0]]}',
    # numbers outside a triple that flatten to a list of 3k numbers
    '{"order": 2, "edges": [1[, 0, 1.0]]}',
    '{"order": 9, "edges": [[0, 1, 1.0], 2[, 3, 4.0]]}',
    '{"order": 6, "edges": [[0, 1, ]5]}',
    # endpoints that are no integers, or no vertex
    '{"order": 2, "edges": [[0, 1.0, 1.0]]}',
    '{"order": 2, "edges": [[1e0, 0, 1.0]]}',
    '{"order": 2, "edges": [[0, 1' + "0" * 400 + ', 1.0]]}',
    '{"order": 2, "edges": [[-0, 1, 1.0], [0, 1, 2.0]]}',
    # weights that are no finite nonzero number
    '{"order": 2, "edges": [[0, 1, 1e400]]}',
    '{"order": 2, "edges": [[0, 1, -0]]}',
    '{"order": 2, "edges": [[0, 1, 1e-400]]}',
    '{"order": 2, "edges": [[0, 1, 1' + "0" * 400 + ']]}',
    '{"order": 2, "edges": [[0, 1, NaN]]}',
    '{"order": 2, "edges": [[0, 1, Infinity]]}',
    '{"order": 2, "edges": [[0, 1, "1.5"], [1, 0, 2.0]]}',
    '{"order": 2, "edges": [[0, 1, true]]}',
    '{"order": 2, "edges": [[false, 1, 1.0]]}',
    '{"order": 2, "edges": [[1, 1, -2.0]]}',
    # tails after the edge list: one json.loads ends them as an object
    '{"order": 2, "edges": [[0, 1, 1.0]] , "metadata": {"n": 1} }\n',
    '{"order": 2, "edges": [[0, 1, 1.0]]\r\n}',
    '{"order": 2, "edges": [[0, 1, 1.0]], }',
    '{"order": 2, "edges": [[0, 1, 1.0]],, "metadata": {}}',
    '{"order": 2, "edges": [[0, 1, 1.0]] "metadata": {}}',
    '{"order": 2, "edges": [[0, 1, 1.0]]}}',
    '{"order": 2, "edges": [[0, 1, 1.0]]',
    '{"order": 2, "edges": [[0, 1, 1.0]]\x0b}',
    '{"order": 2, "edges": [[0, 1, 1.0]], "": 5, "metadata": {"": 1}}',
    '{"order": 2, "edges": [[0, 1, 1.0]], "metadata": {"n": [1}}',
    '{"order": 2, "edges": [[0, 1, 1.0]], "metadata": NaN}',
    # tails that would continue a number
    '{"order": 2, "edges": [[0, 1, 1.0]].5}',
    '{"order": 2, "edges": [[0, 1, 1.0]]e5}',
    '{"order": 2, "edges": [[0, 1, 1.0]]E+1, "metadata": {}}',
    '{"order": 2, "edges": [[0, 1, 1.0]]0}',
    # JSON whitespace of every kind
    '{\r\n\t"order": 2,\r\n\t"edges": [\r\n\t\t[0,\t1,\t1.0],\r\n\t\t[1, 0, 2E+1]\r\n\t]\r\n}\r\n',
    '{"order": 2, "edges": [[0, 1, 1.0],[1, 0, 2.0]]}',
    '{"order":2,"edges":[[0,1,1.0],[1,0,2.0]]}',
    '{"order": 2, "edges": []}',
    # faults past the first triple, which a cut at every triple reads alone
    '{"order": 3, "edges": [[0, 1, 1.0] ,\n\t[1, 2, 2.0], [2, 0, 01]]}',
    '{"order": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 1e400]]}',
    '{"order": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0], [0, 1, 3.0]]}',
    '{"order": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 0, 1' + "0" * 400 + ']]}',
    '{"order": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 2, -1.0]]}',
    '{"order": 3, "edges": [[0, 1, 1.0], [1, 2, ], [2, 0, 1.0]]}',
    '{"order": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0] [2, 0, 1.0]]}',
    # metadata nested deeper than json.loads recurses
    pytest.param('{"order": 2, "edges": [[0, 1, 1.0]], "metadata": '
                 + '{"n": ' * 100_000 + "1" + "}" * 100_000 + "}", id="metadata-nested-100000-deep"),
]


class TestTextPath:
    """`loads_document` reads an edge list as text when it can vouch for it;
    every outcome equals the walk's (`io._loads_walked`)."""

    @pytest.mark.parametrize("text", TEXT_PATH_CASES)
    def test_the_text_path_reads_as_the_walk(self, text):
        assert_read_as_walked(text)

    def test_a_character_past_ascii_in_the_edge_list_is_walked(self, walks):
        # the text path declines, and the walk names the fault
        text = '{"order": 2, "edges": [[0,\u00a01, 1.0]]}'
        with pytest.raises(ParseError, match="^<string>: line 1: Expecting value"):
            loads_document(text)
        assert walks == [text]

    def test_mutated_documents_read_as_the_walk(self, walks):
        failed, by_text = read_mutated_as_walked(walks)
        assert failed > 150 and by_text > 60  # 213 and 94 of 300

    @pytest.mark.parametrize("text", TEXT_PATH_CASES)
    def test_a_cut_at_every_triple_reads_as_the_walk(self, text, walks, monkeypatch):
        assert_read_as_walked(text)
        routes = walks[:]
        monkeypatch.setattr(skio, "_READ_SLICE", 1)  # each slice ends at the next "["
        assert_read_as_walked(text)
        assert walks == routes * 2

    def test_mutated_documents_cut_at_every_triple_read_as_the_walk(self, walks, monkeypatch):
        read_mutated_as_walked(walks)
        routes = walks[:]
        monkeypatch.setattr(skio, "_READ_SLICE", 1)
        read_mutated_as_walked(walks)
        assert walks == routes * 2

    def test_a_bench_shaped_document_reads_in_slices(self, walks, monkeypatch):
        g, part = bench_shaped_instance(np.random.default_rng(5), 144)
        text = one_line_text(g, part)
        for size in (1, 4096):  # slices of one triple, of a few hundred
            monkeypatch.setattr(skio, "_READ_SLICE", size)
            doc = loads_document(text)
            assert doc.graph() == g and doc.partition == part and walks == []

    def test_both_layouts_take_the_text_path(self, walks):
        g, part = heavy_cycle_instance()
        indented = dumps_document(GraphDocument.from_graph(g, part, {"note": "x"}))
        one_line = json.dumps(json.loads(indented))
        assert "\n" not in one_line
        assert loads_document(indented) == loads_document(one_line)
        assert walks == []

    def test_repr_floats_round_trip_on_the_text_path(self, walks):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1e16), (1, 0, 1e-05), (0, 0, 5e-324),
                                           (1, 2, -0.5), (2, 0, 2.5e-08)])
        text = dumps_document(GraphDocument.from_graph(g))
        assert "1e+16" in text and "1e-05" in text and "5e-324" in text and "2.5e-08" in text
        assert dumps_document(loads_document(text)) == text
        assert loads_document(text).graph() == g
        assert loads_document(text.replace("e-", "E-").replace("e+", "E+")).graph() == g
        assert walks == []


def traced_peak(f, *args):
    """(the most memory f(*args) held at once, by tracemalloc, its result)"""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestBlocks:
    """`dumps_document` renders a block of rows at a time and `loads_document`
    reads a slice at a time; the text is the same at any block size."""

    @pytest.mark.parametrize("name", [*ALL_FIXTURES, "bench-shaped"])
    def test_one_row_blocks_write_the_same_text(self, name, monkeypatch):
        if name == "bench-shaped":
            g, part = bench_shaped_instance(np.random.default_rng(6), 160)
            doc = GraphDocument.from_graph(g, part, {"note": "x"})
        else:
            doc = load_fixture(name)
        text = dumps_document(doc)
        monkeypatch.setattr(skio, "_WRITE_BLOCK", 1)  # one row per block
        assert dumps_document(doc) == text

    @pytest.mark.parametrize("block", [1, 6, 9])  # 1, 2 and 3 rows of order 3
    @pytest.mark.parametrize("edges, lines", [
        ([(0, 1, 1.0), (0, 2, -2.0)], ["    [0, 1, 1.0],", "    [0, 2, -2.0]"]),
        ([(2, 0, 1.5)], ["    [2, 0, 1.5]"]),  # the only edge in the last row
        ([(0, 0, 2.0), (2, 2, 0.5)], ["    [0, 0, 2.0],", "    [2, 2, 0.5]"]),
        ([], []),
    ])
    def test_blocks_without_edges_leave_no_trace(self, edges, lines, block, monkeypatch,
                                                 tmp_path):
        monkeypatch.setattr(skio, "_WRITE_BLOCK", block)
        doc = GraphDocument.from_graph(WeightedDigraph.from_edges(3, edges))
        edge_lines = ['  "edges": [', *lines, "  ]"] if lines else ['  "edges": []']
        text = "\n".join(["{", '  "order": 3,', *edge_lines, "}", ""])
        assert dumps_document(doc) == text
        write_document(doc, tmp_path / "doc.graph")
        assert (tmp_path / "doc.graph").read_text() == text
        assert loads_document(text) == doc

    def test_text_handling_holds_a_few_times_the_text(self):
        # order 576 at the benchmark's density: about 1.6 MB of one-line
        # document and 2 MB written; one join of the whole edge list held
        # 7.5 times its output, one json.loads 8.2 times the text
        g, part = bench_shaped_instance(np.random.default_rng(7), 576)
        text = one_line_text(g, part)
        loads_peak, doc = traced_peak(loads_document, text)
        dumps_peak, out = traced_peak(dumps_document, doc)
        assert doc.graph() == g and doc.partition == part
        assert loads_peak < 7 * len(text) and dumps_peak < 3 * len(out)


def fixture_file(name, tmp_path):
    path = tmp_path / f"{name}.graph"
    write_document(load_fixture(name), path)
    return str(path)


class TestCli:
    def test_validate_fig2(self, tmp_path, capsys):
        assert main(["validate", fixture_file("fig2", tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "seidel: valid" in out
        assert "p=0 q=1 r=0" in out
        assert "starlike: INVALID" in out

    def test_validate_fig4(self, tmp_path, capsys):
        assert main(["validate", fixture_file("fig4_left", tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "starlike: valid" in out

    def test_validate_reports_a_failed_seidel_check(self, tmp_path, capsys):
        path = tmp_path / "hub.graph"
        write_document(GraphDocument.from_graph(
            WeightedDigraph.from_edges(4, [(3, 0, 1.0)]),
            partition=SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))), path)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out.endswith(
            "seidel: INVALID (BadAdjacencyCount: hub 3 is adjacent to 1 vertices of cell 0; "
            "allowed counts are 0 or 3)\n")

    def test_validate_needs_partition(self, tmp_path, capsys):
        assert main(["validate", fixture_file("k2", tmp_path)]) == 2

    def test_switch_adjacency_moves_hub(self, tmp_path, capsys):
        out_path = tmp_path / "switched.graph"
        code = main(
            [
                "switch",
                fixture_file("fig2", tmp_path),
                "--kind",
                "adjacency",
                "--verify",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        result = read_document(out_path).graph()
        assert sorted(v for (u, v) in result.edges if u == 8) == [0, 3, 6, 7]
        assert "max spectral gap" in capsys.readouterr().out

    def test_switch_verify_scales_with_the_weights(self, tmp_path, capsys):
        g, part = heavy_cycle_instance()
        path = tmp_path / "heavy.graph"
        write_document(GraphDocument.from_graph(g, partition=part), path)
        assert main(["switch", str(path), "--verify"]) == 0
        assert "max spectral gap" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, kind, solves", [("fig2", "adjacency", 2), ("fig4_left", "laplacian", 2)]
    )
    def test_switch_verify_solves_each_spectrum_once(
        self, name, kind, solves, tmp_path, eigensolves
    ):
        # the two spectra printed; the switch itself is certified by U M U
        path = fixture_file(name, tmp_path)
        assert main(["--quiet", "switch", path, "--kind", kind, "--verify"]) == 0
        assert len(eigensolves) == solves

    def test_switch_force_needs_a_laplacian_kind(self, tmp_path, capsys):
        path = fixture_file("fig2", tmp_path)
        assert main(["switch", path, "--kind", "adjacency", "--force"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--force applies only to --kind laplacian or signless" in captured.err

    def test_switch_laplacian_matches_fixture(self, tmp_path):
        out_path = tmp_path / "switched.graph"
        code = main(
            [
                "switch",
                fixture_file("fig4_left", tmp_path),
                "--kind",
                "laplacian",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert read_document(out_path).graph() == load_fixture("fig4_right").graph()

    def test_switch_signless_keeps_loops(self, tmp_path, capsys):
        code = main(["switch", fixture_file("fig4_left", tmp_path), "--kind", "signless"])
        assert code == 0
        doc = loads_document(capsys.readouterr().out)
        left = load_fixture("fig4_left").graph()
        assert all(doc.graph().loop(v) == left.loop(v) for v in range(10))

    def test_switch_starlike_violation_needs_force(self, tmp_path, capsys):
        path = fixture_file("fig5_left", tmp_path)
        assert main(["switch", path, "--kind", "laplacian"]) == 1
        assert "CrossCellEdge" in capsys.readouterr().err
        assert main(["switch", path, "--kind", "laplacian", "--out", str(tmp_path / "o.graph")]) == 1
        assert (
            main(
                [
                    "switch",
                    path,
                    "--kind",
                    "laplacian",
                    "--force",
                    "--out",
                    str(tmp_path / "o.graph"),
                ]
            )
            == 0
        )
        assert read_document(tmp_path / "o.graph").graph() == load_fixture("fig5_right").graph()

    def test_spectra(self, tmp_path, capsys):
        assert main(["spectra", fixture_file("k2", tmp_path), "--kind", "laplacian"]) == 0
        assert "spectrum: 0 2" in capsys.readouterr().out

    def test_spectra_identical_for_switched_pair(self, tmp_path, capsys):
        main(["spectra", fixture_file("fig4_left", tmp_path), "--kind", "laplacian"])
        left = capsys.readouterr().out.splitlines()[-1]
        main(["spectra", fixture_file("fig4_right", tmp_path), "--kind", "laplacian"])
        right = capsys.readouterr().out.splitlines()[-1]
        assert left == right

    def test_density(self, tmp_path, capsys):
        assert main(["density", fixture_file("k2", tmp_path)]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_entropy_pure_state(self, tmp_path, capsys):
        assert main(["entropy", fixture_file("k2", tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entropy: 0" in out
        assert "pure: True" in out
        assert "rank: 1" in out

    def test_entropy_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.graph"
        path.write_text('{"order": 3, "edges": []}\n')
        assert main(["entropy", str(path)]) == 1
        assert "ZeroTrace" in capsys.readouterr().err

    def test_strength_scan_stdout(self, capsys):
        assert main(["strength-scan", "--max-order", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "order,m,n,kind,k_sch,k_wz"
        assert out.splitlines()[1] == "4,2,2,single,1.000000000000,0.500000000000"

    def test_strength_scan_usage_error(self, capsys):
        assert main(["strength-scan", "--max-order", "3"]) == 2

    def test_strength_scan_file_reports_its_rows(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        assert main(["strength-scan", "--max-order", "6", "--out", str(path)]) == 0
        rows = len(path.read_text().splitlines()) - 1  # below the header
        assert capsys.readouterr().out == f"wrote {path} ({rows} rows)\n"

    def test_strength_scan_deterministic_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["--quiet", "strength-scan", "--max-order", "20", "--out", str(a)])
        main(["--quiet", "strength-scan", "--max-order", "20", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_isomorphic(self, tmp_path, capsys):
        left = fixture_file("fig4_left", tmp_path)
        right = fixture_file("fig4_right", tmp_path)
        assert main(["isomorphic", left, right]) == 0
        assert "isomorphic: false" in capsys.readouterr().out
        assert main(["isomorphic", left, left]) == 0
        assert "isomorphic: true" in capsys.readouterr().out

    def test_cospectral_command(self, tmp_path, capsys):
        left = fixture_file("fig5_left", tmp_path)
        right = fixture_file("fig5_right", tmp_path)
        assert main(["cospectral", left, right, "--kind", "laplacian"]) == 0
        assert "cospectral (laplacian): true" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.graph"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["spectra", "{missing}"], "No such file or directory"),
        (["spectra", "{tmp}"], "Is a directory"),
        (["spectra", "{latin1}"], "latin1.graph: not UTF-8 text, byte 45"),
        (["switch", "{fig2}", "--out", "{tmp}/no-dir/out.graph"], "No such file or directory"),
        (["strength-scan", "--max-order", "4", "--out", "{tmp}/no-dir/scan.csv"],
         "No such file or directory"),
        # cospectral read false on this true pair, and entropy rank 0
        (["--tol", "nan", "cospectral", "{fig4_left}", "{fig4_right}"], "got nan"),
        (["--tol", "nan", "entropy", "{fig4_left}"], "got nan"),
        (["--tol", "inf", "spectra", "{fig4_left}"], "got inf"),
        (["--tol=-1e-9", "spectra", "{fig4_left}"], "got -1e-09"),
    ])
    def test_a_file_or_option_error_exits_2_with_one_line(self, argv, named, tmp_path, capsys):
        # an OSError or a bad byte is no traceback, and a --tol of nan fails every comparison
        latin1 = tmp_path / "latin1.graph"
        latin1.write_bytes(b'{"order": 2, "edges": [], "metadata": {"n": "\xe9"}}')
        paths = {"tmp": tmp_path, "missing": tmp_path / "missing.graph", "latin1": latin1,
                 **{name: fixture_file(name, tmp_path) for name in ("fig2", "fig4_left", "fig4_right")}}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and re.fullmatch(f"error: .*{re.escape(named)}.*\n", captured.err)
