"""Document format, fixtures and the command-line interface."""

import pytest
from conftest import heavy_cycle_instance

from seidelkit import (
    GraphDocument,
    SeidelPartition,
    WeightedDigraph,
    dumps_document,
    load_fixture,
    read_document,
    validate_seidel,
    write_document,
)
from seidelkit.cli import main
from seidelkit.errors import InvalidGraph, ParallelEdges, ParseError
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
