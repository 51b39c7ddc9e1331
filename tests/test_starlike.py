"""Starlike validation and the L/Q-cospectral switching pipeline."""

import numpy as np
import pytest
from conftest import (
    MIRRORED_PART,
    fresh,
    mirrored_cross_block_instance,
    mutated,
    outcome,
    random_starlike_instance,
)

from seidelkit import (
    SeidelPartition,
    SpectralKind,
    WeightedDigraph,
    adjacency_matrix,
    brute_force_isomorphic,
    cospectral,
    density_from_graph,
    laplacian,
    lift_graph,
    load_fixture,
    loop_weights_preserved,
    lq_switch,
    project_graph,
    signless_laplacian,
    spectral_matrix,
    starlike,
    switch,
    switching_matrix,
    validate_starlike,
    von_neumann_entropy,
)
from seidelkit.errors import (
    AsymmetricWeights,
    CrossCellEdge,
    NegativeLoopWeight,
    NonComplementaryHalves,
    NonuniformCategory1Weights,
    NonuniformCategory2Weights,
    NotRealizable,
    OddCategory2Count,
    OrderMismatch,
    SeidelKitError,
    UnequalWeights,
    VerificationFailed,
)

C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]  # the 4-cycle on cell (0, 1, 2, 3)

KINDS = (SpectralKind.LAPLACIAN, SpectralKind.SIGNLESS)

K2 = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])


def sym_edges(pairs, w=1.0):
    out = []
    for u, v in pairs:
        out += [(u, v, w), (v, u, w)]
    return out


TWO_HUBS = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4, 5))


def two_hubs(w4, w5):
    """Symmetric graph on TWO_HUBS whose hubs 4 and 5 attach to all of the
    cell, with weights w4 and w5."""
    return WeightedDigraph.from_edges(
        6, sym_edges([(4, v) for v in range(4)], w4) + sym_edges([(5, v) for v in range(4)], w5))


class TestValidateStarlike:
    def test_fig4_left_valid(self):
        doc = load_fixture("fig4_left")
        profiles = validate_starlike(doc.graph(), doc.partition)
        small, big = profiles
        assert (small.p, small.q, small.r) == (1, 2, 1)
        assert small.w_plus == 1.0 and small.w_minus == 1.0
        assert small.w_half_plus == 1.0 and small.w_half_minus == 1.0
        assert (big.p, big.q, big.r) == (0, 4, 0)
        assert big.w_plus == 0.0  # no fully-attached hubs for the big cell

    def test_fig3_valid(self):
        doc = load_fixture("fig3")
        profiles = validate_starlike(doc.graph(), doc.partition)
        assert [p.q for p in profiles] == [4, 4, 0, 0]
        assert [p.p for p in profiles] == [0, 0, 1, 1]

    def test_fig2_not_starlike(self):
        # single category-2 hub: the count 1 is odd
        doc = load_fixture("fig2")
        with pytest.raises(OddCategory2Count):
            validate_starlike(doc.graph(), doc.partition)

    def test_cross_cell_edge(self):
        # cells are listed out of vertex order, so cell indices and vertex
        # numbers differ; (3, 0) runs from cell 0 to cell 1
        g = WeightedDigraph.from_edges(4, sym_edges([(0, 1), (2, 3), (3, 0)]))
        part = SeidelPartition(cells=((2, 3), (0, 1)))
        with pytest.raises(CrossCellEdge, match=r"edge \(3, 0\) joins cell 0 to cell 1$"):
            validate_starlike(g, part)

    def test_fig5_fails_on_cross_edges(self):
        doc = load_fixture("fig5_left")
        with pytest.raises(CrossCellEdge):
            validate_starlike(doc.graph(), doc.partition)

    def test_nonuniform_category1(self):
        # two fully-attached hubs with different outgoing weights
        edges = sym_edges([(0, 1)])
        edges += [(2, 0, 1.0), (2, 1, 1.0), (3, 0, 2.0), (3, 1, 2.0)]
        edges += [(0, 2, 1.0), (1, 2, 1.0), (0, 3, 2.0), (1, 3, 2.0)]
        g = WeightedDigraph.from_edges(4, edges)
        part = SeidelPartition(cells=((0, 1),), d_cell=(2, 3))
        with pytest.raises(NonuniformCategory1Weights):
            validate_starlike(g, part)

    def test_nonuniform_category2(self):
        edges = sym_edges(C4)
        edges += sym_edges([(4, 0), (4, 1)], w=1.0) + sym_edges([(5, 2), (5, 3)], w=2.0)
        g = WeightedDigraph.from_edges(6, edges)
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4, 5))
        with pytest.raises(NonuniformCategory2Weights,
                           match=r"^cell 0: weights \[1\.0, 2\.0\] are not uniform$"):
            validate_starlike(g, part)

    def test_nonuniform_incoming_category2(self):
        # both hubs send 1 to their half; hub 5 receives 3 where hub 4 receives 1
        edges = sym_edges(C4) + sym_edges([(4, 0), (4, 1)])
        edges += [(5, 2, 1.0), (5, 3, 1.0), (2, 5, 3.0), (3, 5, 3.0)]
        g = WeightedDigraph.from_edges(6, edges)
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4, 5))
        with pytest.raises(NonuniformCategory2Weights,
                           match=r"^cell 0: weights \[1\.0, 3\.0\] are not uniform$"):
            validate_starlike(g, part)

    def test_odd_category2_count(self):
        edges = sym_edges([(0, 1), (1, 2), (2, 3), (3, 0)]) + sym_edges([(4, 0), (4, 1)])
        g = WeightedDigraph.from_edges(5, edges)
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4,))
        with pytest.raises(OddCategory2Count):
            validate_starlike(g, part)

    def test_noncomplementary_halves(self):
        # two halves that overlap in vertex 1
        edges = sym_edges(C4) + sym_edges([(4, 0), (4, 1)]) + sym_edges([(5, 1), (5, 2)])
        g = WeightedDigraph.from_edges(6, edges)
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4, 5))
        with pytest.raises(NonComplementaryHalves,
                           match="^cell 0: attachment halves are not complementary$"):
            validate_starlike(g, part)

    def test_halves_carry_unequal_counts(self):
        # complementary halves, but three hubs on one and one on the other
        halves = [(4, 0), (4, 1), (5, 0), (5, 1), (6, 0), (6, 1), (7, 2), (7, 3)]
        g = WeightedDigraph.from_edges(8, sym_edges(C4) + sym_edges(halves))
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4, 5, 6, 7))
        with pytest.raises(NonComplementaryHalves, match="^cell 0: halves carry 3 and 1 vertices$"):
            validate_starlike(g, part)

    @pytest.mark.parametrize(
        "edges, cells, d, error, where",
        [
            # an odd count on cell 0 comes before nonuniform weights on cell 1
            (sym_edges([(6, 0), (6, 1)]) + sym_edges([(6, 4), (6, 5)])
             + sym_edges([(7, 4), (7, 5)], w=2.0),
             ((0, 1, 2, 3), (4, 5)), (6, 7), OddCategory2Count, "cell 0 has 1"),
            # on one cell, nonuniform category-1 weights come before an odd count
            (sym_edges([(4, 0), (4, 1), (4, 2), (4, 3)]) + sym_edges([(6, 0), (6, 1)])
             + sym_edges([(5, 0), (5, 1), (5, 2), (5, 3)], w=2.0),
             ((0, 1, 2, 3),), (4, 5, 6), NonuniformCategory1Weights, "cell 0: weights"),
            # on one hub, partial outgoing edges come before unequal incoming ones
            ([(4, 0, 1.0), (0, 4, 1.0), (1, 4, 2.0)],
             ((0, 1, 2, 3),), (4,), UnequalWeights, "hub 4 / cell 0: outgoing edges cover"),
            # on one cell, four distinct halves come before nonuniform category-2 weights
            (sym_edges([(4, 0), (4, 1), (5, 1), (5, 2), (6, 2), (6, 3)])
             + sym_edges([(7, 3), (7, 0)], w=2.0),
             ((0, 1, 2, 3),), (4, 5, 6, 7), NonComplementaryHalves, "use 4 distinct halves"),
        ],
    )
    def test_first_fault_is_reported(self, edges, cells, d, error, where):
        part = SeidelPartition(cells=cells, d_cell=d)
        g = WeightedDigraph.from_edges(len(part.members()), edges)
        with pytest.raises(error, match=where):
            validate_starlike(g, part)

    def test_random_instances_validate(self, rng):
        for _ in range(25):
            g, part = random_starlike_instance(rng)
            profiles = validate_starlike(g, part)
            assert len(profiles) == len(part.cells)

    def test_category1_weights_equal_under_the_tolerance_rule_are_uniform(self):
        # 0.1 + 0.2 is 0.3 plus one ulp: validate_seidel and the certificate
        # accept it, so the starlike check does too
        g = two_hubs(0.3, 0.1 + 0.2)
        [profile] = validate_starlike(g, TWO_HUBS)
        assert (profile.w_plus, profile.w_minus, profile.p) == (0.1 + 0.2, 0.1 + 0.2, 2)
        for kind in KINDS:
            lq_switch(fresh(g), TWO_HUBS, kind, verify=True)

    def test_category1_weights_apart_beyond_the_tolerance_rule_are_not(self):
        with pytest.raises(NonuniformCategory1Weights,
                           match=r"^cell 0: weights \[1\.0, 1\.000000001\] are not uniform$"):
            validate_starlike(two_hubs(1.0, 1.0 + 1e-9), TWO_HUBS)


class TestLift:
    def test_k2_laplacian(self):
        h = lift_graph(K2, SpectralKind.LAPLACIAN)
        assert h.loop(0) == 1.0 and h.loop(1) == 1.0
        assert h.weight(0, 1) == -1.0 and h.weight(1, 0) == -1.0

    def test_k2_signless(self):
        h = lift_graph(K2, SpectralKind.SIGNLESS)
        assert h.loop(0) == 1.0
        assert h.weight(0, 1) == 1.0

    def test_isolated_vertex_stays_loopless(self):
        g = WeightedDigraph.from_edges(3, sym_edges([(0, 1)]))
        h = lift_graph(g, SpectralKind.LAPLACIAN)
        assert h.loop(2) == 0.0
        assert (2, 2) not in h.edges

    def test_asymmetric_rejected(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(AsymmetricWeights):
            lift_graph(g, SpectralKind.LAPLACIAN)

    def test_adjacency_equals_spectral_matrix(self, rng):
        for _ in range(10):
            g, _ = random_starlike_instance(rng)
            for kind in KINDS:
                h = lift_graph(g, kind)
                assert np.array_equal(adjacency_matrix(h), spectral_matrix(g, kind))


class TestKindByValue:
    """A kind's string value means its member, in every function that takes one."""

    TRIANGLE = WeightedDigraph.from_adjacency(np.ones((3, 3)) - np.eye(3))

    @pytest.mark.parametrize("kind, matrix", [("laplacian", laplacian),
                                              ("signless", signless_laplacian)])
    def test_spectral_matrix(self, kind, matrix):
        g = self.TRIANGLE
        assert np.array_equal(spectral_matrix(g, kind), matrix(g))
        assert np.array_equal(spectral_matrix(g, kind), spectral_matrix(g, SpectralKind(kind)))

    def test_the_triangle_states(self):
        # L = 3I - J has spectrum (0, 3, 3): one bit; Q = I + J has (1, 1, 4)
        entropy = {kind: von_neumann_entropy(density_from_graph(self.TRIANGLE, kind))
                   for kind in ("laplacian", "signless")}
        assert entropy["laplacian"] == pytest.approx(1.0, abs=1e-12)
        assert entropy["signless"] == pytest.approx(1.2516291673878228, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_project_graph(self, kind):
        g = WeightedDigraph.from_edges(4, sym_edges(C4) + sym_edges([(0, 2)], w=2.0))
        assert project_graph(lift_graph(g, kind), kind.value) == g

    @pytest.mark.parametrize("f", [
        spectral_matrix, lift_graph, project_graph, density_from_graph,
        lambda g, kind: lq_switch(g, SeidelPartition(((0, 1, 2),)), kind),
    ])
    def test_an_unknown_kind_raises(self, f):
        # it once read as Q in spectral_matrix and as L in project_graph
        with pytest.raises(ValueError, match="'bogus' is not a valid SpectralKind"):
            f(self.TRIANGLE, "bogus")

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_value_and_its_member_share_one_recorded_solve(self, kind, eigensolves):
        g = fresh(self.TRIANGLE)
        assert cospectral(spectral_matrix(g, kind.value), spectral_matrix(g, kind))
        assert len(eigensolves) == 1
        assert list(g._facts) == [("spectrum", kind)]


class TestProject:
    def test_round_trip_signless_with_loops(self, rng):
        for _ in range(15):
            g, _ = random_starlike_instance(rng, with_loops=True)
            assert project_graph(lift_graph(g, SpectralKind.SIGNLESS), SpectralKind.SIGNLESS) == g

    def test_round_trip_laplacian_loopless(self, rng):
        # the Laplacian of a positively-looped graph is blind to its loops,
        # so the exact round trip is a loopless-graph property
        for _ in range(15):
            g, _ = random_starlike_instance(rng, with_loops=False)
            assert project_graph(lift_graph(g, SpectralKind.LAPLACIAN), SpectralKind.LAPLACIAN) == g

    def test_laplacian_round_trip_drops_loops(self):
        g = WeightedDigraph.from_edges(2, sym_edges([(0, 1)]) + [(0, 0, 2.0), (1, 1, 2.0)])
        back = project_graph(lift_graph(g, SpectralKind.LAPLACIAN), SpectralKind.LAPLACIAN)
        assert back == WeightedDigraph.from_edges(2, sym_edges([(0, 1)]))

    def test_negative_loop_weight(self):
        # diagonal below the off-diagonal absolute row sum
        h = WeightedDigraph.from_edges(2, sym_edges([(0, 1)], w=3.0) + [(0, 0, 1.0), (1, 1, 1.0)])
        with pytest.raises(NegativeLoopWeight):
            project_graph(h, SpectralKind.SIGNLESS)

    def test_laplacian_not_realizable(self):
        h = WeightedDigraph.from_edges(2, sym_edges([(0, 1)], w=3.0) + [(0, 0, 1.0), (1, 1, 1.0)])
        with pytest.raises(NotRealizable):
            project_graph(h, SpectralKind.LAPLACIAN)


class TestLqSwitch:
    @pytest.mark.parametrize("switched", [
        lambda g, part, draw: lq_switch(g, part, KINDS[draw % 2]),
        lambda g, part, draw: switch(g, part),
    ], ids=["lq_switch", "switch"])
    def test_the_result_is_recorded_symmetric_and_is(self, symmetry_scans, switched):
        rng = np.random.default_rng(10)
        for draw in range(300):
            g, part = random_starlike_instance(rng)
            g = WeightedDigraph.from_adjacency(adjacency_matrix(g) * (0.1, 1.0, 1 / 3)[draw % 3])
            h = switched(g, part, draw)
            symmetry_scans.clear()
            b = adjacency_matrix(h)
            assert h.is_symmetric() and bool((b == b.T).all())
            assert symmetry_scans == []

    def test_fig4_pipeline_reproduces_right_fixture(self):
        left = load_fixture("fig4_left")
        right = load_fixture("fig4_right")
        result = lq_switch(left.graph(), left.partition, SpectralKind.LAPLACIAN, verify=True)
        assert result == right.graph()

    def test_fig4_spectra_and_isomorphism(self):
        left = load_fixture("fig4_left").graph()
        right = load_fixture("fig4_right").graph()
        for kind in KINDS:
            assert cospectral(spectral_matrix(left, kind), spectral_matrix(right, kind), 1e-9)
        assert not brute_force_isomorphic(left, right)
        assert loop_weights_preserved(left, right)

    def test_single_cell_no_hub_is_fixed(self):
        g = WeightedDigraph.from_edges(4, sym_edges([(0, 1), (1, 2), (2, 3), (3, 0)]))
        part = SeidelPartition(cells=((0, 1, 2, 3),))
        for kind in KINDS:
            assert lq_switch(g, part, kind, verify=True) == g

    def test_matches_conjugation(self, rng):
        for _ in range(30):
            g, part = random_starlike_instance(rng)
            u = switching_matrix(part, g.order)
            for kind in KINDS:
                m = spectral_matrix(g, kind)
                result = lq_switch(g, part, kind)
                assert np.max(np.abs(spectral_matrix(result, kind) - u @ m @ u)) < 1e-12

    def test_cospectral_pairs(self, rng):
        for _ in range(20):
            g, part = random_starlike_instance(rng)
            for kind in KINDS:
                result = lq_switch(g, part, kind)
                assert cospectral(spectral_matrix(g, kind), spectral_matrix(result, kind), 1e-9)

    def test_loop_weights_preserved(self, rng):
        for _ in range(20):
            g, part = random_starlike_instance(rng, with_loops=True)
            for kind in KINDS:
                assert loop_weights_preserved(g, lq_switch(g, part, kind))

    def test_verify_scales_with_the_weights(self):
        cycle, hub = [(0, 1), (1, 2), (2, 0)], [(3, v) for v in range(3)]
        g = WeightedDigraph.from_edges(4, sym_edges(cycle, 1e4) + sym_edges(hub, 1e3))
        part = SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))
        assert lq_switch(g, part, SpectralKind.LAPLACIAN, verify=True) == g

    def test_force_skips_validation(self):
        left = load_fixture("fig5_left")
        with pytest.raises(CrossCellEdge):
            lq_switch(left.graph(), left.partition, SpectralKind.LAPLACIAN)
        result = lq_switch(left.graph(), left.partition, SpectralKind.LAPLACIAN, force=True)
        assert result == load_fixture("fig5_right").graph()

    def test_force_certifies_like_verify(self):
        # force skips validation but certifies M(G') = U M U exactly as verify
        # does, at weights that round
        rng = np.random.default_rng(4)
        for _ in range(100):
            g, part = random_starlike_instance(rng)
            for scale in (0.1, 1 / 3, 7.3e3):
                h = WeightedDigraph.from_adjacency(scale * adjacency_matrix(g))
                for kind in KINDS:
                    assert lq_switch(h, part, kind, force=True) == lq_switch(
                        h, part, kind, verify=True)

    def test_force_and_verify_run_no_eigensolver(self, eigensolves):
        for name, force in (("fig5_left", True), ("fig4_left", False)):
            doc = load_fixture(name)
            lq_switch(doc.graph(), doc.partition, SpectralKind.LAPLACIAN,
                      force=force, verify=not force)
        assert eigensolves == []

    def test_forced_symmetric_input_fails_on_realizability(self):
        # the switch keeps the input symmetric, so a forced switch that is not
        # L/Q-cospectral fails the U M U certificate, never on AsymmetricWeights
        rng = np.random.default_rng(0)
        for kind in KINDS:
            for _ in range(1000):
                with pytest.raises(VerificationFailed, match=r"U M U .* at \("):
                    lq_switch(mirrored_cross_block_instance(rng), MIRRORED_PART, kind, force=True)

    def test_signless_switch_keeps_loops_at_weights_that_round(self):
        rng = np.random.default_rng(5)
        changed = 0
        for _ in range(1500):
            g, part = random_starlike_instance(rng)
            for scale in (0.1, 1 / 3, 7.3e3):
                h = WeightedDigraph.from_adjacency(scale * adjacency_matrix(g))
                changed += not loop_weights_preserved(h, lq_switch(h, part, SpectralKind.SIGNLESS))
        assert changed == 0

    def test_tiny_loops_survive(self):
        # loops far below NUMERIC_TOL are weights of G, not rounding residues
        edges = sym_edges([(0, 1), (2, 3)]) + [(0, 0, 1e-10), (1, 1, 1e-10)]
        g = WeightedDigraph.from_edges(4, edges)
        part = SeidelPartition(cells=((0, 1),), d_cell=(2, 3))
        result = lq_switch(g, part, SpectralKind.SIGNLESS, verify=True)
        assert result.loop(0) == 1e-10 and result.loop(1) == 1e-10

    def test_asymmetric_input_rejected(self):
        # a directed 3-cycle is a valid starlike cell, but has no Laplacian
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        part = SeidelPartition(cells=((0, 1, 2),))
        validate_starlike(g, part)
        for kind in KINDS:
            for force in (False, True):
                with pytest.raises(AsymmetricWeights, match=r"^w\(0, 1\) = 1\.0 but w\(1, 0\)"):
                    lq_switch(g, part, kind, force=force)

    def test_is_the_adjacency_switch(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g, part = random_starlike_instance(rng)
            for kind in KINDS:
                assert lq_switch(g, part, kind) == switch(g, part)

    @pytest.mark.parametrize("verify, calls", [(False, 0), (True, 2)])
    def test_spectral_matrix_only_for_the_certificate(self, monkeypatch, verify, calls):
        seen = []
        monkeypatch.setattr(starlike, "spectral_matrix",
                            lambda g, kind, f=spectral_matrix: seen.append(kind) or f(g, kind))
        doc = load_fixture("fig4_left")
        for kind in KINDS:
            seen.clear()
            lq_switch(doc.graph(), doc.partition, kind, verify=verify)
            assert seen == [kind] * calls

    def test_fig5_cospectral_but_not_isomorphic(self):
        left = load_fixture("fig5_left").graph()
        right = load_fixture("fig5_right").graph()
        assert cospectral(
            spectral_matrix(left, SpectralKind.LAPLACIAN),
            spectral_matrix(right, SpectralKind.LAPLACIAN),
            1e-9,
        )
        assert not brute_force_isomorphic(left, right)


class TestLoopWeightsPreserved:
    def test_loopless_pair(self):
        assert loop_weights_preserved(K2, K2)

    def test_mismatch(self):
        a = WeightedDigraph.from_edges(2, sym_edges([(0, 1)]) + [(0, 0, 3.0)])
        b = WeightedDigraph.from_edges(2, sym_edges([(0, 1)]) + [(0, 0, 2.0)])
        assert not loop_weights_preserved(a, b)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            loop_weights_preserved(K2, WeightedDigraph(3))


class TestRecordedChecks:
    """A graph remembers a starlike validation that passed, per partition."""

    def test_validate_then_lq_switch_checks_once(self, seidel_checks):
        doc = load_fixture("fig4_left")
        g, part = doc.graph(), doc.partition
        validate_starlike(g, part)
        for kind in KINDS:
            lq_switch(g, part, kind)
        assert len(seidel_checks) == 1

    def test_an_equal_partition_is_remembered(self, seidel_checks):
        doc = load_fixture("fig4_left")
        g, part = doc.graph(), doc.partition
        same = SeidelPartition(tuple(c[::-1] for c in part.cells), part.d_cell[::-1])
        assert same == part and same is not part
        validate_starlike(g, part)
        assert validate_starlike(g, same) == validate_starlike(fresh(g), part)
        lq_switch(g, same, SpectralKind.LAPLACIAN)
        assert len(seidel_checks) == 2  # g once, its fresh copy once

    def test_a_failed_check_fails_again(self, seidel_checks):
        doc = load_fixture("fig5_left")
        g, part = doc.graph(), doc.partition
        messages = set()
        for _ in range(2):
            with pytest.raises(CrossCellEdge) as e:
                validate_starlike(g, part)
            messages.add(str(e.value))
        with pytest.raises(CrossCellEdge) as e:
            lq_switch(g, part, SpectralKind.LAPLACIAN)
        messages.add(str(e.value))
        assert len(messages) == 1 and len(seidel_checks) == 3

    def test_profiles_are_fresh(self):
        doc = load_fixture("fig4_left")
        g, part = doc.graph(), doc.partition
        first = validate_starlike(g, part)
        expected = list(first)
        first.clear()
        assert validate_starlike(g, part) == expected

    def test_force_switches_as_before(self, seidel_checks):
        left = load_fixture("fig5_left")
        g, part = left.graph(), left.partition
        expected = load_fixture("fig5_right").graph()
        assert lq_switch(g, part, SpectralKind.LAPLACIAN, force=True) == expected
        with pytest.raises(CrossCellEdge):
            lq_switch(g, part, SpectralKind.LAPLACIAN)
        doc = load_fixture("fig4_left")
        h, part = doc.graph(), doc.partition
        validate_starlike(h, part)
        for kind in KINDS:
            assert lq_switch(h, part, kind, force=True) == lq_switch(fresh(h), part, kind)
        assert len(seidel_checks) == 4

    def test_a_recorded_check_changes_no_outcome(self):
        # every outcome of lq_switch, graph or error, is the same whether or
        # not validate_starlike ran first; about 40% of the draws fail a check
        rng, mutations = np.random.default_rng(4), np.random.default_rng(5)
        recorded = failed = 0
        for _ in range(150):
            g, part = random_starlike_instance(rng)
            if mutations.random() < 0.5:
                g = mutated(mutations, g)
            for kind in KINDS:
                for verify in (False, True):
                    cold = outcome(lq_switch, fresh(g), part, kind, verify=verify)
                    h = fresh(g)
                    try:
                        validate_starlike(h, part)
                        recorded += 1
                    except SeidelKitError:
                        failed += 1
                    assert outcome(lq_switch, h, part, kind, verify=verify) == cold
        assert recorded > 100 and failed > 100
