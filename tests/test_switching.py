"""Switching operators, block transforms and the full graph switch."""

import numpy as np
import pytest
from conftest import (
    MIRRORED_PART,
    char_poly_exact,
    heavy_cycle_instance,
    mirrored_cross_block_instance,
    random_seidel_instance,
)

from seidelkit import (
    SeidelOperator,
    SeidelPartition,
    SpectralKind,
    WeightedDigraph,
    adjacency_matrix,
    block_seidel,
    cospectral,
    flip_half_pattern,
    load_fixture,
    lq_switch,
    seidel_matrix,
    switch,
    switch_cross_block,
    switching,
    switching_matrix,
    validate_seidel,
    validate_starlike,
)
from seidelkit.errors import (
    BadAdjacencyCount,
    InvalidOrder,
    InvalidPartition,
    NonConstantRowSum,
    NotHalfAndHalf,
    NotRegularInduced,
    UnequalWeights,
    VerificationFailed,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# a directed 3-cycle on cell (0, 1, 2) with hub 3
CYCLE_PART = SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))


def cycle_with_hub(x0, x1, x2):
    """The directed 3-cycle of weight 1, hub 3 sending x0, x1, x2 to the cell."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 0, x0), (3, 1, x1), (3, 2, x2)]
    return WeightedDigraph.from_edges(4, edges)


def constant_row_sum_matrix(rng, m, n):
    """Random integer matrix whose rows all sum to the same value."""
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    target = float(rng.integers(-5, 6))
    a[:, -1] += target - a.sum(axis=1)
    return a


class TestSeidelMatrix:
    def test_order_two_is_pauli_x(self):
        assert np.array_equal(seidel_matrix(2), PAULI_X)

    def test_order_four(self):
        expected = 0.5 * (np.ones((4, 4)) - 2 * np.eye(4))
        assert np.allclose(seidel_matrix(4), expected, atol=0)

    def test_involution(self):
        u = seidel_matrix(3)
        assert np.max(np.abs(u @ u - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 60])
    def test_symmetric_unitary(self, n):
        u = seidel_matrix(n)
        assert np.max(np.abs(u - u.T)) == 0.0
        assert np.max(np.abs(u.T @ u - np.eye(n))) < 1e-12

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder, match="^switching operator needs order >= 2, got 1$"):
            seidel_matrix(1)

    def test_every_operator_has_the_bytes_of_the_block_formula(self, rng):
        # U_n as (2/n) J with 2/n - 1 on the diagonal, placed block by block,
        # as each operator was once built on its own
        def cell(n):
            u = np.full((n, n), 2.0 / n)
            np.fill_diagonal(u, 2.0 / n - 1.0)
            return u

        for n in range(2, 65):
            assert seidel_matrix(n).tobytes() == cell(n).tobytes()
        for _ in range(300):
            sizes = tuple(rng.integers(2, 9, rng.integers(0, 5)).tolist())
            identity = int(rng.integers(0, 5))
            expected = np.eye(sum(sizes) + identity)
            for start, n in zip(np.cumsum((0, *sizes)).tolist(), sizes):
                expected[start : start + n, start : start + n] = cell(n)
            assert SeidelOperator(sizes, identity).matrix().tobytes() == expected.tobytes()
            if not len(expected):
                continue
            vertices = iter(rng.permutation(len(expected)).tolist())
            part = SeidelPartition([[next(vertices) for _ in range(n)] for n in sizes],
                                   list(vertices))
            order = np.concatenate((*part.cells, part.d_cell)).astype(int)
            u = switching_matrix(part, len(expected))
            assert u[np.ix_(order, order)].tobytes() == expected.tobytes()
            assert block_seidel(part).matrix().tobytes() == expected.tobytes()

    # refused when the operator is built, not first in matrix()
    @pytest.mark.parametrize("sizes, named", [
        (((1,),), "switching operator needs order >= 2, got 1"),
        (((4, -3),), "switching operator needs order >= 2, got -3"),
        (((2,), -1), "identity block needs size >= 0, got -1"),
        (((3,), 1.5), "the identity size must be an integer, got 1.5"),
        (((2.5,),), "a block size must be an integer, got 2.5"),
        (((True, 2),), "a block size must be an integer, got True"),
        ((3,), "block sizes must be a sequence, got 3"),
    ])
    def test_an_operator_of_a_size_below_its_block_is_an_invalid_order(self, sizes, named):
        with pytest.raises(InvalidOrder, match=f"^{named}$"):
            SeidelOperator(*sizes)


class TestBlockSeidel:
    def test_cnot_block_form(self):
        part = SeidelPartition(cells=((0, 1),), d_cell=(2, 3))
        op = block_seidel(part)
        expected = np.zeros((4, 4))
        expected[:2, :2] = PAULI_X
        expected[2:, 2:] = np.eye(2)
        assert np.array_equal(op.matrix(), expected)
        assert op.kind == "block"

    def test_two_cells_no_hub(self):
        part = SeidelPartition(cells=((0, 1, 2), (3, 4, 5, 6)))
        op = block_seidel(part)
        m = op.matrix()
        assert m.shape == (7, 7)
        assert np.array_equal(m[:3, :3], seidel_matrix(3))
        assert np.array_equal(m[3:, 3:], seidel_matrix(4))

    def test_single_kind(self):
        op = SeidelOperator((5,))
        assert op.kind == "single"
        assert np.array_equal(op.matrix(), seidel_matrix(5))

    def test_figure2_shape(self):
        part = SeidelPartition(cells=(tuple(range(8)),), d_cell=(8,))
        m = block_seidel(part).matrix()
        assert m.shape == (9, 9)
        assert m[8, 8] == 1.0
        assert np.array_equal(m[:8, :8], seidel_matrix(8))

    def test_materialized_invariants(self, rng):
        for _ in range(20):
            sizes = tuple(int(s) for s in rng.integers(2, 7, size=rng.integers(1, 4)))
            op = SeidelOperator(sizes, int(rng.integers(0, 4)))
            u = op.matrix()
            assert np.max(np.abs(u - u.T)) == 0.0
            assert np.max(np.abs(u @ u - np.eye(op.order))) < 1e-12


class TestSwitchingMatrix:
    def test_scattered_cells_match_block_form(self):
        part = SeidelPartition(cells=((1, 3),), d_cell=(0, 2))
        u = switching_matrix(part, 4)
        assert u[1, 3] == 1.0 and u[3, 1] == 1.0
        assert u[0, 0] == 1.0 and u[2, 2] == 1.0
        assert np.max(np.abs(u @ u - np.eye(4))) < 1e-12

    def test_cover_required(self):
        part = SeidelPartition(cells=((0, 1),))
        with pytest.raises(InvalidPartition):
            switching_matrix(part, 3)


class TestCrossBlockTransform:
    def test_all_ones_square_fixed(self):
        j3 = np.ones((3, 3))
        assert np.array_equal(switch_cross_block(j3), j3)

    def test_uniform_rectangular_fixed(self):
        # oracle: U_2 (2 J_{2x4}) U_4 multiplied out equals 2 J again
        a = 2.0 * np.ones((2, 4))
        oracle = seidel_matrix(2) @ a @ seidel_matrix(4)
        assert np.max(np.abs(oracle - a)) < 1e-12
        assert np.max(np.abs(switch_cross_block(a) - oracle)) < 1e-12

    def test_zero_row_sums_with_zero_column_sums_fixed(self):
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert np.array_equal(switch_cross_block(a), a)

    def test_square_needs_constant_columns_to_be_fixed(self):
        # constant row sums alone do not make the square case a fixed point
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(switch_cross_block(a), a)
        b = np.array([[1.0, 0.0], [1.0, 0.0]])
        expected = PAULI_X @ b @ PAULI_X
        assert np.max(np.abs(switch_cross_block(b) - expected)) < 1e-12
        assert not np.allclose(switch_cross_block(b), b)

    # an empty block, a block that is not a matrix and a non-finite one are
    # refused as the function's own error
    @pytest.mark.parametrize("a", [np.array([[1.0, 0.0], [0.0, 2.0]]), np.ones(3),
                                   np.ones((2, 2, 2)), np.ones((0, 3)), np.ones((3, 0)),
                                   np.array([[np.nan, 0.0], [0.0, 1.0]]),
                                   np.array([[np.inf, 0.0], [0.0, 1.0]]),
                                   [[1, 2], [3]], [["a", "b"]], np.ones((2, 2)) + 1j,
                                   [[10**400, 0]]])
    def test_non_constant_row_sum(self, a):
        with pytest.raises(NonConstantRowSum):
            switch_cross_block(a)

    def test_matches_explicit_conjugation(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 11))
            n = int(rng.integers(2, 11))
            a = constant_row_sum_matrix(rng, m, n)
            oracle = seidel_matrix(m) @ a @ seidel_matrix(n)
            assert np.max(np.abs(switch_cross_block(a) - oracle)) < 1e-12


class TestFlipHalfPattern:
    def test_unit_flip(self):
        assert np.array_equal(flip_half_pattern([1, 0, 1, 0]), [0, 1, 0, 1])

    def test_scaled_flip(self):
        assert np.array_equal(
            flip_half_pattern([3, 3, 0, 0, 0, 3]), [0, 0, 3, 3, 3, 0]
        )

    def test_odd_length(self):
        with pytest.raises(NotHalfAndHalf):
            flip_half_pattern([1, 1, 0])

    @pytest.mark.parametrize("x", [[1, 2, 0, 0], [np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0],
                                   ["a", "b"], [1j, 0], [[1, 0], [0]], [10**400, 0]])
    def test_mixed_values(self, x):
        with pytest.raises(NotHalfAndHalf):
            flip_half_pattern(x)

    def test_wrong_split(self):
        with pytest.raises(NotHalfAndHalf):
            flip_half_pattern([1, 1, 1, 0])

    def test_matches_explicit_product(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 7))
            c = float(rng.integers(1, 9)) * (1 if rng.random() < 0.5 else -1)
            x = np.zeros(2 * m)
            x[rng.choice(2 * m, size=m, replace=False)] = c
            oracle = seidel_matrix(2 * m) @ x
            assert np.max(np.abs(flip_half_pattern(x) - oracle)) < 1e-12


def complete_graph(n, w=1.0):
    return WeightedDigraph.from_edges(
        n, [(u, v, w) for u in range(n) for v in range(n) if u != v]
    )


class TestValidateSeidel:
    def test_complete_graph_single_cell(self):
        part = SeidelPartition(cells=(tuple(range(4)),))
        report = validate_seidel(complete_graph(4), part)
        assert report.counts == ((0, 0, 0),)

    def test_star_center_is_category_one(self):
        star = WeightedDigraph.from_edges(
            4, [(0, v, 1.0) for v in (1, 2, 3)] + [(v, 0, 1.0) for v in (1, 2, 3)]
        )
        part = SeidelPartition(cells=((1, 2, 3),), d_cell=(0,))
        report = validate_seidel(star, part)
        assert report.categories[(0, 0)] == 1
        assert report.counts == ((1, 0, 0),)

    def test_unbalanced_loops_not_regular(self):
        g = WeightedDigraph.from_edges(2, [(0, 0, 1.0)])
        part = SeidelPartition(cells=((0, 1),))
        with pytest.raises(NotRegularInduced):
            validate_seidel(g, part)

    def test_bad_adjacency_count(self):
        # hub adjacent to one vertex of a three-vertex cell: 1 not in {0, 3}
        g = WeightedDigraph.from_edges(4, [(3, 0, 1.0)])
        part = SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))
        with pytest.raises(BadAdjacencyCount):
            validate_seidel(g, part)

    def test_half_attachment_odd_cell_rejected(self):
        # a 2-of-3 attachment is neither none, half nor all
        g = WeightedDigraph.from_edges(4, [(3, 0, 1.0), (3, 1, 1.0)])
        part = SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))
        with pytest.raises(BadAdjacencyCount):
            validate_seidel(g, part)

    def test_unequal_half_weights(self):
        g = WeightedDigraph.from_edges(5, [(4, 0, 1.0), (4, 1, 2.0)])
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4,))
        with pytest.raises(UnequalWeights):
            validate_seidel(g, part)

    def test_partial_direction_on_half_attachment(self):
        # outgoing edges cover only part of the attached half
        g = WeightedDigraph.from_edges(
            5, [(4, 0, 1.0), (4, 1, 1.0), (0, 4, 2.0)]
        )
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4,))
        with pytest.raises(UnequalWeights):
            validate_seidel(g, part)

    def test_random_instances_validate(self, rng):
        for _ in range(25):
            g, part = random_seidel_instance(rng)
            report = validate_seidel(g, part)
            for p, q, r in report.counts:
                assert p + q + r == len(part.d_cell)

    def test_signed_sums_must_be_regular(self):
        # absolute row and column sums of the cell are constant, signed ones
        # are not; the switch would return a graph that is not cospectral
        g = WeightedDigraph(
            4,
            {(0, 1): 2.0, (1, 0): -2.0, (0, 2): 1.0, (2, 0): 1.0,
             (3, 0): 1.0, (3, 1): 2.0, (2, 3): 1.0, (3, 2): 1.0},
        )
        part = SeidelPartition(cells=((0, 1),), d_cell=(2, 3))
        with pytest.raises(NotRegularInduced):
            validate_seidel(g, part)
        with pytest.raises(NotRegularInduced):
            switch(g, part)

    @pytest.mark.parametrize("interior", [
        # signed row sums 0, absolute ones 4, 2, 2, 4
        [[0, 1, 1, -2], [1, 0, -1, 0], [1, -1, 0, 0], [-2, 0, 0, 2]],
        # every row sums to 1, the columns to 0, 2, 1 and 1
        [[0, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    ], ids=["absolute", "columns"])
    @pytest.mark.parametrize("part, where", [
        (SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4, 5)), "cell 0"),
        (SeidelPartition(cells=((4, 5),), d_cell=(0, 1, 2, 3)), "D"),
    ], ids=["cell", "D"])
    def test_absolute_and_column_sums_must_be_regular(self, interior, part, where):
        a = np.zeros((6, 6))
        a[:4, :4] = interior
        g = WeightedDigraph.from_adjacency(a)
        named = f"^induced subgraph on {where} is not regular$"
        for f in (validate_seidel, switch):
            with pytest.raises(NotRegularInduced, match=named):
                f(g, part)

    @pytest.mark.parametrize(
        "edges, error, where",
        [
            # hub 8 is unequal on cell 0, hub 7 has a bad count on cell 1
            ([(8, 0, 1.0), (8, 1, 2.0), (7, 4, 1.0)], UnequalWeights, "hub 8 / cell 0"),
            # both faults on cell 0: the earlier hub wins
            ([(7, 0, 1.0), (7, 1, 2.0), (8, 2, 1.0)], UnequalWeights, "hub 7 / cell 0"),
            ([(8, 0, 1.0), (8, 1, 2.0), (7, 2, 1.0)], BadAdjacencyCount, "hub 7 .* cell 0"),
        ],
    )
    def test_first_failing_hub_is_reported(self, edges, error, where):
        # cells are checked in order, and within a cell the hubs of D
        g = WeightedDigraph.from_edges(9, edges)
        part = SeidelPartition(cells=((0, 1, 2, 3), (4, 5, 6)), d_cell=(7, 8))
        with pytest.raises(error, match=where):
            validate_seidel(g, part)

    @pytest.mark.parametrize("cell, allowed", [((0, 1, 2), "0 or 3"), ((0, 1, 2, 3), "0, 2 or 4")])
    def test_bad_adjacency_count_names_the_allowed_counts(self, cell, allowed):
        hub = len(cell)
        g = WeightedDigraph.from_edges(hub + 1, [(hub, 0, 1.0)])
        part = SeidelPartition(cells=(cell,), d_cell=(hub,))
        with pytest.raises(BadAdjacencyCount, match=f"cell 0; allowed counts are {allowed}$"):
            validate_seidel(g, part)


class TestSwitch:
    def test_a_partition_without_cells_switches_to_an_equal_graph(self):
        triangle = WeightedDigraph.from_adjacency(np.ones((3, 3)) - np.eye(3))
        part = SeidelPartition((), (0, 1, 2))
        assert switch(triangle, part) == triangle
        assert all(lq_switch(triangle, part, kind) == triangle for kind in SpectralKind)
        assert validate_starlike(triangle, part) == []

    def test_complete_graph_fixed(self):
        g = complete_graph(4)
        part = SeidelPartition(cells=(tuple(range(4)),))
        assert switch(g, part, verify=True) == g

    def test_half_attachment_flips_to_complement(self):
        g = WeightedDigraph.from_edges(
            5,
            [(u, v, 1.0) for u, v in [(0, 1), (1, 0), (2, 3), (3, 2)]]
            + [(4, 0, 2.0), (4, 1, 2.0), (0, 4, 3.0), (1, 4, 3.0)],
        )
        part = SeidelPartition(cells=((0, 1, 2, 3),), d_cell=(4,))
        result = switch(g, part, verify=True)
        assert result.weight(4, 2) == 2.0 and result.weight(4, 3) == 2.0
        assert result.weight(4, 0) == 0.0 and result.weight(4, 1) == 0.0
        assert result.weight(2, 4) == 3.0 and result.weight(3, 4) == 3.0

    def test_symmetry_is_settled_at_birth(self, rng, symmetry_scans):
        # a symmetric input hands its symmetry to its switch, which is not
        # scanned; the switch of an asymmetric input is scanned once, at birth
        symmetric = 0
        for draw in range(200):
            g, part = random_seidel_instance(rng)
            if draw % 2:
                g = WeightedDigraph.from_adjacency(adjacency_matrix(g) + adjacency_matrix(g).T)
            symmetry_scans.clear()
            h = switch(g, part)
            b = adjacency_matrix(h)
            assert [id(a) for a in symmetry_scans] == ([] if g.is_symmetric() else [id(b)])
            assert h.is_symmetric() == bool((b == b.T).all()) == g.is_symmetric()
            symmetric += g.is_symmetric()
        assert 100 <= symmetric < 200

    def test_matches_conjugation(self, rng):
        for _ in range(60):
            g, part = random_seidel_instance(rng)
            u = switching_matrix(part, g.order)
            expected = u @ adjacency_matrix(g) @ u
            got = adjacency_matrix(switch(g, part))
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_cospectrality(self, rng):
        # symmetric instances meet the 1e-9 numeric comparison; asymmetric
        # ones are checked exactly via rational characteristic polynomials,
        # since general eigensolvers only reach ~1e-8 on defective matrices
        for _ in range(30):
            g, part = random_seidel_instance(rng)
            result = switch(g, part)
            a, b = adjacency_matrix(g), adjacency_matrix(result)
            if np.array_equal(a, a.T):
                assert cospectral(a, b, 1e-9)
            else:
                assert char_poly_exact(a) == char_poly_exact(b)

    def test_involution(self, rng):
        for _ in range(40):
            g, part = random_seidel_instance(rng)
            assert switch(switch(g, part), part) == g

    def test_loops_fixed(self, rng):
        for _ in range(20):
            g, part = random_seidel_instance(rng)
            result = switch(g, part)
            assert all(result.loop(v) == g.loop(v) for v in range(g.order))

    def test_invalid_input_rejected(self):
        g = WeightedDigraph.from_edges(4, [(3, 0, 1.0), (3, 1, 2.0)])
        part = SeidelPartition(cells=((0, 1, 2),), d_cell=(3,))
        with pytest.raises(BadAdjacencyCount):
            switch(g, part)

    def test_switched_weights_that_cancel_are_zero(self):
        # x0 = 2 mean(x), so w(3, 0) switches to zero; rounding may leave a
        # residue near 1e-16, which must not survive as an edge
        rng = np.random.default_rng(0)
        residues = []
        for _ in range(5000):
            x1, x2 = rng.integers(1, 101, 2) / 100
            w = switch(cycle_with_hub(2 * (x1 + x2), x1, x2), CYCLE_PART).weight(3, 0)
            if w != 0.0:
                residues.append(w)
        assert residues == []

    def test_the_snap_scales_with_the_weights(self):
        # hub weights near 1e6 leave residues near 1e-10: above EXACT_TOL, but
        # within EXACT_TOL (1 + max |w|), the scale the graph computed once
        rng = np.random.default_rng(0)
        for _ in range(500):
            x1, x2 = rng.uniform(0.01, 1, 2) * 1e6
            assert switch(cycle_with_hub(2 * (x1 + x2), x1, x2), CYCLE_PART).weight(3, 0) == 0.0

    def test_switch_can_leave_a_graph_that_does_not_switch_again(self):
        # hub 3 meets all three cell vertices; after the switch it meets two,
        # so the result is cospectral but no switching graph for the partition
        result = switch(cycle_with_hub(4.0, 1.0, 1.0), CYCLE_PART, verify=True)
        assert [result.weight(3, v) for v in range(3)] == [0.0, 3.0, 3.0]
        with pytest.raises(BadAdjacencyCount, match="hub 3 is adjacent to 2 vertices"):
            switch(result, CYCLE_PART)

    def test_verify_scales_with_the_weights(self):
        g, part = heavy_cycle_instance()
        assert switch(g, part, verify=True) == g

    def test_verify_runs_no_eigensolver(self, eigensolves):
        doc = load_fixture("fig3")
        switch(doc.graph(), doc.partition, verify=True)
        assert eigensolves == []

    def test_symmetric_input_switches_to_a_symmetric_result(self):
        # one-decimal cross weights round, and (i, j) and (j, i) must round alike
        rng = np.random.default_rng(1)
        asymmetric = 0
        for _ in range(2000):
            result = adjacency_matrix(
                switch(mirrored_cross_block_instance(rng), MIRRORED_PART, verify=True))
            asymmetric += not np.array_equal(result, result.T)
        assert asymmetric == 0

    def test_verify_rejects_a_wrong_conjugation(self, monkeypatch):
        conjugated = switching._conjugated

        def corrupted(*args):
            out = conjugated(*args)
            out[0, 1] += 1.0
            return out

        monkeypatch.setattr(switching, "_conjugated", corrupted)
        g = complete_graph(4)
        with pytest.raises(VerificationFailed, match="U M U"):
            switch(g, SeidelPartition(cells=(tuple(range(4)),)), verify=True)

    def test_verify_names_the_worst_entry(self, monkeypatch):
        # the location is in graph vertex order, not partition order
        conjugated = switching._conjugated

        def corrupted(*args):
            out = conjugated(*args)
            out[0, 1] += 0.5
            out[3, 2] += 1.0
            return out

        monkeypatch.setattr(switching, "_conjugated", corrupted)
        part = SeidelPartition(cells=((2, 3), (0, 1)))
        with pytest.raises(VerificationFailed, match=r"by 1\.000e\+00 at \(3, 2\)$"):
            switch(complete_graph(4), part, verify=True)

    def test_cross_blocks_need_no_constant_row_sums(self, rng):
        # the general cross-block formula conjugates any block exactly
        for _ in range(20):
            edges = {(u, u + 1 - 2 * (u % 2)): 1.0 for u in range(6)}
            for u in range(2):
                for v in range(2, 6):
                    w = float(rng.integers(-3, 4))
                    if w:
                        edges[(u, v)] = w
            g = WeightedDigraph(6, edges)
            part = SeidelPartition(cells=((0, 1), (2, 3, 4, 5)))
            u = switching_matrix(part, 6)
            a = adjacency_matrix(g)
            result = adjacency_matrix(switch(g, part, verify=True))
            assert np.max(np.abs(result - u @ a @ u)) < 1e-12
            assert char_poly_exact(a) == char_poly_exact(result)


class TestPartitionVertices:
    @pytest.mark.parametrize("cells, d", [(((0, True),), ()), (((0, 1),), (2.0,)),
                                          (((0, 1.5),), ()), (((0, np.True_),), ()),
                                          (((0, "1"),), ())])
    def test_only_integers(self, cells, d):
        with pytest.raises(InvalidPartition, match="is not an integer"):
            SeidelPartition(cells, d)

    @pytest.mark.parametrize("cells, d", [(((0, 1),), (3,)), (((0, 1),), (-1,)),
                                          (((0, 1),), (2**70,)), (((0, 1),), ()),
                                          (((0, 1),), (2, 3))])
    def test_a_switch_needs_a_cover(self, cells, d):
        # a vertex outside 0..2, one missing, one too many or one beyond any
        # machine integer: the same error, before any check
        g = WeightedDigraph.from_adjacency(np.ones((3, 3)))
        for f in (validate_seidel, switch, validate_starlike):
            with pytest.raises(InvalidPartition, match=r"^partition does not cover vertices 0\.\.2"):
                f(g, SeidelPartition(cells, d))

    @pytest.mark.parametrize("cells, d", [((3,), ()), (((0, 1),), 2), (None, ())])
    def test_parts_are_sequences(self, cells, d):
        with pytest.raises(InvalidPartition, match="^cells and D must be sequences of vertices$"):
            SeidelPartition(cells, d)

    @pytest.mark.parametrize("order", [3.0, True, "3"])
    def test_an_order_is_an_integer(self, order):
        part = SeidelPartition(((0, 1),), (2,))
        with pytest.raises(InvalidPartition, match=f"^order must be an integer, got {order!r}$"):
            switching_matrix(part, order)

    def test_numpy_integers(self):
        assert np.array_equal(switching_matrix(SeidelPartition(((0, 1),)), np.int64(2)), PAULI_X)
        part = SeidelPartition(((np.int64(1), np.int32(0)),), (np.intp(2),))
        assert part == SeidelPartition(((0, 1),), (2,))
        assert hash(part) == hash(SeidelPartition(((0, 1),), (2,)))

    @pytest.mark.parametrize("cells, d, named", [
        (((0, 0),), (1,), r"part \(0, 0\) repeats a vertex"),
        (((0, 1), (2, 3, 2)), (), r"part \(2, 2, 3\) repeats a vertex"),
        (((0, 1),), (2, 2), r"part \(2, 2\) repeats a vertex"),
        # the overlaps of distinct parts keep their messages
        (((0, 1), (1, 2)), (), r"cell \(1, 2\) overlaps another part"),
        (((0, 1),), (1, 2), r"hub set D overlaps a cell"),
        # and so does a cell too small to switch
        (((0,),), (1,), r"cell \(0,\) has fewer than 2 vertices"),
    ])
    def test_no_part_repeats_a_vertex(self, cells, d, named):
        # a repeated vertex passed the set-based cover check: numpy then
        # raised on reshape or take, switching_matrix was not unitary and
        # block_seidel had one row too many
        with pytest.raises(InvalidPartition, match=f"^{named}$"):
            SeidelPartition(cells, d)


@pytest.fixture
def layout_builds(monkeypatch):
    """How many `switching._Layout`s were built during the test."""
    built = {"layout": 0}
    init = switching._Layout.__init__

    def counted_init(self, *args):
        built["layout"] += 1
        init(self, *args)

    monkeypatch.setattr(switching._Layout, "__init__", counted_init)
    return built


class TestLayoutOnce:
    """A partition builds its layout once and keeps it."""

    def test_one_switch(self, layout_builds):
        doc = load_fixture("fig2")
        switch(doc.graph(), doc.partition, verify=True)
        assert layout_builds == {"layout": 1}

    def test_one_lq_switch_that_checks(self, layout_builds):
        doc = load_fixture("fig4_left")
        lq_switch(doc.graph(), doc.partition, SpectralKind.LAPLACIAN)
        assert layout_builds == {"layout": 1}

    def test_validate_starlike_then_lq_switch(self, layout_builds):
        doc = load_fixture("fig4_left")
        g, part = doc.graph(), doc.partition
        profiles = validate_starlike(g, part)
        for kind in SpectralKind:
            lq_switch(g, part, kind)
        lq_switch(WeightedDigraph.from_adjacency(adjacency_matrix(g)), part,
                  SpectralKind.LAPLACIAN, force=True)
        assert layout_builds == {"layout": 1}
        assert g._facts["starlike", part] == tuple(profiles)  # the profiles, nothing else

    def test_the_kept_layout_is_linear_in_the_order(self):
        g = WeightedDigraph.from_adjacency(np.zeros((40, 40)))
        part = SeidelPartition((tuple(range(30)),), tuple(range(30, 40)))
        switch(g, part)
        kept = [np.size(x) for v in vars(part._layout).values()
                for x in (v if isinstance(v, tuple) else (v,))]
        assert max(kept) <= g.order + 1  # no index per diagonal-block entry
