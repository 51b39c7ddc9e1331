"""Graph model, derived matrices, spectra and isomorphism search."""

import copy
import os
import pickle
import re
import threading
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import char_poly_exact, fresh, random_seidel_instance, random_starlike_instance

import seidelkit
from seidelkit import (
    SeidelPartition,
    SpectralKind,
    WeightedDigraph,
    adjacency_matrix,
    brute_force_isomorphic,
    cospectral,
    degree_matrix,
    density_from_graph,
    laplacian,
    load_fixture,
    lq_switch,
    seidel_matrix,
    signless_laplacian,
    spectral_gap,
    spectral_matrix,
    spectrum,
    switch,
    switching_matrix,
    validate_starlike,
    von_neumann_entropy,
)
from seidelkit import graph
from seidelkit.errors import (
    AsymmetricWeights,
    InvalidGraph,
    NotSquare,
    NotSymmetric,
    OrderMismatch,
    TooLarge,
)

K2 = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
P3 = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])
STREAM_DRAWS = 2000  # random switching graphs drawn for the cospectrality streams
PERTURBED_DRAWS = 40  # fewer: exact characteristic polynomials are slow


class TestConstruction:
    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(2, {(0, 1): 0.0})

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(2, {(0, 2): 1.0})

    def test_nonpositive_loop_rejected(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(2, {(0, 0): -1.0})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(InvalidGraph):
            WeightedDigraph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)])

    @pytest.mark.parametrize("table, shape", [
        ([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)], r"\(6, 2\)"),
        ([(0, 1, 1.0, 5.0), (1, 0, 1.0, 5.0)], r"\(2, 4\)"),
        ([0, 1, 1.0], r"\(3,\)"),
        (np.zeros((0, 2)), r"\(0, 2\)"),
    ])
    def test_edges_must_be_triples(self, table, shape):
        # pairs were once read as triples, two rows at a time
        with pytest.raises(InvalidGraph, match=f"shape {shape}$"):
            WeightedDigraph.from_edges(3, table)

    @pytest.mark.parametrize("row, named", [
        (("a", 1, 1.0), r"\('a', 1, 1\.0\)"),
        ((0, 1, [1]), r"\(0, 1, \[1\]\)"),  # numpy's ValueError from np.shape leaked
        ((0, 1, object()), r"\(0, 1, <object object at 0x[0-9a-f]+>\)"),  # and its TypeError
    ])
    def test_an_edge_that_is_not_numbers_is_named(self, row, named):
        with pytest.raises(InvalidGraph, match=f"triples of numbers, got {named}$"):
            WeightedDigraph.from_edges(2, [(0, 1, 1.0), row])

    @pytest.mark.parametrize("u", [float("inf"), -float("inf"), float("nan")])
    def test_a_non_finite_endpoint_is_outside_the_range(self, u):
        # the integer check must not warn on a value that is no number
        with pytest.raises(InvalidGraph, match="outside vertex range"):
            WeightedDigraph.from_edges(2, [(u, 0, 1.0)])

    def test_a_ragged_edge_list_names_its_shapes(self):
        with pytest.raises(InvalidGraph, match=r"rows of shapes \[\(2,\), \(3,\)\]$"):
            WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 0)])

    @pytest.mark.parametrize("order", [10**30, 2**30])
    def test_an_order_numpy_cannot_hold_is_named(self, order):
        # numpy raised its own ValueError, or OverflowError for longer orders
        with pytest.raises(InvalidGraph, match=f"^order {order} is too large"):
            WeightedDigraph.from_edges(order, [])

    @pytest.mark.parametrize("table", [[], (), np.zeros((0, 3))])
    def test_no_edges(self, table):
        assert WeightedDigraph.from_edges(3, table) == WeightedDigraph(3)

    def test_weight_lookup_defaults_to_zero(self):
        assert K2.weight(0, 1) == 1.0
        assert K2.weight(1, 1) == 0.0

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(InvalidGraph):
            WeightedDigraph(2, {(0, 1): w})
        with pytest.raises(InvalidGraph):
            WeightedDigraph.from_edges(2, [(0, 1, w)])
        with pytest.raises(InvalidGraph):
            WeightedDigraph.from_adjacency(np.array([[0.0, w], [0.0, 0.0]]))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            K2.order = 3
        with pytest.raises(ValueError):
            adjacency_matrix(K2)[0, 1] = 2.0
        with pytest.raises(TypeError):
            K2.edges[(0, 1)] = 2.0

    @pytest.mark.parametrize("matrix", [
        lambda g: adjacency_matrix(g),
        lambda g: spectral_matrix(g, SpectralKind.SIGNLESS),
        lambda g: density_from_graph(g, SpectralKind.LAPLACIAN).matrix,
    ], ids=["adjacency", "spectral", "density"])
    def test_read_only_arrays_cannot_be_made_writable(self, matrix):
        # a write would leave the graph's recorded symmetry, starlike checks
        # and spectra stale
        for g in (K2, pickle.loads(pickle.dumps(K2)), copy.copy(K2), copy.deepcopy(K2)):
            m = matrix(g)
            with pytest.raises(ValueError):
                m.flags.writeable = True
            with pytest.raises(ValueError):
                m[0, 0] = 2.0
            assert g == K2

    def test_copies_remember_no_check(self, seidel_checks):
        doc = load_fixture("fig4_left")
        g, part = doc.graph(), doc.partition
        validate_starlike(g, part)
        copies = (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g))
        for h in copies:
            assert h == g
            lq_switch(h, part, SpectralKind.LAPLACIAN)
        assert len(seidel_checks) == 1 + len(copies)

    def test_symmetry_is_the_exact_comparison(self, rng):
        # decided at birth, by a scan or handed over by a switch
        graphs = [K2, WeightedDigraph(2, {(0, 1): 1.0}),
                  WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0 + 2**-52)])]
        for draw in range(40):
            g, part = (random_starlike_instance if draw % 2 else random_seidel_instance)(rng)
            a = adjacency_matrix(g)
            graphs += [g, WeightedDigraph.from_adjacency(a / 3), switch(g, part)]
            if draw % 2:
                graphs.append(lq_switch(g, part, SpectralKind.SIGNLESS))
        for g in graphs:
            for h in (g, pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
                a = adjacency_matrix(h)
                assert h.is_symmetric() == bool(np.array_equal(a, a.T))
        assert 0 < sum(g.is_symmetric() for g in graphs) < len(graphs)

    def test_edge_view_matches_adjacency(self, rng):
        for _ in range(10):
            g, _ = random_seidel_instance(rng)
            rebuilt = WeightedDigraph(g.order, dict(g.edges))
            assert rebuilt == g
            assert WeightedDigraph.from_adjacency(adjacency_matrix(g)) == g
            assert all(g.weight(u, v) == w for (u, v), w in g.edges.items())


class TestAdjacency:
    def test_k2(self):
        assert np.array_equal(adjacency_matrix(K2), [[0, 1], [1, 0]])

    def test_empty_graph(self):
        g = WeightedDigraph(3)
        assert np.array_equal(adjacency_matrix(g), np.zeros((3, 3)))

    def test_single_loop(self):
        g = WeightedDigraph.from_edges(1, [(0, 0, 2.0)])
        assert np.array_equal(adjacency_matrix(g), [[2.0]])


class TestDegree:
    def test_k2(self):
        assert np.array_equal(degree_matrix(K2), np.diag([1.0, 1.0]))

    def test_absolute_values(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, -2.0), (1, 0, -2.0)])
        assert np.array_equal(degree_matrix(g), np.diag([2.0, 2.0]))

    def test_loop_counts_once(self):
        g = WeightedDigraph.from_edges(1, [(0, 0, 2.0)])
        assert np.array_equal(degree_matrix(g), [[2.0]])


class TestLaplacians:
    def test_k2(self):
        assert np.array_equal(laplacian(K2), [[1, -1], [-1, 1]])
        assert np.array_equal(signless_laplacian(K2), [[1, 1], [1, 1]])

    def test_path(self):
        assert np.array_equal(
            laplacian(P3), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_asymmetric_rejected(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(AsymmetricWeights):
            laplacian(g)
        with pytest.raises(AsymmetricWeights):
            signless_laplacian(g)

    def test_an_lq_op_scans_each_graph_once(self, monkeypatch):
        # validate_starlike, lq_switch, both spectral matrices and both
        # densities need symmetric weights; g is scanned once, at birth, and
        # its switch is born with its symmetry handed over
        scanned = []
        monkeypatch.setattr(np, "array_equal",
                            lambda a, b, f=np.array_equal: scanned.append(a) or f(a, b))
        doc = load_fixture("fig4_left")
        for kind in SpectralKind:
            scanned.clear()
            g, part = fresh(doc.graph()), doc.partition
            validate_starlike(g, part)
            g2 = lq_switch(g, part, kind)
            cospectral(spectral_matrix(g, kind), spectral_matrix(g2, kind))
            for h in (g, g2):
                von_neumann_entropy(density_from_graph(h, kind))
            assert [id(a) for a in scanned] == [id(adjacency_matrix(g))]

    def test_laplacians_are_degrees_minus_and_plus_adjacency(self, rng):
        # one n x n array, against the dense formula
        for draw in range(40):
            g, _ = random_starlike_instance(rng) if draw % 2 else random_seidel_instance(rng)
            g = WeightedDigraph.from_adjacency(adjacency_matrix(g) + adjacency_matrix(g).T)
            for _ in range(2):  # a second call gives the same matrix
                assert np.array_equal(laplacian(g), degree_matrix(g) - adjacency_matrix(g))
                assert np.array_equal(signless_laplacian(g), degree_matrix(g) + adjacency_matrix(g))

    def test_degrees_past_the_float_range_are_an_invalid_graph(self):
        # finite weights whose degree sum, or degree plus loop, overflows name
        # the vertex instead of warning
        path = WeightedDigraph.from_edges(3, [(0, 1, 1e308), (1, 0, 1e308),
                                              (1, 2, 1e308), (2, 1, 1e308)])
        loop = WeightedDigraph.from_edges(2, [(1, 1, 1e308)])  # Q(1, 1) = 2e308
        calls = [(laplacian, path, 1), (signless_laplacian, path, 1),
                 (signless_laplacian, loop, 1)]
        calls += [(lambda g, k=kind: density_from_graph(g, k), path, 1) for kind in SpectralKind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, g, v in calls:
                with pytest.raises(InvalidGraph, match=f"^the weights at vertex {v} sum past"):
                    f(g)
            assert laplacian(loop)[1, 1] == 0.0

    def test_asymmetry_is_reported_every_time(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        assert not g.is_symmetric() and not g.is_symmetric()
        for _ in range(2):
            with pytest.raises(AsymmetricWeights, match=r"^w\(0, 1\) = 1\.0 but w\(1, 0\) = 0\.0$"):
                laplacian(g)

    def test_one_way_edge_rejected(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        with pytest.raises(AsymmetricWeights):
            laplacian(g)


class TestSpectrum:
    def test_pauli_x(self):
        assert np.allclose(spectrum(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])

    def test_laplacian_of_k2(self):
        assert np.allclose(spectrum(laplacian(K2)), [0, 2])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_switching_operator_spectrum(self, n):
        # unitary symmetric involution fixing the all-ones vector: the
        # spectrum must be -1 with multiplicity n-1 plus a single +1
        expected = np.array([-1.0] * (n - 1) + [1.0])
        assert np.allclose(spectrum(seidel_matrix(n)), expected, atol=1e-12)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            spectrum(np.ones((2, 3)))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            spectrum(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("i, j, delta, accepted", [
        (0, 3, 1e-14, True), (0, 3, 1.0, False),  # row 0 differs from column 0
        (2, 3, 1e-14, True), (2, 3, 1.0, False),  # row 0 matches column 0
    ])
    def test_symmetry_follows_the_tolerance_rule(self, rng, i, j, delta, accepted):
        # whichever comparison turns an inexact matrix away, the rule decides
        m = rng.normal(size=(5, 5))
        m = m + m.T
        m[i, j] += delta
        if accepted:
            assert len(spectrum(m)) == 5
        else:
            with pytest.raises(NotSymmetric):
                spectrum(m)

    @pytest.mark.parametrize("i, j", [(2, 3), (0, 0)])
    def test_a_nan_entry_is_not_symmetric(self, i, j):
        # placed symmetrically; NaN != NaN, so no comparison accepts it
        m = np.eye(4)
        m[i, j] = m[j, i] = np.nan
        with pytest.raises(NotSymmetric):
            spectrum(m)

    def test_finite_entries_that_sum_past_the_float_range(self):
        # finiteness is read entry by entry; a sum of the entries overflowed
        m = np.diag([1.5e308, 1.5e308])
        assert np.array_equal(spectrum(m), [1.5e308, 1.5e308])
        assert cospectral(m, m)

    def test_sum_matches_trace(self, rng):
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            m = m + m.T
            tr = float(np.trace(m))
            assert abs(spectrum(m).sum() - tr) <= 1e-9 * (1 + abs(tr))

    def test_ascending(self, rng):
        m = rng.normal(size=(8, 8))
        ev = spectrum(m + m.T)
        assert np.all(np.diff(ev) >= 0)


class TestCospectral:
    def test_reflexive(self, rng):
        m = rng.normal(size=(5, 5))
        m = m + m.T
        assert cospectral(m, m, 1e-9)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            cospectral(np.eye(2), np.eye(3), 1e-9)

    def test_permutation_invariance(self, rng):
        for _ in range(10):
            m = rng.normal(size=(7, 7))
            m = m + m.T
            p = np.eye(7)[rng.permutation(7)]
            assert cospectral(m, p.T @ m @ p, 1e-9)

    def test_detects_difference(self):
        assert not cospectral(np.eye(3), 2 * np.eye(3), 1e-9)

    def test_asymmetric_inputs_use_general_spectra(self):
        a = np.array([[0.0, 2.0], [3.0, 0.0]])
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert cospectral(a, p @ a @ p, 1e-9)

    def test_defective_spectra_match(self):
        # a 3 x 3 Jordan block and its orthogonal conjugate: the triple
        # eigenvalue 1 comes out of the general eigensolver spread by ~5e-6
        a = np.eye(3) + np.diag(np.ones(2), 1)
        q = seidel_matrix(3)
        assert cospectral(a, q @ a @ q, 1e-9)
        assert not cospectral(a, q @ a @ q + 1e-6 * np.eye(3), 1e-9)

    def test_no_false_negatives_on_switched_pairs(self):
        # asymmetric switched pairs often have repeated or defective
        # eigenvalues; every pair of this stream is exactly cospectral
        stream = np.random.default_rng(7)
        asymmetric = 0
        for _ in range(STREAM_DRAWS):
            g, part = random_seidel_instance(stream)
            a, b = adjacency_matrix(g), adjacency_matrix(switch(g, part))
            asymmetric += not np.array_equal(a, a.T)
            assert cospectral(a, b, 1e-9)
        assert asymmetric > STREAM_DRAWS // 2

    def test_rejects_perturbed_switched_pairs(self):
        # one weight of the switched graph moves by 2^-20; pairs whose exact
        # characteristic polynomials still agree are truly cospectral (the
        # edge lies on no directed cycle) and are not counted
        stream = np.random.default_rng(7)
        pick = np.random.default_rng(8)
        differ = 0
        for _ in range(PERTURBED_DRAWS):
            g, part = random_seidel_instance(stream)
            a = adjacency_matrix(g)
            b = np.array(adjacency_matrix(switch(g, part)))
            if np.array_equal(a, a.T):
                continue
            rows, cols = np.nonzero(b)
            k = pick.integers(len(rows))
            b[rows[k], cols[k]] += 2.0**-20
            if char_poly_exact(a) != char_poly_exact(b):
                differ += 1
                assert not cospectral(a, b, 1e-9)
        assert differ > PERTURBED_DRAWS // 2

    def test_tolerance_scales_with_weights(self, rng):
        # symmetric conjugates with weights 1e7..3e8 are exactly cospectral,
        # but the eigensolver leaves gaps near 1e-7, far above an absolute 1e-9
        u = seidel_matrix(8)
        for _ in range(50):
            a = np.triu(rng.uniform(1e7, 3e8, size=(8, 8)), 1)
            a = a + a.T
            assert spectral_gap(a, u @ a @ u) > 1e-9
            assert cospectral(a, u @ a @ u)

    def test_spectral_gap(self):
        a = np.array([[0.0, 2.0], [3.0, 0.0]])
        assert spectral_gap(a, a.T) <= 1e-12
        assert spectral_gap(a, np.zeros((2, 2))) == float("inf")
        assert spectral_gap(np.eye(2), 2 * np.eye(2)) == 1.0

    @pytest.mark.xfail(strict=True, reason="known false negative: the eigensolver spreads a "
                       "4x4 Jordan block beyond the cluster radius; the exact fallback for "
                       "cospectral of ROADMAP item 2 (characteristic polynomials over GF(p)) "
                       "would accept it")
    def test_jordan_block_and_its_conjugate(self):
        a = np.eye(4) + np.eye(4, k=1)
        u = seidel_matrix(4)
        assert cospectral(a, u @ a @ u)


_PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _host(monkeypatch, cpus=2, blas=_PINNED):
    """Let the process see `cpus` CPUs and exactly the BLAS thread variables
    `blas`, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in blas.items():
        monkeypatch.setenv(name, value)


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started during the test."""
    starts = []

    class Counted(threading.Thread):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return starts


def _symmetric_pair(n, seed):
    m = np.random.default_rng(seed).integers(-3, 4, size=(n, n)).astype(float)
    m = m + m.T
    return m, m[::-1, ::-1]  # relabelled by the reversal permutation


class TestConcurrentSpectra:
    # above order 500, with BLAS pinned to t threads and 2t CPUs, the two
    # spectra of a pair are solved on two threads; every result must equal
    # the serial one exactly

    def test_switched_pairs_match_a_serial_reference(self, monkeypatch, thread_starts):
        _host(monkeypatch)
        n = 520
        a = np.random.default_rng(11).integers(-3, 4, size=(n, n)).astype(float)
        part = SeidelPartition(tuple(tuple(range(16 * i, 16 * i + 16)) for i in range(32)),
                               tuple(range(512, n)))
        u = switching_matrix(part, n)
        for x, y, solve in ((a, u @ a @ u, lambda m: np.sort_complex(np.linalg.eigvals(m))),
                            (a + a.T, u @ (a + a.T) @ u, np.linalg.eigvalsh)):
            sx, sy = graph._spectra(x, y)
            rx, ry = solve(x), solve(y)
            assert np.array_equal(sx, rx) and np.array_equal(sy, ry)
            assert spectral_gap(x, y) == graph._gap(rx, ry, 1e-9)
        assert len(thread_starts) == 4

    @pytest.mark.parametrize("n, cpus, threads", [(501, 2, 1), (500, 2, 0), (600, 1, 0)])
    def test_one_thread_above_order_500_with_two_cpus(self, monkeypatch, thread_starts,
                                                      n, cpus, threads):
        _host(monkeypatch, cpus)
        assert cospectral(*_symmetric_pair(n, 12))
        assert len(thread_starts) == threads

    @pytest.mark.parametrize("blas, cpus, threads", [
        ({}, 2, 0),  # BLAS threads unknown: solved serially
        ({}, 64, 0),
        ({"OMP_NUM_THREADS": "1"}, 2, 1),  # read by OpenBLAS and MKL
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 0),  # MKL unpinned
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 0),  # OpenBLAS runs 2
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 3, 0),
        ({"OMP_NUM_THREADS": "0"}, 2, 0),  # not a count
    ])
    def test_threads_only_when_blas_is_pinned_to_half_the_cpus(self, monkeypatch, thread_starts,
                                                              blas, cpus, threads):
        _host(monkeypatch, cpus, blas)
        assert cospectral(*_symmetric_pair(501, 15))
        assert len(thread_starts) == threads

    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_failed_solve_raises_in_the_caller_after_the_join(self, monkeypatch, bad):
        _host(monkeypatch)
        m = np.random.default_rng(13).normal(size=(600, 600))
        pair = [m, m.T.copy()]
        pair[bad][5, 7] = np.nan
        running = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError):
            cospectral(*pair)
        assert threading.active_count() == running

    def test_two_solves_per_pair(self, monkeypatch, eigensolves):
        _host(monkeypatch)
        assert cospectral(*_symmetric_pair(600, 14))
        assert len(eigensolves) == 2


class TestLaplacianPSD:
    def test_nonnegative_weight_graphs(self, rng):
        for _ in range(15):
            g, _ = random_starlike_instance(rng)
            assert spectrum(laplacian(g))[0] >= -1e-9
            assert spectrum(signless_laplacian(g))[0] >= -1e-9

    def test_trace_identity(self, rng):
        for _ in range(10):
            g, _ = random_starlike_instance(rng)
            a = adjacency_matrix(g)
            lap = laplacian(g)
            assert np.isclose(np.trace(lap), np.abs(a).sum() - np.trace(a))


class TestIsomorphism:
    def test_relabeled_complete_graph(self):
        k4 = WeightedDigraph.from_edges(
            4, [(u, v, 1.0) for u in range(4) for v in range(4) if u != v]
        )
        assert brute_force_isomorphic(k4, k4)

    def test_relabeling_detected(self, rng):
        g, _ = random_seidel_instance(rng)
        if g.order > 12:
            pytest.skip("instance too large for the search")
        perm = rng.permutation(g.order).tolist()
        h = WeightedDigraph(
            g.order, {(perm[u], perm[v]): w for (u, v), w in g.edges.items()}
        )
        assert brute_force_isomorphic(g, h)

    def test_weight_mismatch(self):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
        h = WeightedDigraph.from_edges(2, [(0, 1, 2.0), (1, 0, 2.0)])
        assert not brute_force_isomorphic(g, h)

    def test_direction_sensitive(self):
        g = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
        h = WeightedDigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert not brute_force_isomorphic(g, h)

    def test_too_large(self):
        g = WeightedDigraph(13)
        with pytest.raises(TooLarge):
            brute_force_isomorphic(g, g)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            brute_force_isomorphic(WeightedDigraph(2), WeightedDigraph(3))


class TestTolerancePolicy:
    def test_only_the_two_tolerances_are_literals(self):
        # every tolerance is EXACT_TOL or NUMERIC_TOL, defined once in graph.py
        found = []
        for path in sorted(Path(seidelkit.__file__).parent.glob("*.py")):
            with path.open() as f:
                for tok in tokenize.generate_tokens(f.readline):
                    if tok.type == tokenize.NUMBER and re.search(r"\de-\d", tok.string, re.I):
                        found.append(f"{path.name}: {tok.line.strip()}")
        assert found == ["graph.py: EXACT_TOL = 1e-12", "graph.py: NUMERIC_TOL = 1e-9"]
