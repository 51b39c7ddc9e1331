"""Graph density matrices, entropy and purity."""

import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from conftest import fresh, random_seidel_instance, random_starlike_instance

from seidelkit import (
    DensityMatrix,
    SeidelPartition,
    SpectralKind,
    WeightedDigraph,
    adjacency_matrix,
    cospectral,
    density_from_graph,
    is_pure,
    load_fixture,
    lq_switch,
    spectral_gap,
    spectral_matrix,
    switching_matrix,
    validate_starlike,
    von_neumann_entropy,
)
from seidelkit import graph
from seidelkit.errors import NotPSD, NotSymmetric, ZeroTrace

K2 = WeightedDigraph.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
P3 = WeightedDigraph.from_edges(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)])
KINDS = (SpectralKind.LAPLACIAN, SpectralKind.SIGNLESS)


def k2_with_isolated(extra):
    return WeightedDigraph.from_edges(2 + extra, [(0, 1, 1.0), (1, 0, 1.0)])


class TestDensityFromGraph:
    def test_k2_laplacian(self):
        rho = density_from_graph(K2, SpectralKind.LAPLACIAN)
        assert np.allclose(rho.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=0)

    def test_k2_signless(self):
        rho = density_from_graph(K2, SpectralKind.SIGNLESS)
        assert np.allclose(rho.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=0)

    def test_empty_graph_zero_trace(self):
        with pytest.raises(ZeroTrace):
            density_from_graph(WeightedDigraph(3), SpectralKind.LAPLACIAN)

    def test_equals_the_validated_state(self, rng):
        # density_from_graph skips the copy and the symmetry check; the state
        # is the one DensityMatrix builds from the normalized Laplacian, and
        # its spectrum is the Laplacian's, normalized
        for draw in range(40):
            g = (random_starlike_instance if draw % 2 else random_seidel_instance)(rng)[0]
            g = WeightedDigraph.from_adjacency(adjacency_matrix(g) + adjacency_matrix(g).T)
            for kind in KINDS:
                m = spectral_matrix(g, kind)
                if np.trace(m) <= 0.0:  # loops only: L has trace 0
                    with pytest.raises(ZeroTrace):
                        density_from_graph(g, kind)
                    continue
                expected = DensityMatrix(m / np.trace(m))
                rho = density_from_graph(g, kind)
                assert rho.matrix.tobytes() == expected.matrix.tobytes()
                normalized = np.maximum(np.linalg.eigvalsh(m) / np.trace(m), 0.0)
                assert rho.eigenvalues().tobytes() == normalized.tobytes()
                assert np.abs(rho.eigenvalues() - expected.eigenvalues()).max() <= 1e-14
                assert not rho.matrix.flags.writeable

    def test_invariants_on_random_graphs(self, rng):
        for _ in range(20):
            g, _ = random_starlike_instance(rng)
            for kind in KINDS:
                rho = density_from_graph(g, kind)
                assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
                assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-9
                assert np.max(np.abs(rho.matrix - rho.matrix.T)) <= 1e-12


class TestDensityMatrixValidation:
    def test_spectrum_solved_once(self, monkeypatch):
        rho = DensityMatrix(np.diag([0.75, 0.25]))

        def unexpected(m):
            raise AssertionError("the spectrum was solved again")

        monkeypatch.setattr(np.linalg, "eigvalsh", unexpected)
        assert np.array_equal(rho.eigenvalues(), [0.25, 0.75])
        assert von_neumann_entropy(rho) > 0.0

    def test_matrix_is_a_read_only_copy(self):
        m = np.diag([0.5, 0.5])
        rho = DensityMatrix(m)
        m[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.5
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("copied", [lambda rho: pickle.loads(pickle.dumps(rho)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_a_copy_is_frozen_and_checked_again(self, copied, eigensolves):
        # numpy copies an array as a writable one; the state rebuilds through
        # DensityMatrix, so the copy's matrix is frozen and its spectrum solved
        for rho in (DensityMatrix(np.diag([0.75, 0.25])),
                    density_from_graph(P3, SpectralKind.LAPLACIAN)):  # trace 4: exact
            eigensolves.clear()
            twin = copied(rho)
            assert len(eigensolves) == 1 and not twin.matrix.flags.writeable
            with pytest.raises(ValueError):
                twin.matrix.flags.writeable = True
            assert np.array_equal(twin.matrix, rho.matrix)
            assert np.array_equal(twin.eigenvalues(), rho.eigenvalues())

    def test_indefinite_rejected(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(NotPSD):
            DensityMatrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ZeroTrace):
            DensityMatrix(np.eye(2))

    def test_empty_matrix_has_zero_trace(self):
        with pytest.raises(ZeroTrace):
            DensityMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("where", ["off-diagonal", "diagonal", "everywhere"])
    def test_nan_rejected_before_any_solve(self, where, eigensolves):
        m = np.full((2, 2), 0.5) if where != "everywhere" else np.full((2, 2), np.nan)
        if where == "off-diagonal":
            m[0, 1] = m[1, 0] = np.nan
        elif where == "diagonal":
            m[0, 1] = m[1, 0] = 0.0
            m[1, 1] = np.nan
        with pytest.raises(NotSymmetric):
            DensityMatrix(m)
        assert eigensolves == []

    def test_asymmetric_rejected(self):
        m = np.array([[0.5, 0.2], [0.0, 0.5]])
        with pytest.raises(NotSymmetric):
            DensityMatrix(m)


class TestEntropy:
    def test_k2_is_pure_with_zero_entropy(self):
        rho = density_from_graph(K2, SpectralKind.LAPLACIAN)
        assert von_neumann_entropy(rho) == 0.0
        assert is_pure(rho)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4.0)
        assert abs(von_neumann_entropy(rho) - 2.0) < 1e-12
        assert not is_pure(rho)

    def test_entropy_range(self, rng):
        for _ in range(20):
            g, _ = random_starlike_instance(rng)
            rho = density_from_graph(g, SpectralKind.LAPLACIAN)
            assert 0.0 <= von_neumann_entropy(rho) <= np.log2(rho.order) + 1e-12

    def test_switched_pair_entropies_match(self):
        left = load_fixture("fig4_left").graph()
        right = load_fixture("fig4_right").graph()
        for kind in KINDS:
            s1 = von_neumann_entropy(density_from_graph(left, kind))
            s2 = von_neumann_entropy(density_from_graph(right, kind))
            assert abs(s1 - s2) < 1e-9

    def test_random_switched_pairs_coentropic(self, rng):
        for _ in range(15):
            g, part = random_starlike_instance(rng)
            for kind in KINDS:
                other = lq_switch(g, part, kind)
                s1 = von_neumann_entropy(density_from_graph(g, kind))
                s2 = von_neumann_entropy(density_from_graph(other, kind))
                assert abs(s1 - s2) < 1e-9

    def test_unitary_invariance_under_switching_operators(self, rng):
        for _ in range(10):
            g, part = random_starlike_instance(rng)
            u = switching_matrix(part, g.order)
            rho = density_from_graph(g, SpectralKind.LAPLACIAN)
            rotated = DensityMatrix(u @ rho.matrix @ u.T)
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) < 1e-9


class TestPurity:
    def test_k2_with_isolated_vertices_is_pure(self):
        rho = density_from_graph(k2_with_isolated(2), SpectralKind.LAPLACIAN)
        assert is_pure(rho)
        assert von_neumann_entropy(rho) == 0.0

    def test_path_is_mixed(self):
        # eigenvalues of L(P3)/4 are {0, 1/4, 3/4}: rank two
        rho = density_from_graph(P3, SpectralKind.LAPLACIAN)
        assert np.allclose(rho.eigenvalues(), [0.0, 0.25, 0.75], atol=1e-12)
        assert not is_pure(rho)

    def test_purity_matches_squared_trace(self, rng):
        for _ in range(20):
            g, _ = random_starlike_instance(rng)
            rho = density_from_graph(g, SpectralKind.LAPLACIAN)
            tr_sq = float(np.trace(rho.matrix @ rho.matrix))
            assert is_pure(rho) == (tr_sq >= 1.0 - 1e-9)

    def test_zero_entropy_iff_pure(self, rng):
        for _ in range(20):
            g, _ = random_starlike_instance(rng)
            rho = density_from_graph(g, SpectralKind.SIGNLESS)
            assert (von_neumann_entropy(rho) < 1e-9) == is_pure(rho)


def lq_op(g, part, kind, states_first=False):
    """The steps of an lq-states benchmark op: check, switch, compare the two
    spectral matrices and take the entropy of both states, the states
    first or last; returns g', the verdict and the two entropies."""
    validate_starlike(g, part)
    g2 = lq_switch(g, part, kind)

    def entropies():
        return [von_neumann_entropy(density_from_graph(h, kind)) for h in (g, g2)]

    if states_first:
        s = entropies()
    verdict = cospectral(spectral_matrix(g, kind), spectral_matrix(g2, kind))
    return g2, verdict, s if states_first else entropies()


class TestSpectrumRecord:
    @pytest.mark.parametrize("concurrent", [False, True])
    @pytest.mark.parametrize("states_first", [False, True])
    def test_an_lq_op_solves_each_spectrum_once(self, monkeypatch, eigensolves, concurrent,
                                                states_first):
        monkeypatch.setattr(graph, "_concurrent", lambda order: concurrent)
        doc = load_fixture("fig4_left")
        for kind in KINDS:
            eigensolves.clear()
            _, verdict, (s, s2) = lq_op(fresh(doc.graph()), doc.partition, kind, states_first)
            assert verdict and abs(s - s2) < 1e-9
            assert len(eigensolves) == 2

    def test_recorded_spectra_equal_fresh_solves(self, rng):
        # graphs are built and dropped, so the ids of their matrices are reused
        ids = set()
        for draw in range(1000):
            g, part = random_starlike_instance(rng)
            kind = KINDS[draw % 2]
            g2, verdict, (s, s2) = lq_op(g, part, kind, states_first=draw % 4 > 1)
            m, m2 = spectral_matrix(g, kind), spectral_matrix(g2, kind)
            ids.add(id(m))
            own, own2 = (np.array(spectral_matrix(fresh(h), kind)) for h in (g, g2))
            assert verdict == cospectral(m, m2) == cospectral(own, own2)
            assert spectral_gap(m, m2) == spectral_gap(own, own2)
            for h, entropy in ((g, s), (g2, s2)):
                assert entropy == von_neumann_entropy(density_from_graph(fresh(h), kind))
        assert len(ids) < 1000

    @pytest.mark.parametrize("writable", [True, False])
    def test_a_callers_array_is_always_solved(self, eigensolves, writable):
        g = load_fixture("fig4_left").graph()
        m = spectral_matrix(g, SpectralKind.LAPLACIAN)
        assert cospectral(m, m)  # records the spectrum with g
        own = np.array(m)  # the bytes of the recorded matrix
        own.flags.writeable = writable
        eigensolves.clear()
        assert cospectral(own, m)
        assert len(eigensolves) == 1 and eigensolves[0] is own
        own.flags.writeable = True
        own[0, 0] += 1.0
        own.flags.writeable = writable
        expected = np.abs(np.linalg.eigvalsh(np.array(own)) - np.linalg.eigvalsh(np.array(m)))
        assert spectral_gap(own, m) == expected.max() > 0.0

    def test_records_go_with_their_graph_and_matrices(self):
        gc.collect()
        before = len(graph._TIED)
        kind = SpectralKind.SIGNLESS
        g = fresh(load_fixture("fig4_left").graph())
        m = spectral_matrix(g, kind)
        rho = density_from_graph(g, kind)
        assert cospectral(m, spectral_matrix(g, kind))
        recorded = g._facts["spectrum", kind]
        with pytest.raises(ValueError):
            recorded.flags.writeable = True
        # a graph takes no weak reference; its adjacency matrix lives as long
        refs = [weakref.ref(x) for x in (adjacency_matrix(g), rho, recorded, m)]
        del g, rho, recorded
        gc.collect()
        # the matrix outlives its graph, and its tie holds the record
        assert [r() is None for r in refs] == [True, True, False, False]
        assert len(graph._TIED) == before + 1
        assert cospectral(m, m)
        del m
        gc.collect()
        assert all(r() is None for r in refs)
        assert len(graph._TIED) == before

    def test_threads_share_records_soundly(self, rng):
        # matrices tied and dropped on several threads at once, with frequent
        # switches between them, half of them on graphs all threads share;
        # every answer is the one a fresh graph gives
        cases = [random_starlike_instance(rng)[0] for _ in range(8)]
        expected = [(von_neumann_entropy(density_from_graph(fresh(g), kind)),
                     np.linalg.eigvalsh(np.array(spectral_matrix(g, kind))).tobytes())
                    for g in cases for kind in KINDS]
        gc.collect()
        before = len(graph._TIED)
        wrong = []

        def work(shift):
            for step in range(100):
                c = (shift + step) % len(expected)
                g, kind = cases[c // 2], KINDS[c % 2]
                h = fresh(g) if step % 2 else g
                m = spectral_matrix(h, kind)
                got = von_neumann_entropy(density_from_graph(h, kind))
                if (got, graph._eigvalsh(m).tobytes()) != expected[c]:
                    wrong.append(c)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []
        gc.collect()
        assert len(graph._TIED) == before
