"""Finite weights that sum past the float range.

Every site that sums or subtracts entries runs on A 2^-s for the least
s >= 0 that keeps its sums in range (module docstring of `graph`). So every
public call on a graph of finite weights either returns finite values or
raises a SeidelKitError, under the suite's filterwarnings = error, and a
graph scaled by a power of two switches to its switch scaled by that power,
to the last bit.
"""

import math

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
    degree_matrix,
    density_from_graph,
    laplacian,
    lift_graph,
    lq_switch,
    project_graph,
    signless_laplacian,
    spectral_gap,
    spectrum,
    switch,
    switch_cross_block,
    validate_seidel,
    validate_starlike,
)
from seidelkit.io import GraphDocument, write_document
from seidelkit.cli import main
from seidelkit.errors import (
    InvalidGraph,
    NonConstantRowSum,
    NotRealizable,
    NotRegularInduced,
    NotSymmetric,
    SeidelKitError,
    UnequalWeights,
    ZeroTrace,
)

KINDS = list(SpectralKind)
SEED = 20261021
BIG = 1.5e308


def scaled(g: WeightedDigraph, k: int) -> WeightedDigraph:
    return WeightedDigraph.from_adjacency(np.ldexp(adjacency_matrix(g), k))


def finite(r) -> bool:
    """Whether every number a public call returned is finite."""
    if isinstance(r, WeightedDigraph):
        r = adjacency_matrix(r)
    elif isinstance(r, DensityMatrix):
        r = np.concatenate((r.matrix.ravel(), r.eigenvalues()))
    elif isinstance(r, list):  # starlike cell profiles
        r = [(p.w_plus, p.w_minus, p.w_half_plus, p.w_half_minus) for p in r]
    elif not isinstance(r, (np.ndarray, float, bool)):  # a category report
        return True
    return bool(np.isfinite(r).all())


def public_calls(g: WeightedDigraph, part: SeidelPartition):
    """(name, call) for every public call on one graph and partition."""
    a = adjacency_matrix(g)
    yield "validate_seidel", lambda: validate_seidel(g, part)
    yield "validate_starlike", lambda: validate_starlike(fresh(g), part)
    yield "switch", lambda: switch(g, part)
    yield "switch verified", lambda: switch(g, part, verify=True)
    yield "degree_matrix", lambda: degree_matrix(g)
    yield "laplacian", lambda: laplacian(g)
    yield "signless_laplacian", lambda: signless_laplacian(g)
    yield "spectrum", lambda: spectrum(a)
    yield "spectral_gap", lambda: spectral_gap(a, a)
    yield "cospectral", lambda: cospectral(a, a)
    yield "cospectral switched", lambda: cospectral(a, adjacency_matrix(switch(g, part)))
    for kind in KINDS:
        yield f"lq_switch {kind.value}", lambda k=kind: lq_switch(fresh(g), part, k)
        yield f"lq_switch {kind.value} forced", lambda k=kind: lq_switch(fresh(g), part, k, True)
        yield f"density_from_graph {kind.value}", lambda k=kind: density_from_graph(g, k)
        yield f"lift_graph {kind.value}", lambda k=kind: lift_graph(g, k)
        yield f"project_graph {kind.value}", lambda k=kind: project_graph(g, k)
        yield f"project_graph of lift {kind.value}", lambda k=kind: project_graph(
            lift_graph(g, k), k)
        yield f"spectrum {kind.value}", lambda k=kind: spectrum(
            laplacian(g) if k is SpectralKind.LAPLACIAN else signless_laplacian(g))


def escapes(cases) -> list:
    """The calls that returned a non-finite value or raised anything but a
    SeidelKitError (a warning is raised as an error), with the case label."""
    out = []
    for label, g, part in cases:
        for name, call in public_calls(g, part):
            try:
                if not finite(call()):
                    out.append((label, name, "non-finite result"))
            except SeidelKitError:
                pass
            except Exception as e:  # reported with its case, not raised
                out.append((label, name, f"{type(e).__name__}: {e}"))
    return out


def random_case(rng):
    """Order 2-64, cells of 2 or 4 and a hub set, sparse weights of +-2^e
    (e in 1000-1023) mixed with small integers; symmetric half of the time."""
    n = int(rng.integers(2, 65))
    cells, rest = [], list(rng.permutation(n).tolist())
    while len(rest) >= 4 and rng.random() < 0.7:
        size = int(rng.choice((2, 4)))
        cells.append(tuple(rest[:size]))
        rest = rest[size:]
    small = rng.integers(1, 4, size=(n, n))
    big = np.ldexp(1.0, rng.integers(1000, 1024, size=(n, n)))
    a = np.where(rng.random((n, n)) < 0.5, small, big) * rng.choice((-1.0, 1.0), size=(n, n))
    a *= rng.random((n, n)) < rng.choice((0.1, 0.3, 0.8))
    if rng.random() < 0.5:
        a = np.triu(a) + np.triu(a, 1).T
    np.fill_diagonal(a, np.abs(a.diagonal()))
    return WeightedDigraph.from_adjacency(a), SeidelPartition(tuple(cells), tuple(rest))


def reweighted(rng, g):
    """g with each distinct weight w replaced by w 2^e, e in 1000-1021 or 0,
    the same e for equal weights, so that a regular part stays regular."""
    a = adjacency_matrix(g)
    values = np.unique(a[a != 0])
    shift = dict(zip(values.tolist(), rng.choice(np.r_[0, 1000:1022], size=len(values))))
    return WeightedDigraph.from_adjacency(
        np.ldexp(a, np.vectorize(lambda w: shift.get(w, 0))(a)))


def up_to_overflow(g):
    """The exponents k from 1000 to the largest one with 2^k A finite."""
    top = math.frexp(float(np.abs(adjacency_matrix(g)).max()))[1]
    return sorted({1000, 1020 - top, 1023 - top, 1024 - top})


def corpus():
    rng = np.random.default_rng(SEED)
    for i in range(40):
        yield f"random {i}", *random_case(rng)
    for i in range(30):
        for draw in (random_seidel_instance, random_starlike_instance):
            g, part = draw(rng)
            yield f"{draw.__name__} {i} reweighted", reweighted(rng, g), part
            for k in up_to_overflow(g):
                yield f"{draw.__name__} {i} at 2^{k}", scaled(g, k), part


def test_every_public_call_stays_finite_or_raises_a_domain_error():
    assert escapes(corpus()) == []


# cases that warned, or answered wrongly with warnings off, before the rule
HUBS_TO_CELL = {(h, v): BIG for h in (2, 3) for v in (0, 1)}
PATH = {(u, v): 1e308 for u, v in ((0, 1), (1, 0), (1, 2), (2, 1))}


@pytest.mark.parametrize("edges", [HUBS_TO_CELL,
                                   {**HUBS_TO_CELL, **{(v, h): BIG for h, v in HUBS_TO_CELL}}])
def test_hub_weights_past_half_the_range_switch_to_the_input(edges):
    g = WeightedDigraph(4, edges)
    assert switch(g, SeidelPartition(((0, 1),), (2, 3))) == g


@pytest.mark.parametrize("kind", KINDS)
def test_the_1e308_path_lq_switches_to_itself(kind):
    g = WeightedDigraph(3, PATH)
    assert lq_switch(g, SeidelPartition(((0, 2),), (1,)), kind) == g


def test_a_switch_past_the_range_names_the_vertex():
    # the hub row (1, -1, 1, 1) * 1.5e308 switches to (0, 3, 0, 0) * 1.5e308
    g = WeightedDigraph(5, {(4, 0): BIG, (4, 1): -BIG, (4, 2): BIG, (4, 3): BIG})
    with pytest.raises(InvalidGraph, match="^vertex 4 has an edge of non-finite weight$"):
        switch(g, SeidelPartition(((0, 1, 2, 3),), (4,)))


def test_opposite_half_weights_past_half_the_range_are_unequal():
    g = WeightedDigraph(5, {(4, 0): BIG, (4, 1): -BIG})
    with pytest.raises(UnequalWeights, match="unequal outgoing weights"):
        validate_seidel(g, SeidelPartition(((0, 1, 2, 3),), (4,)))


# a weight elsewhere sets s > 0; each part's tolerance floor stays 1e-12 (1 + its
# own scale), as at s = 0, so 3e-12 apart on sums or weights of 1 still fails
FAR = 2.0**1021


def test_a_small_irregular_cell_beside_a_large_weight_is_irregular():
    g = WeightedDigraph(4, {(0, 1): 1.0, (1, 0): 1.0 + 3e-12, (2, 3): FAR, (3, 2): FAR})
    for f in (validate_seidel, switch):
        with pytest.raises(NotRegularInduced, match="cell 0"):
            f(g, SeidelPartition(((0, 1),), (2, 3)))


def test_small_unequal_hub_weights_beside_a_large_weight_are_unequal():
    g = WeightedDigraph(6, {(4, 0): 1.0, (4, 1): 1.0 + 3e-12, (4, 5): FAR, (5, 4): FAR})
    with pytest.raises(UnequalWeights, match="unequal outgoing weights"):
        validate_seidel(g, SeidelPartition(((0, 1, 2, 3),), (4, 5)))


def test_small_unequal_row_sums_of_cancelling_large_entries_vary():
    with pytest.raises(NonConstantRowSum):
        switch_cross_block(np.array([[FAR, -FAR, 1.0], [FAR, -FAR, 1.0 + 5e-12]]))


def test_cli_switch_verify_prints_spectra_past_half_the_range(tmp_path, capsys):
    # the eigenvalues +-3e308 print as +-inf; the gap is measured on A 2^-s
    g = WeightedDigraph(4, {**HUBS_TO_CELL, **{(v, h): BIG for h, v in HUBS_TO_CELL}})
    path = tmp_path / "hubs.graph"
    write_document(GraphDocument.from_graph(g, partition=SeidelPartition(((0, 1),), (2, 3))), path)
    assert main(["--quiet", "switch", str(path), "--verify"]) == 0
    out = capsys.readouterr().out
    assert "spectrum in : -inf " in out and "max spectral gap: 0.000e+00" in out


def test_a_cell_interior_summing_past_the_range_validates():
    g = WeightedDigraph(4, {(u, v): 1e308 for u in range(4) for v in range(4) if u != v})
    assert validate_seidel(g, SeidelPartition(((0, 1, 2, 3),))).counts == ((0, 0, 0),)
    assert switch(g, SeidelPartition(((0, 1, 2, 3),))) == g


def test_a_difference_past_the_range_is_not_symmetric():
    m = np.array([[0.5, BIG], [-BIG, 0.5]])
    with pytest.raises(NotSymmetric):
        spectrum(m)
    with pytest.raises(NotSymmetric):
        DensityMatrix(m)


@pytest.mark.parametrize("kind", KINDS)
def test_an_off_diagonal_sum_past_the_range_is_not_realizable(kind):
    # vertices 0 and 2 have loops that match their one edge; vertex 1 does not
    h = WeightedDigraph(3, {**PATH, (0, 0): 1e308, (1, 1): 1.0, (2, 2): 1e308})
    with pytest.raises(NotRealizable, match="^vertex 1: diagonal 1.0 .* inf$"):
        project_graph(h, kind)


def test_a_constant_block_past_half_the_range_is_fixed():
    a = np.full((2, 2), BIG)
    assert np.array_equal(switch_cross_block(a), a)


def test_degrees_past_the_range_name_the_vertex():
    g = WeightedDigraph(3, {(0, 1): BIG, (0, 2): BIG})
    with pytest.raises(InvalidGraph, match="^the weights at vertex 0 sum past the float range$"):
        degree_matrix(g)


@pytest.mark.parametrize("m", [np.diag([np.inf, 1.0, 1.0]), np.diag([np.nan, 1.0, 1.0])])
def test_a_non_finite_entry_is_refused_before_lapack(m):
    with pytest.raises(NotSymmetric):
        spectrum(m)
    for f in (cospectral, spectral_gap):
        with pytest.raises(InvalidGraph, match="^a matrix entry is not finite$"):
            f(m, np.eye(3))


def test_an_eigenvalue_past_the_range_is_an_invalid_graph():
    # the degrees of this path are finite, and L has the eigenvalue 3 * 0.6e308
    g = WeightedDigraph(3, {(u, v): 0.6e308 for u, v in PATH})
    with pytest.raises(InvalidGraph, match="^an eigenvalue of the matrix passes the float range$"):
        spectrum(laplacian(g))


@pytest.mark.parametrize("m, error", [
    (np.diag([BIG, BIG]), ZeroTrace),  # the trace is 3e308
    (np.diag([np.inf, -np.inf]), NotSymmetric),
    (np.array([[np.inf, np.inf], [np.inf, 1.0]]), NotSymmetric),
    (np.array([[0.0, np.inf, 1.0], [np.inf, 0.0, 0.0], [2.0, 0.0, 1.0]]), NotSymmetric),
])
def test_a_state_past_the_range_is_refused(m, error):
    with pytest.raises(error):
        DensityMatrix(m)


# scaling by 2^k commutes with the switch, so these are byte for byte
@pytest.fixture(scope="module")
def seidel_draws():
    rng = np.random.default_rng(20240817)
    return [random_seidel_instance(rng) for _ in range(300)]


@pytest.mark.parametrize("k", [1000, 1016, 1020])
def test_a_scaled_switch_is_the_switch_scaled(seidel_draws, k):
    for g, part in seidel_draws:
        expected = np.ldexp(adjacency_matrix(switch(g, part)), k)
        result = switch(scaled(g, k), part)
        assert adjacency_matrix(result).tobytes() == expected.tobytes()
        assert result.is_symmetric() == g.is_symmetric()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [1000, 1016, 1020])
def test_a_scaled_lq_switch_is_the_lq_switch_scaled(kind, k):
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        g, part = random_starlike_instance(rng)
        expected = np.ldexp(adjacency_matrix(lq_switch(g, part, kind)), k)
        assert adjacency_matrix(lq_switch(scaled(g, k), part, kind)).tobytes() == expected.tobytes()


def test_a_matrix_scaled_to_the_edge_of_the_range_is_cospectral_with_itself():
    rng = np.random.default_rng(20240817)
    for _ in range(529):
        a = np.ldexp(adjacency_matrix(random_seidel_instance(rng)[0]), 1020)
        assert cospectral(a, a)


def test_a_scaled_switch_is_the_switch_scaled_by_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), starlike=st.booleans(),
                      k=st.one_of(st.integers(0, 1020), st.integers(1010, 1020)))
    def scaled_switch(seed, k, starlike):
        draw = random_starlike_instance if starlike else random_seidel_instance
        g, part = draw(np.random.default_rng(seed))
        with np.errstate(over="ignore"):
            expected = np.ldexp(adjacency_matrix(switch(g, part)), k)
        if np.isfinite(expected).all():
            assert adjacency_matrix(switch(scaled(g, k), part)).tobytes() == expected.tobytes()
        else:
            with pytest.raises(InvalidGraph):
                switch(scaled(g, k), part)

    scaled_switch()
