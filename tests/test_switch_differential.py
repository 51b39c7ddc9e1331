"""An exact differential of the switch: one digest per seeded input over the
outcomes of every switching entry point, checked against
`tests/data/switch_differential.json`.

The inputs are conftest draws, each as drawn, symmetrized (A + A^T) and with
one mutated entry, then benchmark-shaped draws of `bench/generators.py`
(read, never changed here), each as drawn and with one mutated entry. They
are dyadic (power-of-two cells, small integer weights), so every result is
exact in float64 whatever the summation order,
and its bytes do not depend on the platform or the BLAS build. An outcome is
a result's bytes (and, for a graph, `is_symmetric()`), or a domain error's
type and message; eigenvalues and documents are left out. Each entry also
holds a digest of its input, so a change of the generators is reported as
drift, not as a change of behaviour.

A change that keeps behaviour leaves every digest as it is. One that moves
outcomes on purpose regenerates the file and says which digests moved:

    PYTHONPATH=src python tests/test_switch_differential.py
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
from conftest import fresh, mutated, random_seidel_instance, random_starlike_instance

from seidelkit import (
    SeidelPartition,
    SpectralKind,
    WeightedDigraph,
    adjacency_matrix,
    flip_half_pattern,
    lq_switch,
    switch,
    switch_cross_block,
    validate_seidel,
    validate_starlike,
)
from seidelkit.errors import SeidelKitError

DATA = Path(__file__).with_name("data") / "switch_differential.json"
SEED = 20261020
DRAWS = 60  # per generator; three inputs each
L, Q = SpectralKind.LAPLACIAN, SpectralKind.SIGNLESS


def _bench_generators():
    """`bench/generators.py`, loaded from its file without importing bench."""
    path = Path(__file__).parents[1] / "bench" / "generators.py"
    spec = importlib.util.spec_from_file_location("bench_generators", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _bench_generators()
# (generator, order, draws): asymmetric adj-docs graphs with cross blocks,
# partial incoming category-1 weights and cells of 64, and starlike
# lq-states graphs at orders whose cells are all powers of two; two inputs each
BENCH_DRAWS = ((gen.adj_instance, 72, 6), (gen.adj_instance, 144, 6),
               (gen.lq_instance, 32, 4), (gen.lq_instance, 64, 4), (gen.lq_instance, 96, 4))


def inputs():
    """(graph, partition) pairs: each conftest draw as drawn, symmetrized and
    with one mutated entry; then each benchmark-shaped draw as drawn and with
    one mutated entry."""
    rng, mutations = np.random.default_rng(SEED), np.random.default_rng(SEED + 1)
    for _ in range(DRAWS):
        for draw in (random_seidel_instance, random_starlike_instance):
            g, part = draw(rng)
            a = adjacency_matrix(g)
            yield g, part
            yield WeightedDigraph.from_adjacency(a + a.T), part
            yield mutated(mutations, g), part
    for make, order, count in BENCH_DRAWS:
        for _ in range(count):
            inst = make(rng, order)
            assert all(len(c) & (len(c) - 1) == 0 for c in inst.cells), "a cell is not dyadic"
            g, part = WeightedDigraph.from_adjacency(inst.a), SeidelPartition(inst.cells, inst.d)
            yield g, part
            yield mutated(mutations, g), part


def settled(f, *args):
    """What f(*args) gives: a graph's adjacency bytes and symmetry, an
    array's shape and bytes, the repr of anything else, or the type and
    message of the domain error it raises."""
    try:
        r = f(*args)
    except SeidelKitError as e:
        return type(e).__name__, str(e)
    if isinstance(r, WeightedDigraph):
        return adjacency_matrix(r).tobytes(), r.is_symmetric()
    if isinstance(r, np.ndarray):
        return r.shape, r.tobytes()
    return repr(r)


def outcomes(g: WeightedDigraph, part) -> list:
    """The outcomes of every switching entry point on one input. Each
    `lq_switch` without a record runs on a fresh copy of g; then a copy that
    `validate_starlike` passed on switches from its record, if any."""
    a, cells, d = adjacency_matrix(g), part.cells, part.d_cell
    out = [settled(switch, g, part), settled(validate_seidel, g, part)]
    out += [settled(lq_switch, fresh(g), part, kind, force) for kind in (L, Q) for force in (False, True)]
    h = fresh(g)
    out += [settled(validate_starlike, h, part), settled(lq_switch, h, part, L),
            settled(lq_switch, h, part, Q, True)]
    other = cells[1] if len(cells) > 1 else d
    if other:  # the block from the first cell to the second, or to D
        out.append(settled(switch_cross_block, a[np.ix_(cells[0], other)]))
    out += [settled(flip_half_pattern, a[v, list(cells[0])]) for v in d]
    return out


def digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def corpus() -> list[list[str]]:
    """[input digest, outcome digest] per input, in draw order."""
    return [[digest((adjacency_matrix(g).tobytes(), part)), digest(outcomes(g, part))]
            for g, part in inputs()]


def test_every_outcome_is_as_recorded():
    stored, current = json.loads(DATA.read_text()), corpus()
    drifted = [i for i, (s, c) in enumerate(zip(stored, current)) if s[0] != c[0]]
    assert len(stored) == len(current) and not drifted, (
        f"the inputs drifted from the recorded ones (first at {drifted[:5]}): "
        "regenerate the file only if the generators changed on purpose")
    moved = [i for i, (s, c) in enumerate(zip(stored, current)) if s[1] != c[1]]
    assert moved == [], f"{len(moved)} of {len(stored)} outcomes moved, first at inputs {moved[:10]}"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in corpus()) + "\n]\n")
