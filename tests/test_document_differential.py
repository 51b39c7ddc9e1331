"""An exact differential of the document reader: one digest per input over
what `loads_document` makes of it, checked against
`tests/data/document_differential.json`.

The inputs are the 7 fixtures in three layouts (as shipped, as
`dumps_document` writes them, and as one-line `json.dumps`); seeded
one-character mutations of small documents, drawn as
`test_io_cli.read_mutated_as_walked` draws them; `adj_instance` documents of
`bench/generators.py` (read, never changed here) at orders 72 and 144; and
the `TEXT_PATH_CASES` of `test_io_cli`, a document whose order no matrix of
float64 can hold, and one whose metadata is nested 100,000 deep.

An outcome is the document (adjacency bytes, order, partition, metadata) and
its `dumps_document` text, or a domain error's type and message. Any other
exception is recorded by its type alone: Python and numpy word those
messages, and the wording moves between versions (a `RecursionError`, a
`MemoryError`). No input reaches `int()`'s digit limit, whose message reads
differently in Python 3.10 and 3.11. The route is whether `io._loads_walked`
ran. Each input is read at the default sizes and again at `_READ_SLICE = 1`
and `_WRITE_BLOCK = 1`, and the two readings must agree. Each entry is
[input digest, outcome digest, route].

A change that keeps behaviour leaves every entry as it is. One that moves
outcomes or routes on purpose regenerates the file and says which moved:

    PYTHONPATH=src python tests/test_document_differential.py
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
from conftest import bench_generators
from test_io_cli import ALL_FIXTURES, TEXT_PATH_CASES, small_bench_text

from seidelkit import adjacency_matrix, dumps_document, load_fixture
from seidelkit import io as skio
from seidelkit.errors import SeidelKitError

DATA = Path(__file__).with_name("data") / "document_differential.json"
SEED = 20261021
MUTATIONS = 300
BENCH_DRAWS = ((72, 4), (144, 4))  # (order, draws) of adj_instance
HUGE = '{"order": 123456789, "edges": [[0, 1, 1.0]]}'
DEEP = ('{"order": 2, "edges": [[0, 1, 1.0]], "metadata": '
        + '{"n": ' * 100_000 + "1" + "}" * 100_000 + "}")
adj_instance = bench_generators().adj_instance


def mutations(rng, count):
    """Small documents with one character inserted, deleted or replaced."""
    alphabet = list('0123456789-+.eE[],: \n\t"{}aN')
    for i in range(count):
        text = small_bench_text(rng, one_line=i % 2 == 0)
        pos, ch = int(rng.integers(len(text))), str(rng.choice(alphabet))
        kind = i % 3  # 0 inserts, 1 deletes, 2 replaces
        yield text[:pos] + ("" if kind == 1 else ch) + text[pos + (kind > 0):]


def inputs():
    """The texts of the corpus, in order."""
    for name in ALL_FIXTURES:
        shipped = (resources.files("seidelkit") / "fixtures" / f"{name}.graph").read_text()
        yield from (shipped, dumps_document(load_fixture(name)), json.dumps(json.loads(shipped)))
    yield from mutations(np.random.default_rng(SEED), MUTATIONS)
    rng = np.random.default_rng(SEED + 1)
    for order, count in BENCH_DRAWS:
        for _ in range(count):
            yield adj_instance(rng, order).text
    cases = [getattr(case, "values", [case])[0] for case in TEXT_PATH_CASES]  # a pytest.param too
    yield from dict.fromkeys([*cases, DEEP, HUGE])


def reading(text: str) -> tuple:
    """(outcome, route) of loads_document(text): the document and its
    `dumps_document` text, or the error; "walk" if `io._loads_walked` ran."""
    walks, walk = [], skio._loads_walked

    def counted(text, source):
        walks.append(text)
        return walk(text, source)

    skio._loads_walked = counted
    try:
        doc = skio.loads_document(text)
        read = (adjacency_matrix(doc.graph()).tobytes(), doc.order, doc.partition, doc.metadata,
                dumps_document(doc))
    except SeidelKitError as e:
        read = type(e).__name__, str(e)
    except Exception as e:  # a crash: its type, not Python's or numpy's wording
        read = (type(e).__name__,)
    finally:
        skio._loads_walked = walk
    return read, "walk" if walks else "text"


def readings(text: str) -> tuple:
    """`reading` at the default sizes, and at a one-byte read slice and a one-entry write block."""
    sizes = skio._READ_SLICE, skio._WRITE_BLOCK
    default = reading(text)
    skio._READ_SLICE = skio._WRITE_BLOCK = 1
    try:
        return default, reading(text)
    finally:
        skio._READ_SLICE, skio._WRITE_BLOCK = sizes


def digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def corpus() -> tuple[list[list[str]], list[int]]:
    """[input digest, outcome digest, route] per input, in order, and the
    positions of the inputs whose two readings disagree."""
    entries, disagree = [], []
    for i, text in enumerate(inputs()):
        (read, route), sliced = readings(text)
        entries.append([digest(text), digest(read), route])
        if sliced != (read, route):
            disagree.append(i)
    return entries, disagree


def test_every_outcome_is_as_recorded():
    stored, (current, disagree) = json.loads(DATA.read_text()), corpus()
    assert disagree == [], f"inputs {disagree[:10]} read otherwise at one-byte slices"
    drifted = [i for i, (s, c) in enumerate(zip(stored, current)) if s[0] != c[0]]
    assert len(stored) == len(current) and not drifted, (
        f"the inputs drifted from the recorded ones (first at {drifted[:5]}): "
        "regenerate the file only if the inputs changed on purpose")
    moved = [i for i, (s, c) in enumerate(zip(stored, current)) if s[1:] != c[1:]]
    assert moved == [], f"{len(moved)} of {len(stored)} outcomes or routes moved, at inputs {moved[:10]}"


if __name__ == "__main__":
    entries, disagree = corpus()
    if disagree:
        raise SystemExit(f"inputs {disagree[:10]} read otherwise at one-byte slices")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n")
