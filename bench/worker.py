"""Child process of the benchmark: runs one workload in a fresh interpreter.

Modes:
  setup  import seidelkit, generate the seed-independent set-up input (not
         timed), run one warm-up op; reports the perf_counter reading at
         import-done and the op time.
  timed  closed loop, one client: run ops until their summed time reaches
         --seconds (whole windows), checking each against its oracle; the
         first window's op arguments are pickled to --inputs.
  rss    run each op pickled in --inputs once, unchecked. The parent reads
         this process's peak RSS with wait4, so it holds no generator or
         oracle data: only the op, one input at a time.
  trace  a fixed op list, each op untraced and then traced, then the
         in-process CLI probe traced; reports the layer aggregates and
         writes the spans to --spans.

Results go to --out as JSON.
"""

import sys
import time

import seidelkit  # noqa: E402  first, so `setup` times the import alone

IMPORT_DONE = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io as stdio  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from seidelkit import cli  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


class Tally:
    """Op counts, failures by class, and the generated mix of one run."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failures: dict[str, int] = {}
        self.details: list[str] = []
        self.edges_changed = 0
        self.control_ok: bool | None = None
        self.mix = {"orders": {}, "edges": [], "pqr": [0, 0, 0], "cells": 0,
                    "asymmetric": 0, "cancelling": 0}

    def add_input(self, item: wl.Item) -> None:
        inst = item.inst
        if inst is None:
            return
        orders = self.mix["orders"]
        orders[inst.order] = orders.get(inst.order, 0) + 1
        self.mix["edges"].append(inst.edge_count)
        for k, count in enumerate(map(sum, zip(*inst.counts))):
            self.mix["pqr"][k] += count
        self.mix["cells"] += len(inst.cells)
        self.mix["asymmetric"] += not inst.symmetric
        self.mix["cancelling"] += inst.cancelling

    def add_outcome(self, job, item, result, error) -> None:
        self.attempted += 1
        if error is not None:
            self._fail("error", f"{type(error).__name__}: {error}")
            return
        self.completed += 1
        outcome = job.check(item, result)
        self.edges_changed += outcome.edges_changed
        if outcome.failure:
            self._fail(outcome.failure, outcome.detail)
        elif self.control_ok is None:
            self.control_ok = job.control(item, outcome)

    def _fail(self, kind: str, detail: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if detail and len(self.details) < 5:
            self.details.append(f"{kind}: {detail}")

    @property
    def correct(self) -> bool:
        # a refusal (error, false_on_certified) is a failure, not a wrong answer
        return "mismatch" not in self.failures and self.control_ok is not False

    def report(self) -> dict:
        edges = self.mix["edges"]
        mix = dict(self.mix, edges=[min(edges), int(statistics.median(edges)), max(edges)] if edges else [])
        return {
            "attempted": self.attempted,
            "completed": self.completed,
            "failed": sum(self.failures.values()),
            "failures": self.failures,
            "details": self.details,
            "correct": self.correct,
            "control_ok": self.control_ok,
            "edges_changed": self.edges_changed,
            "mix": mix,
        }


def attempt(job, item: wl.Item):
    try:
        return job.run(*item.args), None
    except Exception as exc:  # an op failure is data here, not a crash
        return None, exc


def run_setup(job) -> dict:
    item = job.setup_item()
    t0 = time.perf_counter()
    job.run(*item.args)
    return {"import_done": IMPORT_DONE, "warm_s": time.perf_counter() - t0}


def run_timed(job, seconds: float, inputs: str) -> dict:
    """Ops until their summed time reaches `seconds`, in whole windows.

    Returns the latencies of completed ops and, per window of `job.window`
    consecutive ops, completed ops per second of op time.
    """
    tally = Tally()
    attempt(job, job.prepare(0))  # warm-up: lazy imports and first-call set-up
    first_window = open(inputs, "wb")
    samples: list[float] = []
    rates: list[float] = []
    busy, i = 0.0, 0
    window_time, window_done = 0.0, 0
    while busy < seconds or i % job.window:
        item = job.prepare(i)
        tally.add_input(item)
        if i < job.window:
            pickle.dump(item.args, first_window)
        t0 = time.perf_counter()
        result, error = attempt(job, item)
        dt = time.perf_counter() - t0
        busy += dt
        window_time += dt
        if error is None:
            samples.append(dt)
            window_done += 1
        tally.add_outcome(job, item, result, error)
        i += 1
        if i % job.window == 0:
            rates.append(window_done / window_time)
            window_time, window_done = 0.0, 0
    first_window.close()
    return dict(tally.report(), samples=samples, window_rates=rates, busy_s=busy)


def run_rss(job, inputs: str) -> dict:
    ops = 0
    with open(inputs, "rb") as f:
        while True:
            try:
                item = wl.Item(None, pickle.load(f))
            except EOFError:
                break
            attempt(job, item)
            del item  # free this input before the next one is read
            ops += 1
    return {"ops": ops}


PROBE = (
    ("switch", "{d}/fig2.graph", "--verify", "--out", "{d}/probe_fig2.graph"),
    ("switch", "{d}/fig4_left.graph", "--kind", "laplacian", "--verify", "--out", "{d}/probe_fig4.graph"),
    ("entropy", "{d}/fig4_left.graph", "--kind", "laplacian"),
    ("strength-scan", "--max-order", "100", "--include-blocks", "--out", "{d}/probe_scan.csv"),
)


def run_trace(job, fixtures: str, spans_out: str) -> dict:
    items = [job.prepare(i) for i in range(job.traced_ops)]
    tally = Tally()
    for item in items:
        tally.add_input(item)
    attempt(job, items[0])  # warm-up

    # each op runs untraced, then traced, so drift hits both sides alike
    untraced = 0.0
    results = []
    tracer = tr.Tracer()
    for item in items:
        t0 = time.perf_counter()
        attempt(job, item)
        untraced += time.perf_counter() - t0
        tracer.install()
        try:
            with tracer.span("bench.op"):
                results.append(attempt(job, item))
        finally:
            tracer.uninstall()
    op_spans = len(tracer.spans)

    tracer.install()
    try:
        for argv in PROBE:
            with tracer.span("bench.probe"), contextlib.redirect_stdout(stdio.StringIO()):
                status = cli.main([a.format(d=fixtures) for a in argv])
            if status != 0:
                raise RuntimeError(f"CLI probe {argv[0]} exited with {status}")
    finally:
        tracer.uninstall()
    for item, (result, error) in zip(items, results):
        tally.add_outcome(job, item, result, error)

    traced = sum(s.end - s.start for s in tracer.spans[:op_spans] if s.parent < 0)
    metrics = layer_metrics(tr.summarize(tracer.spans), tracer.counts)
    metrics["switching.edges_changed"] = tally.edges_changed
    metrics["graph.cospectral.false_on_certified"] = tally.failures.get("false_on_certified", 0)
    metrics["bench.trace_overhead"] = traced / untraced - 1.0
    Path(spans_out).write_text(json.dumps(
        [[s.name, s.start, s.end, s.parent] for s in tracer.spans]))
    return dict(tally.report(), metrics=metrics, traced_s=traced, untraced_s=untraced)


def layer_metrics(summary: dict, counts: dict) -> dict:
    names, layers = summary["names"], summary["layers"]

    def busy(name):
        return names[name]["busy"] if name in names else 0.0

    def self_s(name):
        return names[name]["self"] if name in names else 0.0

    def calls(name):
        return names[name]["calls"] if name in names else 0

    def kernels(layer, *which):
        return sum(layers[layer]["kernel_calls"][k] for k in which)

    m = {
        "io.loads_document.busy_s": busy("io.loads_document"),
        "io.dumps_document.busy_s": busy("io.dumps_document"),
        "io.bytes_in": counts.get("io.bytes_in", 0),
        "io.bytes_out": counts.get("io.bytes_out", 0),
        "graph.from_edges.busy_s": busy("graph.from_edges"),
        "graph.weight.calls": counts.get("graph.weight", 0),
        "graph.adjacency_matrix.calls": calls("graph.adjacency_matrix"),
        "graph.adjacency_matrix.busy_s": busy("graph.adjacency_matrix"),
        "graph.laplacian.busy_s": busy("graph.laplacian"),
        "graph.cospectral.calls": calls("graph.cospectral"),
        "graph.cospectral.busy_s": busy("graph.cospectral"),
        "graph.eig_calls": kernels("graph", "eigvals", "eigvalsh"),
        "switching.validate_seidel.calls": calls("switching.validate_seidel"),
        "switching.validate_seidel.busy_s": busy("switching.validate_seidel"),
        "switching.switch.calls": calls("switching.switch"),
        "switching.switch.self_s": self_s("switching.switch"),
        "starlike.validate_starlike.self_s": self_s("starlike.validate_starlike"),
        "starlike.lift_graph.busy_s": busy("starlike.lift_graph"),
        "starlike.project_graph.busy_s": busy("starlike.project_graph"),
        "starlike.lq_switch.self_s": self_s("starlike.lq_switch"),
        "starlike.spectral_matrix.busy_s": busy("starlike.spectral_matrix"),
        "quantum.density_from_graph.busy_s": busy("quantum.density_from_graph"),
        "quantum.von_neumann_entropy.busy_s": busy("quantum.von_neumann_entropy"),
        "quantum.eig_calls": kernels("quantum", "eigvals", "eigvalsh"),
        "strength.strength_scan.self_s": self_s("strength.strength_scan"),
        "strength.schmidt_coefficients.calls": calls("strength.schmidt_coefficients"),
        "strength.schmidt_coefficients.busy_s": busy("strength.schmidt_coefficients"),
        "strength.svd_calls": kernels("strength", "svd"),
        "strength.svd.busy_s": layers["strength"]["kernel_busy"]["svd"],
        "strength.scan_csv.busy_s": busy("strength.scan_csv"),
        "bench.unattributed_s": summary["unattributed"],
    }
    for layer in tr.LAYERS:
        m[f"{layer}.self_s"] = layers[layer]["self"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "timed", "rss", "trace"))
    parser.add_argument("--workload", choices=sorted(wl.JOBS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--inputs", help="pickled op arguments (timed writes, rss reads)")
    parser.add_argument("--fixtures", help="directory holding exported fixtures (trace)")
    parser.add_argument("--spans", help="file the trace spans are written to (trace)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    job = wl.JOBS[args.workload](args.seed)
    if args.mode == "setup":
        result = run_setup(job)
    elif args.mode == "timed":
        result = run_timed(job, args.seconds, args.inputs)
    elif args.mode == "rss":
        result = run_rss(job, args.inputs)
    else:
        result = run_trace(job, args.fixtures, args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
