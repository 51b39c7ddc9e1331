"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m unittest discover -s bench -t bench
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import seidelkit  # noqa: E402

import generators as gen  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def adj_small(seed=3):
    inst = gen.adj_instance(gen.instance_rng(seed, "adj-docs", 0), 96)
    return wl.Item(inst, (inst.text,))


def lq_small(seed, order, i=0):
    return wl.LqStates.make(gen.instance_rng(seed, "lq-states", 0), order, i)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a, b = adj_small().inst, adj_small().inst
        self.assertEqual(a.text, b.text)
        self.assertTrue(np.array_equal(a.a, b.a))
        x = gen.lq_instance(gen.instance_rng(5, "lq-states", 2), 100)
        y = gen.lq_instance(gen.instance_rng(5, "lq-states", 2), 100)
        self.assertTrue(np.array_equal(x.a, y.a))
        self.assertEqual((x.cells, x.d, x.counts), (y.cells, y.d, y.counts))

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(adj_small(3).args, adj_small(4).args)

    def test_setup_input_does_not_depend_on_the_seed(self):
        for job in wl.JOBS.values():
            a, b = job(1).setup_item(), job(2).setup_item()
            self.assertEqual(a.args[:1], b.args[:1], job.name)
        self.assertEqual(wl.LqStates(9).setup_item().inst.order, gen.LQ_SETUP_ORDER)

    def test_instances_satisfy_the_switching_conditions(self):
        for seed in range(3):
            item = adj_small(seed)
            doc = seidelkit.io.loads_document(item.inst.text)
            seidelkit.validate_seidel(doc.graph(), doc.partition)
            self.assertFalse(item.inst.symmetric)
            g, part, _ = lq_small(seed, 40 + 30 * seed).args
            seidelkit.validate_starlike(g, part)

    def test_strength_row_count(self):
        # 4 = 2*2; 6 = 2*3 = 3*2; 8 = 2*4 = 4*2: three orders, five factorizations
        self.assertEqual(gen.strength_expected_rows(8), 10)


class OracleTests(unittest.TestCase):
    def test_adj_oracle_accepts_the_program_output(self):
        item = adj_small()
        outcome = wl.AdjDocs.check(item, wl.AdjDocs.run(*item.args))
        self.assertIn(outcome.failure, (None, "false_on_certified"))
        self.assertGreater(outcome.edges_changed, 0)

    def test_adj_oracle_flags_a_perturbed_weight(self):
        item = adj_small()
        verdict, out = wl.AdjDocs.run(*item.args)
        raw = json.loads(out)
        raw["edges"][0][2] += 1e-6
        perturbed = seidelkit.dumps_document(seidelkit.io.loads_document(json.dumps(raw)))
        self.assertEqual(wl.AdjDocs.check(item, (verdict, perturbed)).failure, "mismatch")

    def test_adj_oracle_counts_a_false_negative(self):
        item = adj_small()
        _, out = wl.AdjDocs.run(*item.args)
        self.assertEqual(wl.AdjDocs.check(item, (False, out)).failure, "false_on_certified")

    def test_lq_oracle_flags_a_perturbed_graph_and_entropy(self):
        for i in range(2):  # L, then Q
            item = lq_small(1, 64, i)
            verdict, g2, s, s2 = wl.LqStates.run(*item.args)
            self.assertIsNone(wl.LqStates.check(item, (verdict, g2, s, s2)).failure)
            (u, v), w = next(iter(g2.edges.items()))
            bent = seidelkit.WeightedDigraph(g2.order, {**g2.edges, (u, v): w + 1e-6})
            self.assertEqual(wl.LqStates.check(item, (verdict, bent, s, s2)).failure, "mismatch")
            self.assertEqual(wl.LqStates.check(item, (verdict, g2, s, s2 + 1e-6)).failure, "mismatch")

    def test_strength_oracle_flags_a_dropped_row_and_a_wrong_peak(self):
        item, check = wl.Item(None, ()), wl.StrengthScan.check
        text = wl.StrengthScan.run()
        self.assertIsNone(check(item, text).failure)
        lines = text.splitlines()
        self.assertEqual(check(item, "\n".join(lines[:-1]) + "\n").failure, "mismatch")
        wrong = text.replace("4,2,2,single,1.000000000000", "4,2,2,single,0.900000000000")
        self.assertNotEqual(wrong, text)
        self.assertEqual(check(item, wrong).failure, "mismatch")

    def test_negative_control_rejects_a_shifted_pair(self):
        item = adj_small()
        outcome = wl.AdjDocs.check(item, wl.AdjDocs.run(*item.args))
        self.assertTrue(wl.AdjDocs.control(item, outcome))
        item = lq_small(2, 48)
        outcome = wl.LqStates.check(item, wl.LqStates.run(*item.args))
        self.assertTrue(wl.LqStates.control(item, outcome))


class SelfTimeTests(unittest.TestCase):
    def test_synthetic_span_tree(self):
        S = tr.Span
        spans = [
            S("bench.op", 0.0, 10.0, -1),
            S("graph.cospectral", 1.0, 6.0, 0),
            S("numpy.linalg.eigvals", 2.0, 4.0, 1),
            S("switching.switch", 6.0, 9.5, 0),
            S("switching.validate_seidel", 6.5, 7.0, 3),
            S("graph.cospectral", 7.0, 8.0, 3),
            S("graph.spectrum", 7.25, 7.75, 5),
        ]
        out = tr.summarize(spans)
        names, layers = out["names"], out["layers"]
        self.assertAlmostEqual(names["graph.cospectral"]["self"], 3.0 + 0.5)
        self.assertAlmostEqual(names["graph.cospectral"]["busy"], 6.0)
        self.assertEqual(names["graph.cospectral"]["calls"], 2)
        self.assertAlmostEqual(names["switching.switch"]["self"], 2.0)
        # the kernel's 2 s are charged to the layer that called it
        self.assertAlmostEqual(layers["graph"]["self"], 3.0 + 2.0 + 0.5 + 0.5)
        self.assertEqual(layers["graph"]["kernel_calls"]["eigvals"], 1)
        self.assertAlmostEqual(layers["graph"]["kernel_busy"]["eigvals"], 2.0)
        self.assertAlmostEqual(layers["switching"]["self"], 2.0 + 0.5)
        self.assertAlmostEqual(out["unattributed"], 1.0 + 0.5)
        total = out["unattributed"] + sum(layer["self"] for layer in layers.values())
        self.assertAlmostEqual(total, 10.0)

    def test_same_name_nesting_is_busy_once(self):
        S = tr.Span
        out = tr.summarize([S("bench.op", 0, 4, -1), S("io.f", 0, 3, 0), S("io.f", 1, 2, 1)])
        self.assertAlmostEqual(out["names"]["io.f"]["busy"], 3.0)
        self.assertAlmostEqual(out["names"]["io.f"]["self"], 3.0)


class TracerTests(unittest.TestCase):
    def test_install_covers_rebound_names_and_uninstall_restores(self):
        from seidelkit import cli, starlike, switching

        originals = (switching.validate_seidel, starlike.validate_seidel, cli.switch,
                     seidelkit.WeightedDigraph.weight, np.linalg.eigvalsh)
        tracer = tr.Tracer()
        tracer.install()
        try:
            self.assertIs(starlike.validate_seidel, switching.validate_seidel)
            self.assertIsNot(starlike.validate_seidel, originals[0])
            item = adj_small()
            wl.AdjDocs.run(*item.args)
        finally:
            tracer.uninstall()
        self.assertEqual(originals, (switching.validate_seidel, starlike.validate_seidel, cli.switch,
                                     seidelkit.WeightedDigraph.weight, np.linalg.eigvalsh))
        names = {s.name for s in tracer.spans}
        self.assertLessEqual({"io.loads_document", "switching.switch", "switching.validate_seidel",
                              "graph.cospectral", "numpy.linalg.eigvals"}, names)
        self.assertGreater(tracer.counts["graph.weight"], 0)
        self.assertEqual(tracer.counts["io.bytes_in"], len(item.inst.text))


class CommandTests(unittest.TestCase):
    def run_bench(self, cwd, trace):
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "strength-scan", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300,
        )

    def test_printed_metrics_are_the_declared_ones(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = self.run_bench(ROOT, trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            out = self.run_bench(tmp, 0)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
