"""Smoke tests for the benchmark itself.

    python3 -m unittest discover -s perfbench -v

Every workload runs at a tiny size through the same code path as a real
run (`run.main(..., tiny=True)`), untraced and traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import unittest

import run
import shapes

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_tiny(workload: str, seed: int, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            tiny=True,
        )
    lines = out.getvalue().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


class RunSchema(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        units = {m["name"]: m["unit"] for m in declared}
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, detail, result = run_tiny(workload, 1, 0)
                self.assertEqual(code, 0)
                self.check_result(result, BENCHMARK["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_of_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, detail, result = run_tiny(workload, 1, 1)
                self.assertEqual(code, 0)
                self.check_result(result, BENCHMARK["per_layer"])
                self.assertGreater(detail["spans"], 0)

    def test_no_workload_operation_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, detail, result = run_tiny(workload, 3, 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(detail["error_rate"], 0)
                if workload == "comb":
                    # six probe operations per pass, two passes, counted apart
                    self.assertEqual(detail["probe_ops"], 12)
                    self.assertLessEqual(detail["probe_failed_ops"], 12)
                else:
                    self.assertEqual(detail["probe_ops"], 0)

    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run_tiny(workload, 7, 0)[1]["digest"]
                self.assertEqual(run_tiny(workload, 7, 0)[1]["digest"], first)
                self.assertEqual(run_tiny(workload, 7, 1)[1]["digest"], first)
                self.assertNotEqual(run_tiny(workload, 8, 0)[1]["digest"], first)


class Shapes(unittest.TestCase):
    def test_shapes_are_seeded(self):
        for make in (shapes.chain, shapes.zigzag, shapes.comb, shapes.identity_padded):
            with self.subTest(shape=make.__name__):
                self.assertEqual(make(6, random.Random(4)), make(6, random.Random(4)))
                self.assertNotEqual(make(6, random.Random(4)), make(6, random.Random(5)))

    def test_sizes(self):
        rng = random.Random(0)
        self.assertEqual(len(shapes.chain(10, rng).vertices), 23)
        zigzag = shapes.zigzag(10, rng)
        self.assertEqual((len(zigzag.vertices), zigzag.transversal_count), (22, 8))
        comb = shapes.comb(10, rng)
        self.assertEqual((len(comb.root.vertices), comb.secondary_count), (22, 18))
        self.assertEqual(comb.left.count("\nlet "), 9)
        self.assertEqual(shapes.identity_padded(50, rng).nest.count("cut("), 50)

    def test_file_text_declares_before_use(self):
        shape = shapes.chain(5, random.Random(1))
        kinds = [line.split()[0] for line in shape.file_text(random.Random(2)).splitlines()]
        self.assertEqual(kinds, sorted(kinds, key="vec".index))


if __name__ == "__main__":
    unittest.main()
