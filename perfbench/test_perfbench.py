#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They check the tail-percentile rule, that a tiny-scale run of every workload
emits exactly the metrics BENCHMARK.json names, with their units, and the
layer metrics of the layers it uses as non-zero, and that every result
oracle rejects a deliberately perturbed result (the harness's --self-test).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Per-layer metrics that must be non-zero on a workload that uses the layer.
USED_LAYERS = {
    "star_join": ("exec.join_ms", "model.join_bits", "model.join_passes",
                  "exec.join_partition_tasks", "model.join_pred_over_meas",
                  "exec.groupby_ms", "model.groupby_pred_over_meas"),
    "serving_ingest": ("serve.plan_cache_hit_ratio",
                       "serve.point_exec_ms_p50",
                       "serve.analytic_exec_ms_p50", "exec.join_ms"),
}
COMMON_LAYERS = ("bat.table_build_ms", "bat.table_mb", "model.calib_ms",
                 "model.stats_fill_ms", "model.lower_ms_p50",
                 "exec.execute_ms_p50", "exec.scan_select_ms")


def benchmark_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[k]}
                 for k in ("end_to_end", "per_layer"))


class TailRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail(list(range(19))))
        self.assertEqual(run.tail(list(range(20))), (0.5, 9, 20))

    def test_picks_the_highest_supported_percentile(self):
        self.assertEqual(run.tail(list(range(100)))[0], 0.9)
        self.assertEqual(run.tail(list(range(999)))[0], 0.9)
        self.assertEqual(run.tail(list(range(1000)))[:2], (0.99, 989))
        self.assertEqual(run.tail(list(range(10000)))[0], 0.999)

    def test_cap_and_sample_count(self):
        q, value, n = run.tail([float(x) for x in range(5000)], cap=0.9)
        self.assertEqual((q, n), (0.9, 5000))
        self.assertEqual(value, 4499.0)

    def test_order_does_not_matter(self):
        values = [float((x * 7919) % 1000) for x in range(1000)]
        self.assertEqual(run.tail(values), run.tail(sorted(values)))


class Harness(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()
        if cls.exe is None:
            raise RuntimeError("harness build failed")

    def test_oracles_reject_perturbed_results(self):
        p = subprocess.run([self.exe, "--self-test"], capture_output=True,
                           text=True)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertNotIn("FAIL", p.stdout)
        self.assertIn("rejects", p.stdout)

    def test_tiny_run_emits_every_metric(self):
        e2e, layer = benchmark_metrics()
        for workload in run.WORKLOADS:
            for trace, names in ((0, e2e), (1, layer)):
                with self.subTest(workload=workload, trace=trace):
                    p = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace), "--tiny"],
                        capture_output=True, text=True, timeout=600)
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    lines = p.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        names)
                    nonzero = (names if trace == 0 else
                               COMMON_LAYERS + USED_LAYERS[workload])
                    for n in nonzero:
                        self.assertGreater(result["metrics"][n]["value"], 0,
                                           n)
                    # Every end-to-end metric is printed with its unit and
                    # sample count in both modes.
                    text = "\n".join(lines[:-1])
                    for n, u in e2e.items():
                        line = next(l for l in lines if l.split()[:1] == [n])
                        self.assertIn(" %s " % u, line)
                        self.assertIn("(n=", line)
                    self.assertIn("fail_ratio", text)
                    self.assertIn("tlb_entries=", text)
                    self.assertIn("thp=", text)


if __name__ == "__main__":
    unittest.main()
