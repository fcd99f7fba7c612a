#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark (like run.py) and make short runs of one second.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own entry point)

# Metrics that are a pure function of the seed: the simulated end-to-end
# metrics and the count layers of the reference pass.
DETERMINISTIC = [
    "sim_ms_per_op", "io_pages_per_op", "fidelity", "snapshot_mb",
    "persist.fsyncs",
    "search.nodes_visited_per_op", "search.vpages_fetched_per_op",
    "search.hidden_pruned_per_op", "search.internal_terminations_per_op",
    "store.cell_flips_per_op", "store.invisible_lookups_per_op",
    "storage.tree_reads_per_op", "storage.store_reads_per_op",
    "storage.model_reads_per_op", "storage.seeks_per_op",
    "storage.tree_cache_hit_ratio", "walkthrough.delta_reuse_ratio",
    "walkthrough.models_fetched_per_op", "walkthrough.sim_frame_var",
    "prefetch.plans_per_op", "prefetch.issued_pages", "prefetch.used_pages",
    "prefetch.cancelled_pages", "prefetch.wasted_ratio",
    "prefetch.overlap_ms_per_op",
]


def bench(workload, seed, trace):
    """One short run; returns (exit code, result line, full report)."""
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (run.OUT_DIR / f"report-{workload}-{seed}-{trace}.json").read_text())
    return proc.returncode, result, report


def inputs_digest(workload, seed):
    out = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--inputs-only"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=120).stdout
    return json.loads(out)["inputs_digest"]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.declared = run.load_declared()

    def test_benchmark_json_declares_unit_and_direction(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        for kind in ("end_to_end", "per_layer"):
            for metric in spec[kind]:
                self.assertTrue(metric["unit"], metric)
                self.assertIn(metric["better"], ("lower", "higher"), metric)

    def test_every_emitted_metric_is_declared(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, report = bench("query", 3, trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            want = {n for n, (_, k) in self.declared.items() if k == kind}
            self.assertEqual(set(result["metrics"]), want)
            for name, metric in report["metrics"].items():
                self.assertIn(name, self.declared)
                self.assertEqual(metric["unit"], self.declared[name][0], name)
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], self.declared[name][0], name)

    def test_same_seed_repeats_simulated_and_count_metrics(self):
        for workload in ("walk", "serve"):
            first = bench(workload, 5, 1)[2]["metrics"]
            again = bench(workload, 5, 1)[2]["metrics"]
            for name in DETERMINISTIC:
                # Absent where the workload has no such layer (README.md).
                self.assertEqual(first.get(name), again.get(name),
                                 f"{workload} {name}")
            self.assertGreater(first["sim_ms_per_op"]["value"], 0)

    def test_different_seed_gives_different_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(inputs_digest(workload, 1),
                             inputs_digest(workload, 1))
            self.assertNotEqual(inputs_digest(workload, 1),
                                inputs_digest(workload, 2))


if __name__ == "__main__":
    unittest.main()
