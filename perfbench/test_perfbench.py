#!/usr/bin/env python3
"""Self-tests of the Monte-Carlo tracking benchmark.

    python3 perfbench/test_perfbench.py      # from the root of a cdpf checkout

Each test drives perfbench/run.py at smoke size (one trial of every cell, one
pass), so the whole file runs in well under a minute on 4 cores.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Runnable but kept out of BENCHMARK.json (see README.md); still self-tested.
PARALLEL = "paper-sweep-mt"
ALL_WORKLOADS = WORKLOADS + [w for w in ("cdpf-sweep", PARALLEL) if w not in WORKLOADS]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
DETERMINISTIC = ("rmse_m", "comm_bytes_per_iter", "track_kept_frac")


def bench(workload, *extra, trace=0, seed=7, run=RUN, cwd=ROOT):
    """Run the benchmark; returns (exit code, stdout, parsed last line or None)."""
    done = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, done.stdout + done.stderr, result


class SmokeRuns(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_all_end_to_end_metrics(self):
        for workload in ALL_WORKLOADS:
            with self.subTest(workload=workload):
                code, output, result = bench(workload, "--smoke")
                self.assertEqual(code, 0, output)
                self.check_result(result, END_TO_END)
                for name in END_TO_END:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_every_workload_emits_all_layer_metrics_when_traced(self):
        for workload in ALL_WORKLOADS:
            with self.subTest(workload=workload):
                code, output, result = bench(workload, "--smoke", trace=1)
                self.assertEqual(code, 0, output)
                self.check_result(result, PER_LAYER)


class Determinism(unittest.TestCase):
    def test_parallel_sweep_is_worker_count_independent(self):
        nproc = str(os.cpu_count() or 1)
        _, out1, one = bench(PARALLEL, "--smoke", "--workers", "1")
        _, outn, many = bench(PARALLEL, "--smoke", "--workers", nproc)
        self.assertIsNotNone(one, out1)
        self.assertIsNotNone(many, outn)
        for name in DETERMINISTIC:
            self.assertEqual(one["metrics"][name], many["metrics"][name], name)


class CorrectnessGate(unittest.TestCase):
    def test_gate_rejects_a_perturbed_reference(self):
        code, output, result = bench(WORKLOADS[0], "--smoke", "--perturb-reference")
        self.assertEqual(code, 3, output)
        self.assertIsNone(result, output)
        self.assertIn("correctness gate FAILED", output)

    def test_fails_without_the_library_sources(self):
        # A tree holding only BENCHMARK.json and the benchmark's own files.
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            code, output, result = bench(WORKLOADS[0], cwd=bare,
                                         run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(code, 0, output)
            self.assertIsNone(result, output)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
