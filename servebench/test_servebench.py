#!/usr/bin/env python3
"""The serving benchmark's own test, in smoke mode (reduced sizes).

    python3 servebench/test_servebench.py

Builds the binary like run.py does, then checks that every workload is
correct untraced and traced and reports every declared metric, that two
runs at one seed issue identical fixed-work counts, and that the command
fails without a result line when the source tree is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def run_command(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "servebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class ServebenchSmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.end_to_end, cls.per_layer = run.declared_metrics()

    def test_every_workload_is_correct_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_command("--workload", workload, "--seed", "3",
                                       "--seconds", "1", "--trace", trace,
                                       "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    wanted = (self.per_layer if trace == "1"
                              else self.end_to_end)
                    self.assertEqual(sorted(result["metrics"]), sorted(wanted))

    def test_two_runs_at_one_seed_do_identical_work(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                counts = []
                for _ in range(2):
                    report = run.serve(self.binary, workload, 5, 1, True,
                                       True, time.monotonic() + 600)
                    counts.append(report["counts"])
                    self.assertTrue(report["correct"])
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["queries_issued"]["value"], 0)
                self.assertGreater(counts[0]["epochs_applied"]["value"], 0)
                if workload == "remote_vector":
                    self.assertGreater(counts[0]["snapshot_bytes"]["value"], 0)

    def test_fails_without_the_source_tree(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                        os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = run_command("--workload", "greedy_dense", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
