#!/usr/bin/env python3
"""The benchmark's own tests (standard library only).

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py, then checks
  * the fabric and churn-schedule checks of perfbench_selftest;
  * that every virtual-clock and count metric repeats exactly across two
    runs of each workload with the same seed, untraced and traced;
  * that the command fails without printing a result when the sanmap
    sources are missing.
Takes about three minutes.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("now100-churn", "ktree-epoch", "banded-map")


def bench(workload, seed, trace):
    exe = os.path.join(run.build_dir(), "perfbench")
    done = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300)
    if done.returncode != 0:
        raise AssertionError("%s exited %d" % (workload, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_selftest(self):
        exe = os.path.join(run.build_dir(), "perfbench_selftest")
        done = subprocess.run([exe], stdout=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 0, done.stdout)

    def check_repeats(self, trace):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                first = bench(workload, 3, trace)
                second = bench(workload, 3, trace)
                self.assertTrue(first["correct"] and second["correct"])
                exact = [name for name in first["metrics"]
                         if compare.is_exact(workload, name)]
                self.assertTrue(exact)
                for name in exact:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)

    def test_untraced_metrics_repeat(self):
        self.check_repeats(0)

    def test_traced_metrics_repeat(self):
        self.check_repeats(1)

    def test_fails_without_sources(self):
        lone = os.path.join(run.build_dir(), "lone-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "ktree-epoch", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=lone, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
