"""Fast self-test of the benchmark harness at tiny workload sizes.

    python3 bench/selftest.py

Checks that every metric in BENCHMARK.json is printed by name with its unit
in both modes, that a wrong recorded digest is counted as a failure, and
that the benchmark exits non-zero without a result when the sources are
missing. Takes about half a minute.
"""

import contextlib
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run
import workloads

TINY = {
    "sweep": {"resolution": 1, "replicates": 2},
    "grid": {"cells": 1},
    "multival": {"runs": 1, "n_vals": 2, "horizon": 20},
}
SEED = 3
SCRATCH = os.path.join(workloads.ROOT, ".bench_out", f"selftest-{os.getpid()}")

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], sizes=TINY[name])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.valtrack = workloads.import_valtrack()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def bench(self, name, trace, corrupt=False):
        """Run run.main on the tiny workload; return (stdout lines, result)."""
        workload = tiny(name)
        digest = workloads.run_iteration(self.valtrack.cli.main, workload.calls(SEED),
                                         run.fresh_dir(SCRATCH), io.StringIO())
        if corrupt:
            digest = digest[::-1]
        out = io.StringIO()
        with mock.patch.dict(run.WORKLOADS, {name: workload}), \
                mock.patch.object(run, "load_expected", return_value=(SEED, digest)), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", name, "--seed", str(SEED),
                             "--seconds", "0", "--trace", str(trace)])
        self.assertEqual(code, 0)
        lines = out.getvalue().splitlines()
        return lines, json.loads(lines[-1])

    def test_every_metric_prints_with_its_unit(self):
        for name in TINY:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    lines, result = self.bench(name, trace)
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric, unit in expected.items():
                        pattern = rf"{name} {re.escape(metric)} \S+ {re.escape(unit)}"
                        self.assertTrue(any(re.fullmatch(pattern, ln) for ln in lines),
                                        f"no line for {metric}")
                    self.assertTrue(any(ln.startswith(f"{name} error_rate 0 ratio")
                                        for ln in lines))

    def test_corrupted_digest_counts_as_failure(self):
        lines, result = self.bench("grid", 0, corrupt=True)
        self.assertFalse(result["correct"])
        # the fresh-process iteration, the warm-up and every timed iteration
        self.assertGreaterEqual(result["failed"], 2 + run.MIN_ITERATIONS)
        rate = next(ln for ln in lines if ln.startswith("grid error_rate"))
        self.assertGreater(float(rate.split()[2]), 0.0)

    def test_exits_nonzero_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(workloads.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, *BENCHMARK["command"][1:], "--workload", "grid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
