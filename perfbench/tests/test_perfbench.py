"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py exactly as BENCHMARK.json's command
does, with a one-second measurement, and checks the result line against
the metric names and units BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py")] + list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class MetricsTest(unittest.TestCase):
    def check(self, workload, trace, declared):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in res["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_every_workload_prints_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0, SPEC["end_to_end"])

    def test_every_workload_prints_every_per_layer_metric(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1, SPEC["per_layer"])


class CorruptionTest(unittest.TestCase):
    def expect_failure(self, *args):
        proc = run(*args)
        self.assertNotEqual(proc.returncode, 0)
        res = result_of(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)

    def test_corrupted_sweep_digest_fails_the_run(self):
        self.expect_failure("--workload", "creation", "--seed", "3",
                            "--seconds", "1", "--corrupt", "digest")

    def test_corrupted_replay_digest_fails_the_traced_run(self):
        self.expect_failure("--workload", "lowpower", "--seed", "3",
                            "--seconds", "1", "--trace", "1",
                            "--corrupt", "digest")

    def test_corrupted_service_artifact_fails_the_run(self):
        self.expect_failure("--workload", "service", "--seed", "3",
                            "--seconds", "1", "--corrupt", "artifact")


class BareCheckoutTest(unittest.TestCase):
    def test_without_the_program_it_fails_without_a_result(self):
        build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
        os.makedirs(build, exist_ok=True)
        bare = tempfile.mkdtemp(dir=build)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "b"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "creation",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("\"correct\"", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
