#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

Runs every workload of BENCHMARK.json at a tiny size (`run.py --smoke`),
untraced and traced, and checks that each run passes its correctness
checks, that its JSON result carries exactly the metrics BENCHMARK.json
names with their units, and that the report-only figures are printed by
name and unit. Also checks that the benchmark refuses to run, without a
result line, in a directory that holds only BENCHMARK.json and perfbench/.

    python3 perfbench/test_smoke.py
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

# Figures printed as `metric <name> <value> <unit>` lines but not part of
# the JSON result (zero-valued or workload-specific; see README.md).
REPORT_ONLY = {
    ("offline-ckt2", 0): {"error_ratio": "ratio", "p99_us": "us"},
    ("offline-ckt2", 1): {"error_ratio": "ratio", "p99_us": "us",
                          "cli.residual_k8_ms": "ms",
                          "cli.residual_k16_ms": "ms"},
}
SERVE_REPORT_ONLY = {
    "error_ratio": "ratio", "p99_us": "us", "serve.l1_hit_ratio": "ratio",
    "serve.miss_ratio": "ratio", "serve.mean_batch_size": "requests",
    "serve.rejected": "count", "store.puts": "count",
    "serve.server_p99_bucket_us": "us",
    "serve.generator_lateness_p50_us": "us",
    "serve.generator_lateness_max_us": "us",
}
for _w in ("serve-hot", "serve-cold"):
    REPORT_ONLY[(_w, 0)] = dict(SERVE_REPORT_ONLY)
    REPORT_ONLY[(_w, 1)] = dict(SERVE_REPORT_ONLY,
                                **{"serve.unattributed_us": "us"})


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable] + args, cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)
    return proc.returncode, proc.stdout.splitlines()


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_workload_reports_every_metric(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def check_run(self, workload, trace):
        code, lines = run([RUN, "--workload", workload, "--seed", "1",
                           "--trace", str(trace), "--smoke"])
        self.assertEqual(code, 0, "\n".join(lines[-30:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)

        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

        printed = {}
        for line in lines:
            parts = line.split()
            if len(parts) >= 4 and parts[0] == "metric":
                printed[parts[1]] = parts[3]
        for m in wanted:
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        for name, unit in REPORT_ONLY[(workload, trace)].items():
            self.assertEqual(printed.get(name), unit, name)

    def test_refuses_without_the_repo_sources(self):
        bare = os.path.join(ROOT, ".bench_build", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines = run([os.path.join("perfbench", "run.py"),
                               "--workload", "serve-hot", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
