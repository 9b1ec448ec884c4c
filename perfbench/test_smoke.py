"""Fast smoke tests of the benchmark at tiny sizes.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layertrace import LAYER_METRICS, Tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, seed=5, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=120)


class SmokeTest(unittest.TestCase):
    def test_manifest_matches_benchmark(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in BENCH["per_layer"]],
                         [name for name, _ in LAYER_METRICS])

    def test_every_workload_reports_every_metric(self):
        for workload in WORKLOADS:
            for trace, declared in ((0, BENCH["end_to_end"]),
                                    (1, BENCH["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared})
                    if not trace:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_traced_calls_repeat_and_reach_reimported_names(self):
        runs = [json.loads(run_bench("verify-deep", 1).stdout.splitlines()[-1])
                for _ in range(2)]
        calls = [{k: v["value"] for k, v in r["metrics"].items()
                  if k.endswith(".calls")} for r in runs]
        self.assertEqual(calls[0], calls[1])
        # harness calls these through the names it re-imports
        self.assertGreater(calls[0]["graph.domination_number.calls"], 0)
        self.assertGreater(calls[0]["autos.chi_p.calls"], 0)
        self.assertGreater(runs[0]["metrics"]["harness.claims_evaluated"]["value"], 0)
        # timed in their own pass, one claim at a time
        self.assertGreater(runs[0]["metrics"]["harness.claim.REG.self_s"]["value"], 0)

    def test_absent_name_is_reported(self):
        import lfgraph.gf  # noqa: F401
        tracer = Tracer()
        tracer.install((("gf", "no_such_function", "span"),
                        ("no_such_module", "f", "count")))
        self.assertEqual(tracer.absent, ["gf.no_such_function",
                                         "no_such_module.f"])

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-test-") as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("exact-search", 0, root=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
