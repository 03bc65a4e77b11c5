#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. Builds the benchmark, runs its oracle
fault-injection test (perfbench_selftest), and checks that the metric
table the binary prints matches BENCHMARK.json name for name, unit for unit
and direction for direction, and that run.py rejects a result line that
does not.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build(("perfbench", "perfbench_selftest"))

    def test_oracle_rejects_injected_faults(self):
        proc = subprocess.run([str(self.out / "perfbench_selftest")], capture_output=True,
                              text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_printed_metrics_match_benchmark_json(self):
        printed = json.loads(subprocess.run([str(self.out / "perfbench"), "--list-metrics"],
                                            capture_output=True, text=True,
                                            check=True).stdout)
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            declared = json.load(f)
        for section in ("end_to_end", "per_layer"):
            want = [(m["name"], m["unit"], m["better"]) for m in declared[section]]
            got = [(m["name"], m["unit"], m["better"]) for m in printed[section]]
            self.assertEqual(got, want, section)

    def test_result_check_rejects_mismatched_lines(self):
        declared = run.declared_metrics("end_to_end")
        metrics = {name: {"value": 1.5, "unit": unit} for name, unit in declared.items()}
        line = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        self.assertEqual(run.check_result(json.dumps(line), trace=False), [])
        self.assertNotEqual(run.check_result(json.dumps(line), trace=True), [])

        name = next(iter(declared))
        wrong_unit = json.loads(json.dumps(line))
        wrong_unit["metrics"][name]["unit"] = "furlongs"
        self.assertNotEqual(run.check_result(json.dumps(wrong_unit), trace=False), [])

        missing = json.loads(json.dumps(line))
        del missing["metrics"][name]
        self.assertNotEqual(run.check_result(json.dumps(missing), trace=False), [])

        extra_key = dict(line, note="x")
        self.assertNotEqual(run.check_result(json.dumps(extra_key), trace=False), [])
        self.assertNotEqual(run.check_result("not json", trace=False), [])


if __name__ == "__main__":
    unittest.main()
