#!/usr/bin/env python3
"""Tests of the benchmark's own output checks.

Each test runs the short mesh16_knee workload through run.py and reads its
result line. Run from the root of a checkout:

    python3 perfbench/test_checks.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench-tests"


def run_knee(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mesh16_knee",
         "--seconds", "1", "--trace", "0", *args],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n"
                             + proc.stderr[-3000:])
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


class OutputChecks(unittest.TestCase):
    def test_reference_seed_passes(self):
        result, _ = run_knee("--seed", "1")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)

    def test_tampered_digest_is_a_failure(self):
        ref = json.loads((HERE / "reference.json").read_text())
        entry = ref["workloads"]["mesh16_knee"]
        entry["digest"] = "0" * 64
        entry["records"] = {k: "0" * 64 for k in entry["records"]}
        SCRATCH.mkdir(parents=True, exist_ok=True)
        tampered = SCRATCH / "tampered-reference.json"
        tampered.write_text(json.dumps(ref))
        result, out = run_knee("--seed", "1", "--reference", str(tampered))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("differ from the stored reference digest", out)

    def test_oversaturated_knee_is_a_failure(self):
        # Seed 2 has no stored digest, so only the backlog check can fail.
        result, out = run_knee("--seed", "2", "--knee-scale", "1.3")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("backlog grew", out)


if __name__ == "__main__":
    unittest.main()
