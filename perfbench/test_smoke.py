#!/usr/bin/env python3
"""Smoke self-test of the benchmark at a tiny run length.

    python3 perfbench/test_smoke.py

For every workload, run.py must print every metric BENCHMARK.json declares,
with its declared unit, in both modes. A fixture recorded at the tiny length
must pass the fingerprint gate and a corrupted copy must fail it. A second
seed must repeat exactly and differ from the default seed, and a directory
holding only the benchmark's own files must be refused.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DEFAULT_SEED = 12345


def bench(workload: str, trace: int, fixtures: Path,
          seed: int = DEFAULT_SEED) -> tuple[int, str, dict[str, Any]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--length", "tiny",
           "--fixtures", str(fixtures)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    return proc.returncode, proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def iteration(workload: str, seed: int, *extra: str) -> dict[str, Any]:
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--length", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
    result: dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    return result


class Smoke(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self) -> None:
        shutil.rmtree(self.tmp)

    def test_every_declared_metric_is_printed_with_its_unit(self) -> None:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    rc, out, res = bench(workload, trace, self.tmp)
                    self.assertEqual(rc, 0, out)
                    self.assertTrue(res["correct"])
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    self.assertEqual(set(res["metrics"]), set(declared))
                    for name, unit in declared.items():
                        self.assertEqual(res["metrics"][name]["unit"], unit, name)
                        self.assertRegex(out, rf"(?m)^{re.escape(name)} +\S+ {re.escape(unit)} \(")
                    self.assertIn("fixture gate ['skipped']", out)

    def test_fingerprint_gate_catches_a_corrupted_fixture(self) -> None:
        workload = "smt_ilp"
        self.assertEqual(iteration(workload, DEFAULT_SEED, "--fixtures", str(self.tmp),
                                "--record")["gate"], "recorded")
        rc, out, res = bench(workload, 0, self.tmp)
        self.assertEqual(rc, 0, out)
        self.assertIn("fixture gate ['pass']", out)

        fixture = next(self.tmp.glob(f"{workload}-tiny-seed{DEFAULT_SEED}.txt"))
        lines = fixture.read_text().splitlines(keepends=True)
        fields = lines[1].split(" | ")
        fields[3] = str(int(fields[3]) + 1)  # the cell's cycle count
        lines[1] = " | ".join(fields)
        fixture.write_text("".join(lines))
        rc, out, res = bench(workload, 0, self.tmp)
        self.assertNotEqual(rc, 0)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("fingerprint mismatch", out)

    def test_a_second_seed_repeats_exactly(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = iteration(workload, 7)
                self.assertEqual(first["gate"], "skipped")
                self.assertEqual(first["fingerprint"], iteration(workload, 7)["fingerprint"])
                self.assertNotEqual(first["fingerprint"],
                                    iteration(workload, DEFAULT_SEED)["fingerprint"])

    def test_refuses_to_run_without_the_sources(self) -> None:
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(HERE, self.tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0],
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.tmp, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
