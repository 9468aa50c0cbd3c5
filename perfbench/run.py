#!/usr/bin/env python3
"""Benchmark command for the tlrob simulator.

Builds perfbench/ (the tlrob library plus the tlrob-perfbench program) from
the checkout's sources, then repeats one workload for --seconds seconds, one
process per iteration, and reports for every metric its median over the
iterations. Host times arrive already divided by the host slowdown each
iteration measured around itself (see host_slowdown in perfbench.cpp).

    python3 perfbench/run.py --workload smt_ilp --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics of untraced iterations. --trace 1
alternates untraced and traced iterations and prints the per-layer metrics of
the traced ones, plus bench.trace_overhead_frac (traced / untraced wall - 1).
Every iteration's cell fingerprints must agree with each other (traced and
untraced alike) and with perfbench/fixtures/ when a fixture exists for the
seed. The last stdout line is one JSON object: correct, attempted, failed,
metrics. The exit status is 0 only when the result is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_repro", "cmp_membound", "smt_ilp")
MIN_ITERATIONS = 3
# A run never starts another iteration past this point, so it ends well
# inside three minutes even with a slow host.
HARD_STOP_S = 120.0
ITERATION_TIMEOUT_S = 150.0


def fail(msg: str) -> None:
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build() -> Path:
    """Configures (once) and builds tlrob-perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"tlrob sources not found under {ROOT}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "tlrob-perfbench"


def iterate(binary: Path, args: argparse.Namespace, trace: bool) -> dict[str, Any]:
    """One iteration in a fresh process; a crash becomes a failed result."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace else "0", "--length", args.length,
           "--fixtures", str(args.fixtures)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": ["iteration timed out"], "attempted": 1, "failed": 1}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result: dict[str, Any] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"errors": [f"exit {proc.returncode} without a result"],
                "attempted": 1, "failed": 1}
    if proc.returncode != 0 and not result.get("errors"):
        result["errors"] = [f"exit {proc.returncode}"]
    return result


def aggregate(results: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        out[name] = {"value": statistics.median(values), "unit": first["unit"],
                     "min": min(values), "max": max(values)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--length", choices=("full", "tiny"), default="full",
                    help="tiny: a few thousand instructions per cell (self-test)")
    ap.add_argument("--fixtures", type=Path, default=HERE / "fixtures",
                    help="directory of fingerprint fixtures")
    args = ap.parse_args()

    binary = build()
    modes = [False, True] if args.trace else [False]
    runs: dict[bool, list[dict[str, Any]]] = {False: [], True: []}
    start = time.monotonic()
    while True:
        for mode in modes:
            runs[mode].append(iterate(binary, args, mode))
        elapsed = time.monotonic() - start
        done = elapsed >= args.seconds and len(runs[modes[-1]]) >= MIN_ITERATIONS
        if done or elapsed >= HARD_STOP_S:
            break

    every = runs[False] + runs[True]
    errors = sorted({e for r in every for e in r.get("errors", [])})
    fingerprints = {r.get("fingerprint") for r in every}
    if len(fingerprints) != 1:
        errors.append(f"fingerprints differ between iterations: {sorted(map(str, fingerprints))}")
    gates = sorted({str(r.get("gate")) for r in every})
    correct = not errors
    reported = [r for r in (runs[True] if args.trace else runs[False]) if "metrics" in r]
    metrics: dict[str, dict[str, Any]] = {}
    if reported:
        metrics = aggregate(reported)
        if args.trace and all("wall_s" in r for r in every):
            untraced = statistics.median(r["wall_s"] for r in runs[False])
            traced = statistics.median(r["wall_s"] for r in runs[True])
            overhead = traced / untraced - 1.0
            metrics["bench.trace_overhead_frac"] = {"value": overhead, "unit": "frac",
                                                    "min": overhead, "max": overhead}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(runs[False])} untraced + {len(runs[True])} traced")
    print(f"fingerprint {sorted(map(str, fingerprints))}  fixture gate {gates}")
    timed = [r for r in runs[False] if "raw_wall_s" in r]
    if timed:
        print(f"simulating phase as measured: median "
              f"{statistics.median(r['raw_wall_s'] for r in timed):.4g} s at host slowdown "
              f"{statistics.median(r['slowdown'] for r in timed):.3g}x")
    if args.workload == "paper_repro" and reported:
        gain = reported[0]["paper_gain_pct"]
        print(f"R-ROB16 mean-FT gain over Baseline_32 {gain:+.2f} %  "
              f"(paper +30.53 %, gap {abs(30.53 - gain):.2f} pp)")
    for e in errors:
        print(f"ERROR {e}")
    print(f"{'metric':40s} median unit (min..max)")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']} ({m.pop('min'):.6g}..{m.pop('max'):.6g})")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r.get("attempted", 1)) for r in every),
        "failed": sum(int(r.get("failed", 1)) for r in every),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
