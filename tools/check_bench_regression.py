#!/usr/bin/env python3
"""Fail when a change makes the simulator slower than its parent.

Usage:
    python3 tools/check_bench_regression.py \
        --parent build-parent/bench/bench_sim_speed \
        --change build/bench/bench_sim_speed

Both arguments are bench_sim_speed binaries built alike (Release). The gate
runs them in alternation on one host for PAIRS pairs, the parent first in
odd pairs and the change first in even pairs. For each benchmark it takes
the change/parent ratio of sim_cycles/s within each pair and fails when the
median of those ratios is below FLOOR. The two runs of a pair are under a
second apart, so a slowdown of the host that lasts longer lands on both.

It prints one BENCH_sim_speed.json history entry (both sides' medians, the
ratios and the host) for a person to append; it writes no file.

Exit status: 0 = no regression, 1 = regression, 2 = usage or format error.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

# BM_AuditOverhead/Cheap is the audited path: every CI test run arms the
# cheap tier.
FILTER = (
    "BM_FourThreadMixTwoLevel|BM_SingleThread|BM_CacheHierarchyStress"
    "|BM_TraceFrontendDecode|BM_CmpFourCoreMix|BM_EventWheel|BM_AuditOverhead/Cheap"
)
MIN_TIME_S = 0.02  # per benchmark per run; a bare number of seconds
PAIRS = 120
METRIC = "sim_cycles/s"
# Lowest passing median of the per-pair change/parent ratios. On a shared
# 4-thread x86-64 host, one Release build against itself read 0.981-1.038
# over 12 gate runs (every benchmark); a copy whose SmtCore::tick was made
# at least 25 % slower read 0.63-0.79 on every benchmark that ticks. The
# floor sits nearer the slow side to leave room for code-layout shifts
# between builds.
FLOOR = 0.88


class GateError(Exception):
    """Bad input: a binary that does not run or does not report METRIC."""


def run_bench(binary: str) -> dict[str, float]:
    """One run of `binary`: benchmark name -> sim_cycles/s."""
    cmd = [
        binary,
        f"--benchmark_filter={FILTER}",
        f"--benchmark_min_time={MIN_TIME_S}",
        "--benchmark_format=json",
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    except OSError as e:
        raise GateError(f"cannot run {binary}: {e.strerror or e}") from e
    if proc.returncode != 0:
        raise GateError(f"{binary} exited {proc.returncode}")
    try:
        data = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        raise GateError(f"{binary} did not print JSON: {e}") from e
    rows = data.get("benchmarks") if isinstance(data, dict) else None
    values = {
        str(row["name"]): float(row[METRIC])
        for row in (rows if isinstance(rows, list) else [])
        if isinstance(row, dict) and "name" in row and isinstance(row.get(METRIC), (int, float))
    }
    if not values:
        raise GateError(f"{binary} reported no {METRIC} rows")
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", required=True, help="the parent's bench_sim_speed")
    ap.add_argument("--change", required=True, help="the change's bench_sim_speed")
    args = ap.parse_args()

    runs: list[tuple[dict[str, float], dict[str, float]]] = []
    try:
        for pair in range(1, PAIRS + 1):
            if pair % 2:
                parent = run_bench(args.parent)
                change = run_bench(args.change)
            else:
                change = run_bench(args.change)
                parent = run_bench(args.parent)
            runs.append((parent, change))
    except GateError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    common = sorted(runs[0][0].keys() & runs[0][1].keys())
    if not common:
        print("error: no benchmark is common to both sides", file=sys.stderr)
        return 2

    benchmarks: dict[str, dict[str, float]] = {}
    slow: list[str] = []
    print(f"{PAIRS} alternated pairs of {METRIC}: parent and change medians, "
          f"median change/parent ratio (floor {FLOOR:g})")
    for name in common:
        paired = [(p[name], c[name]) for p, c in runs if name in p and name in c]
        parent_median = statistics.median(p for p, _ in paired)
        change_median = statistics.median(c for _, c in paired)
        ratio = statistics.median(c / p for p, c in paired)
        benchmarks[name] = {
            "parent": round(parent_median),
            "change": round(change_median),
            "ratio": round(ratio, 4),
        }
        if ratio < FLOOR:
            slow.append(name)
        print(f"  {name:28s} {parent_median:11.4e} {change_median:11.4e}  x{ratio:.3f} "
              f"{'ok' if ratio >= FLOOR else 'REGRESSION'}")

    entry = {
        "label": "<the change>",
        "date": datetime.date.today().isoformat(),
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "cpu_model": cpu_model(),
        },
        "benchmarks": benchmarks,
    }
    print("history entry for BENCH_sim_speed.json:")
    print(json.dumps(entry, indent=1))

    if slow:
        print(f"FAIL: change/parent below {FLOOR:g} for {', '.join(slow)}")
        return 1
    print("PASS: no benchmark slower than the parent past the floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
