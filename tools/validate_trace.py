#!/usr/bin/env python3
"""Validate the telemetry artifacts the simulator exports (cli_contract_py).

Checks a Chrome trace-event JSON file (simulate trace_json=)
and/or an interval-sample JSONL series (sample_out= / --sample-dir) for the
contracts DESIGN.md §9 documents:

  trace:  parses as JSON; non-empty traceEvents; every event carries the
          fields its phase requires (X -> ts+dur, i -> ts+scope, C -> value
          args, M -> thread_name/process_name metadata); every referenced
          (pid, tid) track has a thread_name; metadata names each track and
          process at most once (a CMP trace is one process per core plus a
          shared-backend process, and merged writers must not collide);
          with --require-grants, at least one second_level_grant duration
          span exists; with --require-counter NAME, at least one 'C' event
          with that name exists (e.g. llc_mshr_occupancy from the shared
          backend).
  series: every line parses; labels sit on the interval grid, strictly
          increase, and have no gaps (sample count == span/interval + 1 —
          the fast-forward replay contract); every sample carries the same
          number of per-thread slices with the expected keys, including the
          per-class "stall" taxonomy vector (cumulative, so monotonically
          non-decreasing across samples).

Exit status: 0 = valid, 1 = contract violation, 2 = usage/unreadable input.

Usage:
    python3 tools/validate_trace.py --trace trace.json --require-grants
    python3 tools/validate_trace.py --trace cmp.json \
        --require-counter llc_mshr_occupancy
    python3 tools/validate_trace.py --series series.jsonl --interval 500
"""

import argparse
import json
import sys
from typing import Any, NoReturn

THREAD_SAMPLE_KEYS = {
    "rob", "rob_cap", "iq", "lsq", "dod", "mlp", "committed", "ipc", "stall",
}

SERIES_SAMPLE_KEYS = ("cycle", "interval", "owner", "iq_occ", "llc_mshr", "threads")

STALL_CLASS_COUNT = 8


def usage_error(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def fail(msg: str) -> NoReturn:
    print(f"INVALID: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path: str, what: str) -> Any:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        usage_error(f"cannot read {what} {path}: {e.strerror or e}")
    except json.JSONDecodeError as e:
        fail(f"{what} {path} is not valid JSON: {e}")


def validate_trace(path: str, require_grants: bool,
                   require_counters: list[str]) -> None:
    doc = load_json(path, "trace file")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: no traceEvents key")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents is empty")

    named_tracks: set[tuple[int, int]] = set()
    named_pids: set[int] = set()
    used_tracks: set[tuple[int, int]] = set()
    counter_names: set[str] = set()
    counts: dict[str, int] = {}
    for i, e in enumerate(events):
        for key in ("ph", "pid", "name"):
            if key not in e:
                fail(f"{path}: event {i} lacks '{key}': {e}")
        ph = e["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "M":
            if e["name"] == "process_name":
                if "name" not in e.get("args", {}):
                    fail(f"{path}: malformed process_name metadata: {e}")
                if e["pid"] in named_pids:
                    fail(f"{path}: process pid {e['pid']} named twice "
                         "(merged writers must carry distinct pids)")
                named_pids.add(e["pid"])
                continue
            if e["name"] != "thread_name" or "name" not in e.get("args", {}):
                fail(f"{path}: malformed metadata (expected thread_name or "
                     f"process_name): {e}")
            if "tid" not in e:
                fail(f"{path}: thread_name metadata lacks 'tid': {e}")
            track = (e["pid"], e["tid"])
            if track in named_tracks:
                fail(f"{path}: track pid={track[0]} tid={track[1]} named twice "
                     "(per-core tid spaces must not collide)")
            named_tracks.add(track)
            continue
        if "tid" not in e:
            fail(f"{path}: event {i} ({e['name']}) lacks 'tid'")
        used_tracks.add((e["pid"], e["tid"]))
        if "ts" not in e:
            fail(f"{path}: event {i} ({e['name']}) lacks 'ts'")
        if ph == "X" and "dur" not in e:
            fail(f"{path}: complete event {i} ({e['name']}) lacks 'dur'")
        if ph == "i" and "s" not in e:
            fail(f"{path}: instant event {i} ({e['name']}) lacks scope 's'")
        if ph == "C":
            if not e.get("args"):
                fail(f"{path}: counter event {i} ({e['name']}) lacks args")
            counter_names.add(e["name"])

    unnamed = used_tracks - named_tracks
    if unnamed:
        fail(f"{path}: events on unnamed thread tracks: {sorted(unnamed)}")
    for name in require_counters:
        if name not in counter_names:
            fail(f"{path}: no '{name}' counter track "
                 f"(found: {sorted(counter_names)})")
    grants = sum(1 for e in events if e["ph"] == "X" and e["name"] == "second_level_grant")
    if require_grants and grants == 0:
        fail(f"{path}: no second_level_grant duration spans "
             "(expected from a two-level run)")
    by_ph = ", ".join(f"{ph}:{n}" for ph, n in sorted(counts.items()))
    print(f"trace ok: {path}: {len(events)} events ({by_ph}), "
          f"{len(named_tracks)} named tracks, {len(named_pids)} processes, "
          f"{grants} grant spans")


def validate_series(path: str, interval: int) -> None:
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln]
    except OSError as e:
        usage_error(f"cannot read series file {path}: {e.strerror or e}")
    if not lines:
        fail(f"{path}: series is empty")

    prev_cycle: int | None = None
    num_threads: int | None = None
    prev_stall: list[int] = []
    step = 0
    for i, line in enumerate(lines):
        try:
            s = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i + 1}: not valid JSON: {e}")
        for key in SERIES_SAMPLE_KEYS:
            if key not in s:
                fail(f"{path}:{i + 1}: sample lacks '{key}'")
        if interval and s["interval"] != interval:
            fail(f"{path}:{i + 1}: interval {s['interval']} != expected {interval}")
        step = s["interval"]
        if step <= 0 or s["cycle"] % step != 0:
            fail(f"{path}:{i + 1}: label {s['cycle']} off the {step}-cycle grid")
        if prev_cycle is not None and s["cycle"] != prev_cycle + step:
            fail(f"{path}:{i + 1}: gap or disorder: {prev_cycle} -> {s['cycle']} "
                 "(fast-forward replay must leave no holes)")
        prev_cycle = s["cycle"]
        if not s["threads"]:
            fail(f"{path}:{i + 1}: no per-thread slices")
        if num_threads is None:
            num_threads = len(s["threads"])
            prev_stall = [0] * num_threads
        elif len(s["threads"]) != num_threads:
            fail(f"{path}:{i + 1}: thread count changed mid-series")
        for t, th in enumerate(s["threads"]):
            missing = THREAD_SAMPLE_KEYS - th.keys()
            if missing:
                fail(f"{path}:{i + 1}: thread {t} lacks {sorted(missing)}")
            stall = th["stall"]
            if not isinstance(stall, list) or len(stall) != STALL_CLASS_COUNT:
                fail(f"{path}:{i + 1}: thread {t} stall vector is not "
                     f"{STALL_CLASS_COUNT} classes: {stall}")
            total = sum(stall)
            if total < prev_stall[t]:
                fail(f"{path}:{i + 1}: thread {t} stall accounting went "
                     f"backwards ({prev_stall[t]} -> {total}); the taxonomy "
                     "is cumulative within the measurement window")
            prev_stall[t] = total

    print(f"series ok: {path}: {len(lines)} samples x {num_threads} threads, "
          f"contiguous on the {step}-cycle grid")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace-event JSON to validate")
    ap.add_argument("--series", action="append", default=[],
                    help="interval-sample JSONL to validate (repeatable)")
    ap.add_argument("--interval", type=int, default=0,
                    help="expected sampling interval for --series files")
    ap.add_argument("--require-grants", action="store_true",
                    help="fail unless the trace has second_level_grant spans")
    ap.add_argument("--require-counter", action="append", default=[],
                    metavar="NAME",
                    help="fail unless the trace has a 'C' track NAME "
                         "(repeatable)")
    args = ap.parse_args()
    if not args.trace and not args.series:
        usage_error("nothing to validate (pass --trace and/or --series)")

    if args.trace:
        validate_trace(args.trace, args.require_grants, args.require_counter)
    for path in args.series:
        validate_series(path, args.interval)
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
