#!/usr/bin/env python3
"""Exit-code contract tests for validate_trace.py.

Runs the validator as a subprocess against synthetic trace/series files and
asserts the documented contract: 0 = valid, 1 = contract violation, 2 =
usage/unreadable input — and that violations produce a one-line INVALID
diagnostic, never a Python traceback. Covers the CMP extensions: counter
tracks, per-core process metadata, (pid, tid) track keying and uniqueness,
and the per-thread stall-taxonomy vector in sample series. Registered with
ctest as `validate_trace_py`.
"""

import json
import os
import subprocess
import sys
import tempfile

VALIDATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "validate_trace.py")


def meta_thread(pid, tid, name):
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def meta_process(pid, name):
    return {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": name}}


def span(pid, tid, name="second_level_grant", ts=10, dur=5):
    return {"ph": "X", "pid": pid, "tid": tid, "name": name, "ts": ts,
            "dur": dur, "args": {}}


def instant(pid, tid, name, ts=12):
    return {"ph": "i", "pid": pid, "tid": tid, "name": name, "ts": ts,
            "s": "t", "args": {}}


def counter(pid, tid, name, ts=10, value=3):
    return {"ph": "C", "pid": pid, "tid": tid, "name": name, "ts": ts,
            "args": {"value": value}}


# A miniature CMP-shaped trace: two core processes whose tid spaces overlap
# (tid 0 on both pids — legal, tracks key on (pid, tid)) plus a shared
# backend process with an MSHR counter track and a DRAM row instant.
CMP_TRACE = {"traceEvents": [
    meta_process(0, "core0"),
    meta_process(1, "core1"),
    meta_process(2, "shared backend"),
    meta_thread(0, 0, "t0 art"),
    meta_thread(1, 0, "t0 mcf"),
    meta_thread(2, 0, "llc mshr pool"),
    meta_thread(2, 1, "dram ch0 bank0"),
    span(0, 0),
    span(1, 0),
    counter(2, 0, "llc_mshr_occupancy"),
    instant(2, 1, "row_conflict"),
]}

LEGACY_TRACE = {"traceEvents": [
    meta_thread(0, 0, "t0 art"),
    span(0, 0),
]}


def sample(cycle, interval=500, stall=None, threads=1):
    th = {"rob": 1, "rob_cap": 32, "iq": 0, "lsq": 0, "dod": 0, "mlp": 0,
          "committed": 0, "ipc": 0.0,
          "stall": stall if stall is not None else [cycle, 0, 0, 0, 0, 0, 0, 0]}
    return {"cycle": cycle, "interval": interval, "owner": None, "iq_occ": 0,
            "llc_mshr": 0, "threads": [dict(th) for _ in range(threads)]}


def write(tmp, name, content):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        if isinstance(content, str):
            f.write(content)
        else:
            json.dump(content, f)
    return path


def write_series(tmp, name, samples):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        for s in samples:
            f.write(json.dumps(s) + "\n")
    return path


def run(*args):
    return subprocess.run([sys.executable, VALIDATOR, *args],
                          capture_output=True, text=True)


failures = []


def check(label, proc, want_code, want_stderr=()):
    ok = proc.returncode == want_code and "Traceback" not in proc.stderr
    for needle in want_stderr:
        if needle not in proc.stderr:
            ok = False
    status = "ok" if ok else f"FAIL (exit {proc.returncode}, wanted {want_code})"
    print(f"  {label:52s} {status}")
    if not ok:
        failures.append(label)
        sys.stderr.write(proc.stderr)
        sys.stderr.write(proc.stdout)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cmp_trace = write(tmp, "cmp.json", CMP_TRACE)
        legacy = write(tmp, "legacy.json", LEGACY_TRACE)

        dup_tid = {"traceEvents": CMP_TRACE["traceEvents"]
                   + [meta_thread(1, 0, "t0 again")]}
        dup_pid = {"traceEvents": CMP_TRACE["traceEvents"]
                   + [meta_process(1, "core1 again")]}
        cross_pid = {"traceEvents": [meta_thread(0, 0, "t0"), span(1, 0)]}
        bare_counter = {"traceEvents": [meta_thread(0, 0, "t0"),
                                        {"ph": "C", "pid": 0, "tid": 0,
                                         "name": "c", "ts": 1}]}

        good_series = write_series(tmp, "good.jsonl",
                                   [sample(0), sample(500), sample(1000)])
        gap_series = write_series(tmp, "gap.jsonl", [sample(0), sample(1500)])
        no_stall = [sample(0)]
        del no_stall[0]["threads"][0]["stall"]
        no_stall_series = write_series(tmp, "nostall.jsonl", no_stall)
        short_stall = write_series(tmp, "short.jsonl",
                                   [sample(0, stall=[1, 2, 3])])
        shrinking = write_series(
            tmp, "shrink.jsonl",
            [sample(0, stall=[500, 0, 0, 0, 0, 0, 0, 0]),
             sample(500, stall=[100, 0, 0, 0, 0, 0, 0, 0])])
        no_mshr = [sample(0)]
        del no_mshr[0]["llc_mshr"]
        no_mshr_series = write_series(tmp, "nomshr.jsonl", no_mshr)

        print("validate_trace.py exit-code contract:")
        check("CMP trace with counters/processes -> 0",
              run("--trace", cmp_trace, "--require-grants",
                  "--require-counter", "llc_mshr_occupancy"), 0)
        check("legacy single-process trace -> 0",
              run("--trace", legacy, "--require-grants"), 0)
        check("missing required counter track -> 1",
              run("--trace", cmp_trace, "--require-counter", "no_such"), 1,
              want_stderr=["no 'no_such' counter track"])
        check("duplicate (pid, tid) thread_name -> 1",
              run("--trace", write(tmp, "duptid.json", dup_tid)), 1,
              want_stderr=["named twice"])
        check("duplicate process_name pid -> 1",
              run("--trace", write(tmp, "duppid.json", dup_pid)), 1,
              want_stderr=["named twice"])
        check("tid named on one pid, used on another -> 1",
              run("--trace", write(tmp, "crosspid.json", cross_pid)), 1,
              want_stderr=["unnamed thread tracks"])
        check("counter event without args -> 1",
              run("--trace", write(tmp, "barec.json", bare_counter)), 1)
        check("series with stall taxonomy -> 0",
              run("--series", good_series, "--interval", "500"), 0)
        check("series gap -> 1",
              run("--series", gap_series), 1, want_stderr=["gap or disorder"])
        check("thread slice without stall -> 1",
              run("--series", no_stall_series), 1, want_stderr=["stall"])
        check("stall vector wrong arity -> 1",
              run("--series", short_stall), 1, want_stderr=["8 classes"])
        check("stall accounting shrinks -> 1",
              run("--series", shrinking), 1, want_stderr=["backwards"])
        check("sample without llc_mshr -> 1",
              run("--series", no_mshr_series), 1, want_stderr=["llc_mshr"])
        check("no inputs -> 2", run(), 2)
        check("missing trace file -> 2",
              run("--trace", os.path.join(tmp, "nope.json")), 2)
        check("malformed trace JSON -> 1",
              run("--trace", write(tmp, "bad.json", "{nope")), 1)

    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
