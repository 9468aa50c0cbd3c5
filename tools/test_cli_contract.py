#!/usr/bin/env python3
"""Command-line contract tests for the built front ends.

Runs `simulate`, `tlrob-mktrace`, `tlrob-campaign` and `tlrob-golden` as
subprocesses and asserts the shared front-end contract (common/config.hpp):
`--key value` means the same as `key=value`; a typo, a malformed value or an
input the machine cannot run exits 2 with an `error:` line on stderr, never
an abort; `simulate` accepts trace workload tokens; and `simulate profile=1`
adds its phase table on stderr without changing a byte of stdout. For
`tlrob-campaign` it also checks that a preset and the equivalent custom
sweep write the same records, that `--resume` re-simulates a cell whose
trace file was rewritten (and the single-thread reference it weighs by),
and that a missing trace file is a structured failed record. `simulate`
fails a run that hits its cycle cap. Registered with ctest as `cli_contract_py`:

    test_cli_contract.py <simulate> <tlrob-mktrace> <tlrob-campaign> <tlrob-golden>
"""

import json
import os
import subprocess
import sys
import tempfile

RUN = ["insts=2000", "warmup=500"]
SHORT = ["--insts", "3000", "--warmup", "1000", "--no-render"]


def run(*argv):
    return subprocess.run(list(argv), capture_output=True, text=True, timeout=300)


def main():
    if len(sys.argv) != 5:
        print(__doc__)
        return 2
    simulate, mktrace, campaign, golden = sys.argv[1:5]
    failures = []

    def check(name, ok, detail=""):
        print(("ok   " if ok else "FAIL ") + name + ("" if ok else f": {detail}"))
        if not ok:
            failures.append(name)

    spaced = run(simulate, "mix=1", "--insts", "2000", "--warmup", "500")
    joined = run(simulate, "mix=1", *RUN)
    check("--insts 2000 --warmup 500 == insts=2000 warmup=500",
          spaced.returncode == 0 and joined.returncode == 0 and spaced.stdout == joined.stdout,
          f"rc {spaced.returncode}/{joined.returncode}")
    check("the run commits 2000 instructions", "2000 insts after 500 warmup" in joined.stdout,
          joined.stdout[:200])

    traced = run(simulate, "tracegen:art@500@11", "tracegen:mcf@500@13", "cores=2", *RUN)
    check("simulate runs tracegen tokens split over cores",
          traced.returncode == 0 and "tracegen:mcf@500@13" in traced.stdout,
          traced.stderr[-300:])

    def rejected(name, proc):
        check(name + " -> exit 2 with error:",
              proc.returncode == 2 and "error:" in proc.stderr,
              f"rc {proc.returncode}, stderr {proc.stderr[-200:]!r}")

    rejected("scheme=bogus", run(simulate, "mix=1", "scheme=bogus", *RUN))
    rejected("insts=2k", run(simulate, "mix=1", "insts=2k"))
    rejected("mix=12", run(simulate, "mix=12", *RUN))
    rejected("mix=9x", run(simulate, "mix=9x", *RUN))
    rejected("cores=0", run(simulate, "mix=1", "cores=0", *RUN))
    rejected("cores=3 on a 4-entry list", run(simulate, "mix=1", "cores=3", *RUN))
    rejected("stats=maybe", run(simulate, "mix=1", "stats=maybe", *RUN))
    rejected("unknown key", run(simulate, "mix=1", "bogus=1", *RUN))
    rejected("unknown workload", run(simulate, "nosuch", *RUN))
    rejected("llc=0", run(simulate, "mix=1", "llc=0", *RUN))
    rejected("l1d_kb=0", run(simulate, "mix=1", "l1d_kb=0", *RUN))
    rejected("llc=+64", run(simulate, "mix=1", "llc=+64", *RUN))
    rejected("llc=' 64'", run(simulate, "mix=1", "llc= 64", *RUN))
    rejected("dram=-2", run(simulate, "mix=1", "dram=-2", *RUN))
    # Zero widths and capacities never commit: MachineConfig::validate()
    # rejects them, naming the field, instead of spinning to the cycle cap.
    # A zero re-check interval leaves the reactive schemes' grid no step.
    for knob, field in [("rob1", "rob_first_level"), ("commit_width", "commit_width"),
                        ("fetch_width", "fetch_width"), ("dispatch_width", "dispatch_width"),
                        ("issue_width", "issue_width"), ("iq", "iq_entries"),
                        ("lsq", "lsq_entries"), ("frontend_buffer", "frontend_buffer"),
                        ("fetch_threads", "fetch_threads"), ("recheck", "recheck_interval")]:
        zero = run(simulate, "mix=1", knob + "=0", *RUN)
        rejected(knob + "=0", zero)
        check(knob + "=0 names " + field, field in zero.stderr, zero.stderr[-200:])
    # Also rejected: a two-level scheme with no second level, DRAM timing with
    # no DRAM model, an MSHR pool with no slot, a value too big for its field,
    # a cache geometry the cache cannot index and a register file too small
    # for the architectural state; each error names the knob, not the
    # structure.
    for argv, setting in [(["scheme=rrob", "rob2=0"], "rob_second_level"),
                          (["dram=3"], "dram"),
                          (["mshr=0"], "memory.channel.mshr_entries"),
                          (["llc=8192:16:24:0"], "llc.mshr_entries"),
                          (["rob1=4294967328"], "rob1"),
                          (["l2_kb=18014398509481985"], "l2_kb"),
                          (["l2_kb=3"], "l2_kb"),
                          (["cores=2", "llc=64:3"], "llc.geo.ways"),
                          (["int_regs=4"], "int_regs")]:
        idle = run(simulate, "mix=1", *argv, *RUN)
        rejected(" ".join(argv), idle)
        check(" ".join(argv) + " names " + setting, setting in idle.stderr, idle.stderr[-200:])

    cores = run(campaign, "--cores", "4294967298", "--schemes", "rrob", "--mixes", "1", *SHORT)
    rejected("tlrob-campaign --cores 4294967298", cores)
    check("--cores 4294967298 names cores", "option cores" in cores.stderr, cores.stderr[-200:])

    thresholds = run(campaign, "--thresholds", "4294967312", "--mixes", "1", *SHORT)
    rejected("tlrob-campaign --thresholds 4294967312", thresholds)
    check("--thresholds 4294967312 names thresholds", "option thresholds" in thresholds.stderr,
          thresholds.stderr[-200:])

    # A run no thread finishes is an error, not a zero-commit result.
    capped = run(simulate, "mix=1", "max_cycles=1000", "insts=3000", "warmup=500")
    check("simulate max_cycles=1000 fails with a cycle-cap error",
          capped.returncode != 0 and "error: cycle cap exceeded" in capped.stderr,
          f"rc {capped.returncode}, stderr {capped.stderr[-200:]!r}")

    rejected("tlrob-golden --bogus", run(golden, "--bogus"))
    rejected("tlrob-golden --preset fig99", run(golden, "--preset", "fig99"))

    profiled = run(simulate, "mix=1", "profile=1", *RUN)
    check("profile=1 leaves stdout byte-identical",
          profiled.returncode == 0 and profiled.stdout == joined.stdout,
          f"rc {profiled.returncode}, stderr {profiled.stderr[-200:]!r}")
    check("profile=1 prints the phase table on stderr",
          "samples" in profiled.stderr and "sampled" in profiled.stderr
          and "dispatch" in profiled.stderr, profiled.stderr[-300:])
    check("profile=1 reports the event-wheel overflow count",
          "events scheduled past the" in profiled.stderr, profiled.stderr[-300:])

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "art.trace")
        rejected("tlrob-mktrace --sed 7",
                 run(mktrace, "--profile", "art", "--records", "100", "--out", out, "--sed", "7"))
        check("tlrob-mktrace --sed 7 writes nothing", not os.path.exists(out))
        made = run(mktrace, "--profile", "art", "--records", "100", "--out", out, "--seed", "7")
        check("tlrob-mktrace --seed 7 writes the trace",
              made.returncode == 0 and os.path.getsize(out) == 100 * 64, made.stderr[-200:])

        # A preset is a campaign cell list like any custom sweep: fig2 on
        # one mix and the same three columns by hand write the same records,
        # with and without sampling.
        for sampling in ([], ["--sample-interval", "500"]):
            label = " with --sample-interval 500" if sampling else ""
            a, b = os.path.join(tmp, "preset.jsonl"), os.path.join(tmp, "custom.jsonl")
            preset = run(campaign, "fig2", "--workload", "mix:1", *SHORT, *sampling,
                         "--json", a)
            custom = run(campaign, "--schemes", "baseline32,baseline128,rrob",
                         "--thresholds", "16", "--mixes", "1", "--name", "fig2", *SHORT,
                         *sampling, "--json", b)
            same = (preset.returncode == 0 and custom.returncode == 0
                    and open(a).read() == open(b).read())
            check("fig2 --workload mix:1 == the custom sweep" + label, same,
                  f"rc {preset.returncode}/{custom.returncode}, {custom.stderr[-200:]!r}")

        # --resume keys a trace: cell on the file's content, not its name; so
        # does the single-thread reference cell the record weighs by.
        trace = os.path.join(tmp, "f.trace")
        manifest = os.path.join(tmp, "m.jsonl")
        cell = ["--workload", "trace:" + trace + ",crafty", "--schemes", "baseline32",
                *SHORT, "--manifest", manifest]
        run(mktrace, "--profile", "art", "--records", "3000", "--seed", "3", "--out", trace)
        first = run(campaign, *cell, "--json", os.path.join(tmp, "a.jsonl"))
        run(mktrace, "--profile", "mcf", "--records", "3000", "--seed", "5", "--out", trace)
        second = run(campaign, *cell, "--resume", "--json", os.path.join(tmp, "b.jsonl"))
        def first_record(name):
            with open(os.path.join(tmp, name)) as f:
                return json.loads(f.readline())
        a, b = first_record("a.jsonl"), first_record("b.jsonl")
        check("--resume after a trace rewrite re-simulates the cell",
              first.returncode == 0 and second.returncode == 0
              and "0 resumed" in second.stderr
              and a["counters"]["trace.t0.content_hash"]
              != b["counters"]["trace.t0.content_hash"],
              f"rc {first.returncode}/{second.returncode}, {second.stderr[-200:]!r}")
        check("--resume after a trace rewrite re-simulates its reference",
              a["st_ipc"][0] != b["st_ipc"][0], f"st_ipc {a['st_ipc']} / {b['st_ipc']}")
        again = run(campaign, *cell, "--resume", "--json", os.path.join(tmp, "c.jsonl"))
        check("--resume of the unchanged trace replays the cell",
              again.returncode == 0 and "1 resumed" in again.stderr
              and open(os.path.join(tmp, "b.jsonl")).read()
              == open(os.path.join(tmp, "c.jsonl")).read(), again.stderr[-200:])

        def failed_record(name, needle, *argv):
            bad = os.path.join(tmp, "bad.jsonl")
            proc = run(campaign, *argv, *SHORT, "--json", bad)
            record = open(bad).read() if os.path.exists(bad) else ""
            check(name, proc.returncode == 1 and '"status":"failed"' in record
                  and needle in record, f"rc {proc.returncode}, {record[:200]!r}")

        failed_record("a missing trace file is a failed record", "cannot open trace file",
                      "--workload", "trace:does_not_exist.gz,crafty", "--schemes", "baseline32",
                      "--manifest", manifest, "--resume")
        failed_record("a zero LLC MSHR pool is a failed record", "llc.mshr_entries", "--cores",
                      "2", "--llc", "8192:16:24:0", "--schemes", "rrob", "--mixes", "1")

    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
