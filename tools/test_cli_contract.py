#!/usr/bin/env python3
"""Command-line contract tests for the built front ends.

Runs `simulate`, `tlrob-mktrace` and `tlrob-campaign` as subprocesses and
asserts the shared front-end contract (common/config.hpp): `--key value`
means the same as `key=value`; a typo, a malformed value or an input the
machine cannot run exits 2 with an `error:` line on stderr, never an abort;
`simulate` accepts trace workload tokens; `simulate profile=1` adds its
phase table on stderr and `trace=` its instants to `trace_json=`, neither
changing a byte of stdout. For
`tlrob-campaign` it also checks that a preset and the equivalent custom
sweep write the same records, that `--resume` re-simulates a cell whose
trace file was rewritten (and the single-thread reference it weighs by),
that a missing trace file is a structured failed record, and that `--json -`
keeps stdout to the records while the tables go to stderr. `simulate`
fails a run that hits its cycle cap. Registered with ctest as `cli_contract_py`:

    test_cli_contract.py <simulate> <tlrob-mktrace> <tlrob-campaign>
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
    if len(sys.argv) != 4:
        print(__doc__)
        return 2
    simulate, mktrace, campaign = sys.argv[1:4]
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

    def rejected(name, proc, *keys):
        check(name + " -> exit 2 with error:",
              proc.returncode == 2 and "error:" in proc.stderr,
              f"rc {proc.returncode}, stderr {proc.stderr[-200:]!r}")
        if keys:
            check(name + " names " + " and ".join(keys), all(k in proc.stderr for k in keys),
                  proc.stderr[-200:])

    rejected("scheme=bogus", run(simulate, "mix=1", "scheme=bogus", *RUN))
    rejected("insts=2k", run(simulate, "mix=1", "insts=2k"))
    rejected("mix=12", run(simulate, "mix=12", *RUN))
    rejected("mix=9x", run(simulate, "mix=9x", *RUN))
    rejected("cores=0", run(simulate, "mix=1", "cores=0", *RUN))
    rejected("cores=3 on a 4-entry list", run(simulate, "mix=1", "cores=3", *RUN))
    rejected("stats=maybe", run(simulate, "mix=1", "stats=maybe", *RUN))
    # An unknown key is reported the way it was typed.
    rejected("unknown key", run(simulate, "mix=1", "bogus=1", *RUN), "unknown option bogus")
    rejected("unknown --key", run(simulate, "mix=1", "--bogus", "1", *RUN),
             "unknown option --bogus")
    rejected("tlrob-campaign fig2 lenght=5", run(campaign, "fig2", "lenght=5", *SHORT),
             "unknown option lenght")
    rejected("dcra_sharing=1.5 (a deleted knob)", run(simulate, "mix=1", "dcra_sharing=1.5", *RUN))
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
        rejected(knob + "=0", run(simulate, "mix=1", knob + "=0", *RUN), field)
    # Also rejected: a two-level scheme with no second level, DRAM timing with
    # no DRAM model, an MSHR pool with no slot, a value too big for its field,
    # a cache or DRAM geometry the structure cannot index and a register file
    # too small for the architectural state; each error names the knob, not
    # the structure.
    for argv, setting in [(["scheme=rrob", "rob2=0"], "rob_second_level"),
                          (["dram=3"], "dram"),
                          (["mshr=0"], "memory.channel.mshr_entries"),
                          (["llc=8192:16:24:0"], "llc.mshr_entries"),
                          (["rob1=4294967328"], "rob1"),
                          (["l2_kb=18014398509481985"], "l2_kb"),
                          (["l2_kb=3"], "l2_kb"),
                          (["cores=2", "llc=64:3"], "llc.geo.ways"),
                          (["cores=2", "threads=8", "dram=3"], "dram.channels"),
                          (["cores=2", "threads=8", "dram=2:3"], "dram.banks_per_channel"),
                          (["int_regs=4"], "int_regs")]:
        rejected(" ".join(argv), run(simulate, "mix=1", *argv, *RUN), setting)

    rejected("tlrob-campaign fig2,fig99", run(campaign, "fig2,fig99", *SHORT))
    rejected("tlrob-campaign --per-job-seeds", run(campaign, "--per-job-seeds", *SHORT))

    rejected("tlrob-campaign --cores 4294967298",
             run(campaign, "--cores", "4294967298", "--schemes", "rrob", "--mixes", "1", *SHORT),
             "option cores")
    rejected("tlrob-campaign --thresholds 4294967312",
             run(campaign, "--thresholds", "4294967312", "--mixes", "1", *SHORT),
             "option thresholds")

    # A run no thread finishes is an error, not a zero-commit result.
    capped = run(simulate, "mix=1", "max_cycles=1000", "insts=3000", "warmup=500")
    check("simulate max_cycles=1000 fails with a cycle-cap error",
          capped.returncode != 0 and "error: cycle cap exceeded" in capped.stderr,
          f"rc {capped.returncode}, stderr {capped.stderr[-200:]!r}")

    profiled = run(simulate, "mix=1", "profile=1", *RUN)
    check("profile=1 leaves stdout byte-identical",
          profiled.returncode == 0 and profiled.stdout == joined.stdout,
          f"rc {profiled.returncode}, stderr {profiled.stderr[-200:]!r}")
    check("profile=1 prints the phase table on stderr",
          "samples" in profiled.stderr and "sampled" in profiled.stderr
          and "dispatch" in profiled.stderr, profiled.stderr[-300:])
    check("profile=1 reports the event-wheel overflow count and pool size",
          "events scheduled past the" in profiled.stderr
          and "pool nodes (peak pending)" in profiled.stderr, profiled.stderr[-300:])

    with tempfile.TemporaryDirectory() as tmp:
        # trace= adds per-instruction instants to the trace_json= file on
        # every core; an empty window or a missing file is an error.
        trace_json = os.path.join(tmp, "t.json")
        windowed = run(simulate, "mix=1", "cores=2", "trace=3000:4000",
                       "trace_json=" + trace_json, *RUN)
        events = json.load(open(trace_json))["traceEvents"] if windowed.returncode == 0 else []
        commits = [e for e in events if e["name"] == "commit" and e["ph"] == "i"]
        check("trace=3000:4000 records commit instants on both cores, inside the window",
              {e["pid"] for e in commits} == {0, 1}
              and all(3000 <= e["ts"] < 4000 for e in commits),
              f"rc {windowed.returncode}, {len(commits)} commits, {windowed.stderr[-200:]!r}")
        check("trace= leaves stdout byte-identical",
              windowed.stdout == run(simulate, "mix=1", "cores=2", *RUN).stdout)
        rejected("trace=500:100", run(simulate, "mix=1", "trace=500:100",
                                      "trace_json=" + trace_json, *RUN), "option trace")
        rejected("trace=500 without trace_json=", run(simulate, "mix=1", "trace=500", *RUN),
                 "option trace", "trace_json")

        one_cell = ["--schemes", "baseline32", "--mixes", "1", *SHORT]
        samples = os.path.join(tmp, "samples")
        os.mkdir(samples)
        rejected("--sample-dir without --sample-interval",
                 run(campaign, *one_cell, "--sample-dir", samples),
                 "--sample-dir", "--sample-interval")
        check("--sample-dir without --sample-interval writes nothing", not os.listdir(samples))
        rejected("--json - --csv -", run(campaign, *one_cell, "--json", "-", "--csv", "-"),
                 "--json", "--csv")

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

    # A structured sink on stdout keeps it to itself; the rendered tables go
    # to stderr.
    piped = run(campaign, "fig2", "--insts", "2000", "--warmup", "500", "--json", "-")

    def is_record(line):
        try:
            return isinstance(json.loads(line), dict)
        except ValueError:
            return False

    lines = piped.stdout.splitlines()
    check("--json - with rendering on writes one record per stdout line",
          piped.returncode == 0 and lines and all(map(is_record, lines)),
          f"rc {piped.returncode}, {len(lines)} lines, "
          f"first bad {next((l for l in lines if not is_record(l)), '')[:120]!r}")

    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
