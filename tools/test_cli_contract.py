#!/usr/bin/env python3
"""Command-line contract tests for the built front ends.

Runs `simulate`, `tlrob-mktrace` and `tlrob-campaign` as subprocesses and
asserts the shared front-end contract (common/config.hpp): `--key value`
means the same as `key=value`; a typo, a malformed value, an option with no
key or an input the machine cannot run exits 2 with an `error:` line on
stderr, never an abort; `simulate` accepts trace workload tokens; `simulate
profile=1` adds its phase table on stderr and `trace=` its instants to
`trace_json=`, neither changing a byte of stdout; fresh telemetry captures
(1 core and a 4-core CMP) pass tools/validate_trace.py. For
`tlrob-campaign` it also checks that a preset and the equivalent custom
sweep write the same records and series files, that records and series
files are byte-identical at `--jobs 4` and `--jobs 1` (CMP presets with
sampling, and gzip + raw trace files, also on a re-run), that `--resume` of
a journal cut at any point writes the uninterrupted run's records and
leaves a journal that replays every cell, that `--resume` re-simulates a
cell whose trace file was rewritten (and the single-thread reference it
weighs by), that a missing trace file is a structured failed record, and
that `--json -` keeps stdout to the records while the tables go to stderr;
so does `simulate sample_out=-`, and two `-` sinks are rejected.
`simulate` fails a run that hits its cycle cap, and prints nothing to
stdout for a machine `MachineConfig::validate()` rejects. Registered with ctest as
`cli_contract_py`:

    test_cli_contract.py <simulate> <tlrob-mktrace> <tlrob-campaign>
"""

import json
import os
import subprocess
import sys
import tempfile

RUN = ["insts=2000", "warmup=500"]
SHORT = ["--insts", "3000", "--warmup", "1000", "--no-render"]
VALIDATE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "validate_trace.py")


def run(*argv):
    return subprocess.run(list(argv), capture_output=True, text=True, timeout=300)


def slurp(path):
    """The file's bytes, or None when it does not exist."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return f.read()


def tree(directory):
    """File name -> bytes for every file in `directory`."""
    return {name: slurp(os.path.join(directory, name)) for name in sorted(os.listdir(directory))}


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

    def validated(name, *args):
        proc = run(sys.executable, VALIDATE, *args)
        check(name + " passes validate_trace.py", proc.returncode == 0,
              f"rc {proc.returncode}, {(proc.stdout + proc.stderr)[-300:]!r}")

    def series_args(directory):
        return ["--interval", "500"] + [arg for name in sorted(os.listdir(directory))
                                        for arg in ("--series", os.path.join(directory, name))]

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
    # A token with no key is quoted whole, not reported as an empty option.
    rejected("=5", run(simulate, "mix=1", "=5", *RUN), "'=5'")
    rejected("--", run(simulate, "mix=1", "--", *RUN), "'--'")
    rejected("tlrob-campaign fig2 =5", run(campaign, "fig2", "=5", *SHORT), "'=5'")
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
    # a cache or DRAM geometry the structure cannot index, a register file
    # too small for the architectural state and a predictor table that is not
    # a power of two; each error names the knob, not the structure.
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
                          (["int_regs=4"], "int_regs"),
                          (["scheme=prob", "predictor_entries=3"],
                           "rob.predictor_entries (predictor_entries)"),
                          (["audit=cheap", "audit_cheap_interval=0"], "audit.cheap_interval")]:
        proc = run(simulate, "mix=1", *argv, *RUN)
        rejected(" ".join(argv), proc, setting)
        # The machine is validated before its config is printed.
        check(" ".join(argv) + " prints nothing to stdout", proc.stdout == "", proc.stdout[:200])

    # A run that commits nothing has no IPC: insts=0 is rejected before any
    # simulation, not reported as a zero-cycle run or a failed cell.
    rejected("insts=0", run(simulate, "mix=1", "insts=0", "warmup=0"), "insts")
    rejected("tlrob-campaign --insts 0",
             run(campaign, "--schemes", "rrob", "--mixes", "1", "--insts", "0",
                 "--warmup", "0"), "insts")

    rejected("tlrob-campaign fig2,fig99", run(campaign, "fig2,fig99", *SHORT))
    rejected("tlrob-campaign --per-job-seeds", run(campaign, "--per-job-seeds", *SHORT))

    rejected("tlrob-campaign --cores 4294967298",
             run(campaign, "--cores", "4294967298", "--schemes", "rrob", "--mixes", "1", *SHORT),
             "option cores")
    rejected("tlrob-campaign --jobs 4294967296",
             run(campaign, "--jobs", "4294967296", "--schemes", "rrob", "--mixes", "1", *SHORT),
             "option jobs")
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

        # Fresh captures meet every contract validate_trace.py checks: named
        # tracks, grant spans and a gap-free sample grid (the fast-forward
        # replay contract); a CMP trace also carries the shared backend's
        # counter tracks.
        series = os.path.join(tmp, "series.jsonl")
        captured = run(simulate, "mix=2", "scheme=rrob", "insts=20000", "warmup=5000",
                       "sample=500", "trace=20000:21000", "trace_json=" + trace_json,
                       "sample_out=" + series)
        check("a 1-core capture exits 0 with commit instants",
              captured.returncode == 0 and b'"name":"commit"' in (slurp(trace_json) or b""),
              captured.stderr[-200:])
        validated("a 1-core capture", "--trace", trace_json, "--require-grants",
                  "--series", series, "--interval", "500")
        captured = run(simulate, "mix=2", "cores=4", "threads=16", "scheme=rrob", "insts=8000",
                       "warmup=2000", "sample=500", "trace_json=" + trace_json,
                       "sample_out=" + series)
        check("a 4-core capture exits 0", captured.returncode == 0, captured.stderr[-200:])
        validated("a 4-core capture", "--trace", trace_json, "--require-grants",
                  "--require-counter", "llc_mshr_occupancy", "--series", series,
                  "--interval", "500")

        one_cell = ["--schemes", "baseline32", "--mixes", "1", *SHORT]
        samples = os.path.join(tmp, "samples")
        os.mkdir(samples)
        rejected("--sample-dir without --sample-interval",
                 run(campaign, *one_cell, "--sample-dir", samples),
                 "--sample-dir", "--sample-interval")
        check("--sample-dir without --sample-interval writes nothing", not os.listdir(samples))
        # Records and series have one writer each, the JSONL one.
        table = os.path.join(tmp, "x.csv")
        rejected("tlrob-campaign fig2 --csv", run(campaign, "fig2", *SHORT, "--csv", table),
                 "--csv")
        rejected("simulate sample_csv=", run(simulate, "mix=1", "sample_csv=" + table, *RUN),
                 "sample_csv")
        check("a rejected --csv / sample_csv= writes nothing", not os.path.exists(table))

        out = os.path.join(tmp, "art.trace")
        rejected("tlrob-mktrace --sed 7",
                 run(mktrace, "--profile", "art", "--records", "100", "--out", out, "--sed", "7"))
        check("tlrob-mktrace --sed 7 writes nothing", not os.path.exists(out))
        made = run(mktrace, "--profile", "art", "--records", "100", "--out", out, "--seed", "7")
        check("tlrob-mktrace --seed 7 writes the trace",
              made.returncode == 0 and os.path.getsize(out) == 100 * 64, made.stderr[-200:])

        # A preset is a campaign cell list like any custom sweep: fig2 on
        # one mix and the same three columns by hand write the same records,
        # and with sampling the same series files.
        a, b = os.path.join(tmp, "preset"), os.path.join(tmp, "custom")
        for sampled in (False, True):
            label = " with --sample-interval 500 --sample-dir" if sampled else ""
            sampling_a, sampling_b = [], []
            if sampled:
                os.mkdir(a)
                os.mkdir(b)
                sampling_a = ["--sample-interval", "500", "--sample-dir", a]
                sampling_b = ["--sample-interval", "500", "--sample-dir", b]
            preset = run(campaign, "fig2", "--workload", "mix:1", *SHORT, *sampling_a,
                         "--json", a + ".jsonl")
            custom = run(campaign, "--schemes", "baseline32,baseline128,rrob",
                         "--thresholds", "16", "--mixes", "1", "--name", "fig2", *SHORT,
                         *sampling_b, "--json", b + ".jsonl")
            same = (preset.returncode == 0 and custom.returncode == 0
                    and slurp(a + ".jsonl") == slurp(b + ".jsonl"))
            check("fig2 --workload mix:1 == the custom sweep" + label, same,
                  f"rc {preset.returncode}/{custom.returncode}, {custom.stderr[-200:]!r}")
        check("fig2 --workload mix:1 and the custom sweep write the same 3 series files",
              len(tree(a)) == 3 and tree(a) == tree(b), f"{sorted(tree(a))} / {sorted(tree(b))}")
        check("a sampled record carries obs.samples", b'"obs.samples"' in slurp(a + ".jsonl"))
        validated("fig2's series", *series_args(a))

        # Sampling on CMP presets keeps the --jobs contract: the records and
        # every series file match at 4 workers and at 1.
        sampled_runs = []
        for jobs in ("4", "1"):
            d = os.path.join(tmp, "cmp_jobs" + jobs)
            os.mkdir(d)
            proc = run(campaign, "cmp_mix,cmp_trace", *SHORT, "--jobs", jobs,
                       "--sample-interval", "500", "--sample-dir", d, "--json", d + ".jsonl")
            sampled_runs.append((proc.returncode, slurp(d + ".jsonl"), tree(d)))
        (rc4, records, files), (rc1, _, files1) = sampled_runs
        check("cmp_mix,cmp_trace with sampling: --jobs 4 == --jobs 1, records and series files",
              rc4 == 0 and files and sampled_runs[0] == sampled_runs[1],
              f"rc {rc4}/{rc1}, differing files "
              f"{[n for n in files.keys() | files1.keys() if files.get(n) != files1.get(n)]}")
        check("cmp_mix,cmp_trace with sampling writes one series file per cell (8)",
              len(files) == 8, f"{sorted(files)}")
        keys = [b'"obs.cmp.cores"', b'"obs.cmp.stall_dram_cycles"', b'"obs.cmp.llc_mshr_p90"',
                b'"stall.t0.mem_llc_cycles"', b'"stall.t3.commit_cycles"']
        check("cmp_mix,cmp_trace records carry the obs.cmp.* and stall.t* keys",
              all(k in (records or b"") for k in keys),
              f"missing {[k for k in keys if k not in (records or b'')]}")
        validated("cmp_mix,cmp_trace's series", *series_args(os.path.join(tmp, "cmp_jobs4")))

        # Trace files through the CLI: a gzip trace (when built with zlib), a
        # raw trace, a generated one and a SPEC profile write the same
        # records at any --jobs and on a re-run, with the trace.* counters.
        gzip = "unavailable" not in run(mktrace, "--help").stdout
        art = os.path.join(tmp, "art.champsim" + (".gz" if gzip else ""))
        mcf = os.path.join(tmp, "mcf.trace")
        made = [run(mktrace, "--profile", "art", "--records", "20000", "--seed", "3", "--out", art),
                run(mktrace, "--profile", "mcf", "--records", "20000", "--seed", "5", "--out", mcf)]
        check("tlrob-mktrace writes a gzip and a raw trace" if gzip else
              "tlrob-mktrace writes two raw traces (built without zlib)",
              all(p.returncode == 0 for p in made) and ("(gzip)" in made[0].stderr) == gzip,
              " ".join(p.stdout + p.stderr for p in made)[-200:])
        mixed = ["--workload", f"trace:{art},trace:{mcf},tracegen:mgrid@20000@7,crafty",
                 "--schemes", "baseline32,rrob", "--thresholds", "16", *SHORT]
        trace_runs = []
        for jobs in ("4", "1", "4"):
            out = os.path.join(tmp, "traces.jsonl")
            proc = run(campaign, *mixed, "--jobs", jobs, "--json", out)
            trace_runs.append((proc.returncode, slurp(out)))
        rc, records = trace_runs[0]
        check("a trace-file campaign: --jobs 4 == --jobs 1 == a re-run",
              rc == 0 and records and trace_runs.count(trace_runs[0]) == 3,
              f"rc {[r for r, _ in trace_runs]}")
        check("trace-file records carry the trace.* counters",
              b'"trace.records_decoded"' in (records or b"")
              and b'"trace.t0.content_hash"' in (records or b""))
        # The decoder reads back every record tlrob-mktrace wrote: each
        # thread's content hash is the one tlrob-mktrace printed.
        written = [p.stderr.rsplit("content hash ", 1)[-1].strip() for p in made]
        counters = json.loads(records.splitlines()[0])["counters"] if rc == 0 else {}
        read_back = [f"{counters.get(f'trace.t{t}.content_hash', 0):016x}" for t in (0, 1)]
        check("trace-file records hash the records tlrob-mktrace wrote",
              read_back == written, f"{read_back} / {written}")

        # A journal cut by a crash at any point resumes to the uninterrupted
        # run's records, and leaves a journal that replays every cell.
        sweep = ["--schemes", "baseline32,rrob", "--thresholds", "16", "--mixes", "1,5",
                 "--insts", "4000", "--warmup", "1000", "--no-render"]
        journal, whole = os.path.join(tmp, "journal.jsonl"), os.path.join(tmp, "whole.jsonl")
        full = run(campaign, *sweep, "--jobs", "1", "--manifest", journal, "--json", whole)
        lines = (slurp(journal) or b"").splitlines(keepends=True)
        shape = [b'"config":"single-thread"' in line for line in lines]
        check("the uninterrupted run journals 6 references, then 4 cells",
              full.returncode == 0 and shape == [True] * 6 + [False] * 4,
              f"rc {full.returncode}, {shape}")
        if shape == [True] * 6 + [False] * 4:
            cuts = {"empty": b"",
                    "after the references": b"".join(lines[:6]),
                    "mid-line in a cell": b"".join(lines[:7]) + lines[7][:100],
                    "before the last line": b"".join(lines[:-1])}
            for name, cut in cuts.items():
                with open(journal, "wb") as f:
                    f.write(cut)
                out = os.path.join(tmp, "resumed.jsonl")
                resumed = run(campaign, *sweep, "--jobs", "4", "--manifest", journal,
                              "--resume", "--json", out)
                check(f"--resume of a journal cut {name} writes the uninterrupted records",
                      resumed.returncode == 0 and slurp(out) == slurp(whole),
                      resumed.stderr[-200:])
                replay = run(campaign, *sweep, "--jobs", "4", "--manifest", journal,
                             "--resume", "--json", out)
                check(f"a second --resume of the journal cut {name} replays every cell",
                      "4 resumed" in replay.stderr and slurp(out) == slurp(whole),
                      replay.stderr[-200:])

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

    # So does a `simulate` sink; two sinks on stdout are rejected up front.
    series = run(simulate, "mix=1", "sample=500", "sample_out=-", *RUN)
    lines = series.stdout.splitlines()
    check("simulate sample_out=- writes one sample per stdout line",
          series.returncode == 0 and lines and all(map(is_record, lines)), series.stdout[:200])
    both = run(simulate, "mix=1", "sample_out=-", "trace_json=-", *RUN)
    rejected("simulate sample_out=- trace_json=-", both, "sample_out", "trace_json")
    check("simulate sample_out=- trace_json=- prints nothing to stdout", both.stdout == "")

    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
