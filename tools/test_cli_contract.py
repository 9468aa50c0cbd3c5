#!/usr/bin/env python3
"""Command-line contract tests for the built front ends.

Runs `simulate` and `tlrob-mktrace` as subprocesses and asserts the shared
front-end contract (common/config.hpp): `--key value` means the same as
`key=value`; a typo, a malformed value or an input the machine cannot run
exits 2 with an `error:` line on stderr, never an abort; `simulate`
accepts trace workload tokens; and `simulate profile=1` adds its phase
table on stderr without changing a byte of stdout. Registered with ctest as
`cli_contract_py`:

    test_cli_contract.py <simulate binary> <tlrob-mktrace binary>
"""

import os
import subprocess
import sys
import tempfile

RUN = ["insts=2000", "warmup=500"]


def run(*argv):
    return subprocess.run(list(argv), capture_output=True, text=True, timeout=300)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    simulate, mktrace = sys.argv[1], sys.argv[2]
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
    bad_env = subprocess.run([simulate, "mix=1", *RUN], capture_output=True, text=True,
                             timeout=300, env={**os.environ, "TLROB_SAMPLE": "abc"})
    rejected("$TLROB_SAMPLE=abc", bad_env)
    check("$TLROB_SAMPLE=abc names the variable", "TLROB_SAMPLE" in bad_env.stderr,
          bad_env.stderr[-200:])

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

    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
