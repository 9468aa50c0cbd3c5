#!/usr/bin/env python3
"""Exit-code contract tests for check_bench_regression.py.

Runs the gate as a subprocess against fake bench_sim_speed executables (small
shell scripts printing canned google-benchmark JSON) and asserts the
documented contract: 0 = pass, 1 = regression, 2 = usage/format error, a
format error being one `error:` line and never a Python traceback. The real
benchmark never runs. Registered with ctest as `check_bench_regression_py`.
"""

import json
import os
import shlex
import stat
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench_regression.py")

RATES = {"BM_SingleThreadCompute": 2.0e6, "BM_FourThreadMixTwoLevel": 5.0e6}


def canned(scale=1.0, metric="sim_cycles/s", names=tuple(RATES)):
    rows = [{"name": n, "run_type": "iteration", metric: RATES.get(n, 1.0e6) * scale}
            for n in names]
    return json.dumps({"context": {}, "benchmarks": rows})


def fake_bench(tmp, name, stdout):
    """An executable that appends its name to order.log and prints `stdout`.
    A shell script, not Python: the gate starts it 240 times per run, and
    an interpreter start-up each time would multiply this test's time."""
    path = os.path.join(tmp, name)
    with open(path + ".out", "w") as f:
        f.write(stdout)
    with open(path, "w") as f:
        f.write("#!/bin/sh\n"
                f"echo {name} >> {shlex.quote(os.path.join(tmp, 'order.log'))}\n"
                f"cat {shlex.quote(path + '.out')}\n")
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return path


def run(parent, change):
    return subprocess.run([sys.executable, CHECKER, "--parent", parent, "--change", change],
                          capture_output=True, text=True)


failures = []


def check(label, ok, detail=""):
    print(f"  {label:44s} {'ok' if ok else 'FAIL'}")
    if not ok:
        failures.append(label)
        sys.stderr.write(detail)


def exits(proc, want_code, *needles):
    """(passed, detail): exit code `want_code`, no traceback, every needle in
    stdout, and for code 2 exactly one `error:` line."""
    ok = proc.returncode == want_code and "Traceback" not in proc.stderr
    if want_code == 2:
        ok = ok and proc.stderr.count("error:") == 1
    ok = ok and all(needle in proc.stdout for needle in needles)
    return ok, f"exit {proc.returncode}, wanted {want_code}\n{proc.stderr}{proc.stdout}"


def main():
    with tempfile.TemporaryDirectory() as tmp:
        fast = fake_bench(tmp, "fast", canned())
        fast2 = fake_bench(tmp, "fast2", canned())
        slow = fake_bench(tmp, "slow", canned(scale=0.6))
        not_json = fake_bench(tmp, "garbage", "this is not json {")
        no_rows = fake_bench(tmp, "norows", canned(metric="sim_insts/s"))
        other = fake_bench(tmp, "other", canned(names=("BM_Other",)))
        missing = os.path.join(tmp, "missing")

        print("check_bench_regression.py exit-code contract:")
        check("same speed -> 0", *exits(run(fast, fast2), 0, "PASS", '"ratio": 1.0'))
        with open(os.path.join(tmp, "order.log")) as f:
            order = f.read().split()
        # Parent first in odd pairs, change first in even pairs.
        check("runs alternate, parent first in odd pairs",
              len(order) >= 4 and order == ["fast", "fast2", "fast2", "fast"] * (len(order) // 4),
              " ".join(order))
        check("slowed change -> 1, names the benchmarks",
              *exits(run(fast, slow), 1, "FAIL", "BM_SingleThreadCompute",
                     "BM_FourThreadMixTwoLevel"))
        check("missing binary -> 2", *exits(run(missing, fast), 2))
        check("non-JSON output -> 2", *exits(run(fast, not_json), 2))
        check("no sim_cycles/s rows -> 2", *exits(run(no_rows, fast), 2))
        check("no benchmark common to both -> 2", *exits(run(fast, other), 2))

    if failures:
        print(f"{len(failures)} contract check(s) failed: {', '.join(failures)}")
        return 1
    print("all contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
