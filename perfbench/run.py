#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare A.jsonl B.jsonl

Run from the repository root.  It builds perfbench and fdkit from
source with dune (into _build/), then runs one workload; the last line
of standard output is the JSON result.  Each run also appends a stamped
record to .perfbench/results.jsonl, which `compare` reads.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
FDKIT = os.path.join("_build", "default", "bin", "fdkit.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/perfbench.exe", "./bin/fdkit.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def run(argv):
    """Run the built program in its own process group, so a timeout also
    stops any daemon it started.  A traced run's Runtime_events ring file
    goes under .perfbench/ rather than the checkout's root."""
    os.makedirs(".perfbench", exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=".perfbench")
    p = subprocess.Popen([EXE] + argv, env=env, start_new_session=True)
    try:
        return p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a")
        ap.add_argument("b")
        ap.add_argument("--benchmark", default="BENCHMARK.json")
        a = ap.parse_args(sys.argv[2:])
        if not build():
            return 2
        return run(["compare", a.a, a.b, "--benchmark", a.benchmark])
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()
    t0 = time.monotonic()
    if not build():
        return 2
    print(f"perfbench: build {time.monotonic() - t0:.1f} s", file=sys.stderr)
    sys.stdout.flush()
    return run(["run", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", a.trace, "--fdkit", FDKIT])


if __name__ == "__main__":
    sys.exit(main())
