#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The program and the simulator
library are built with CMake (RelWithDebInfo) into $CARGO_TARGET_DIR
(default .bench_build) under the checkout; later runs rebuild only what
changed. The program's standard output is relayed unchanged: its last line
is the JSON result. With --trace 1 a bounded sample of spans is written to
<build dir>/spans/<workload>-seed<n>.jsonl.

Extra option: --pad <fraction> busy-waits that share of every measured
slice (the sensitivity self-test's injected slowdown).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fattree_tp1", "twolink_rate", "churn_outage")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--pad", type=float, default=0.0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under " + os.path.join(ROOT, "src"))
    bdir = os.path.join(build_root(), "perfbench")
    build(bdir)

    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--pad", repr(args.pad)]
    if args.trace == "1":
        spans = os.path.join(build_root(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # The benchmark measures the default configuration: no MPSIM_* knobs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPSIM_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        fail("perfbench printed no result (exit code %d)" % proc.returncode)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
