#!/usr/bin/env python3
"""Steadiness report and sensitivity self-test for the benchmark.

Steadiness: run every workload on N seeds and print, per end-to-end
metric, the median, the interquartile range as a share of the median
(statistics.quantiles(values, n=4)) and the range (max - min) as a share
of the median, for the normalised run_s and for the raw host seconds
(host.raw_run_s) side by side:

    python3 perfbench/steadiness.py --seeds 10

Sensitivity self-test: alternate runs without and with a 5% busy-wait
padded into every measured slice, and print each metric's median ratio
and in how many pairs the padded run read higher. run_s should rise by
about 5% in nearly every pair; setup_s and peak_rss_mb should not move:

    python3 perfbench/steadiness.py --selftest --seeds 10

Run from the root of a source checkout; both modes call perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fattree_tp1", "twolink_rate", "churn_outage")
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PAD = 0.05  # the self-test's injected slowdown, ROADMAP item 1's 5% bar


def run_once(workload, seed, seconds, pad=0.0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0", "--pad", str(pad)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip().splitlines()
    result = json.loads(out[-1])
    if not result["correct"]:
        sys.exit("output checks failed: %s seed %d" % (workload, seed))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    detail = json.loads(out[-2])["detail"]
    values["raw_run_s"] = min(detail["raw_run_s"])
    values["ref_s"] = detail["ref_s"]
    values["workload_rss_mb"] = detail["workload_rss_mb"]
    values["events"] = detail["events"]
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def steadiness(args):
    print("%-13s %-15s %12s %8s %8s" % ("workload", "metric", "median",
                                        "IQR/med", "range"))
    for w in args.workloads:
        runs = [run_once(w, args.start_seed + i, args.seconds)
                for i in range(args.seeds)]
        for m in END_TO_END + ("raw_run_s", "ref_s", "workload_rss_mb",
                               "events"):
            vals = [r[m] for r in runs]
            med, iqr = spread(vals)
            rng = (max(vals) - min(vals)) / med
            print("%-13s %-15s %12.6g %7.1f%% %7.1f%%" % (
                w, m, med, 100 * iqr, 100 * rng), flush=True)


def selftest(args):
    print("%-13s %-12s %10s %7s" % ("workload", "metric", "pad/no-pad",
                                    "higher"))
    for w in args.workloads:
        base, padded = [], []
        for i in range(args.seeds):
            seed = args.start_seed + i
            pair = [(0.0, base), (PAD, padded)]
            for pad, bucket in (pair if i % 2 == 0 else pair[::-1]):
                bucket.append(run_once(w, seed, args.seconds, pad))
        for m in END_TO_END:
            ratios = [p[m] / b[m] for b, p in zip(base, padded)]
            higher = sum(r > 1.0 for r in ratios)
            print("%-13s %-12s %10.4f %4d/%d" % (
                w, m, statistics.median(ratios), higher, len(ratios)),
                flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS,
                    choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--start-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    (selftest if args.selftest else steadiness)(args)


if __name__ == "__main__":
    main()
