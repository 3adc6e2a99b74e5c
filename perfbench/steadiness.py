#!/usr/bin/env python3
"""Runs each workload several times and reports how steady every metric is.

usage (from the root of a source checkout):
  python3 perfbench/steadiness.py [--runs 10] [--trace 0|1]

Every workload in BENCHMARK.json runs --runs times for its run_seconds; run
i uses seed 1000 + i. For each metric the helper prints the median, the
first and third quartiles (statistics.quantiles with n=4) and the spread
(Q3 - Q1) / median, which is what the bounds in BENCHMARK.json are set
from: a metric is steady when its spread is below a third of its bound.
Lines marked "NOT STEADY" break that rule; setup_s is exempt from the
spread rule but not from the median comparison between two sets of runs.
The exit code is non-zero when a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEED_BASE = 1000


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=1000)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return json.loads(lines[-1])


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        units = {}
        for i in range(args.runs):
            result = run_once(workload, SEED_BASE + i, seconds, args.trace)
            if result is None or not result["correct"]:
                print("%s seed %d: run failed" % (workload, SEED_BASE + i))
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print("%s (%d runs, %g s each, trace=%s)" %
              (workload, args.runs, seconds, args.trace))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ""
            if name in bounds and name != "setup_s":
                limit = bounds[name] / 3
                verdict = "steady" if spread < limit else "NOT STEADY"
                verdict += " (bound/3 = %.4f)" % limit
            print("  %-34s %-8s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %.4f %s" % (name, units[name], med, q1, q3, spread,
                                       verdict))
            print("    runs: " + " ".join("%.6g" % v for v in vals))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
