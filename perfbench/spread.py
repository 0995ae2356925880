#!/usr/bin/env python3
"""Measure how steady the benchmark is, the way its acceptance rule does.

Run from the root of a checkout:

    python3 perfbench/spread.py [--seeds 1,2,...] [--sets 1] [workload ...]

For each workload, runs perfbench/run.py once per seed (untraced, with
BENCHMARK.json's run_seconds) and prints, for every end-to-end metric, the
median of the runs and the spread: the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound. With --sets 2 the seeds are run twice and the
second median's change over the first is printed too.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d failed: %s" % (workload, seed, out.stdout))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    for workload in names:
        sets = [[run(workload, s, bench["run_seconds"]) for s in seeds]
                for _ in range(args.sets)]
        print(workload)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = "  %-14s bound %.2f" % (name, bound)
            for runs in sets:
                values = [r[name] for r in runs]
                line += " | median %.6g spread %.3f" % (
                    statistics.median(values), spread(values))
            if len(sets) == 2:
                first, second = (statistics.median([r[name] for r in runs])
                                 for runs in sets)
                worse = (second - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                line += " | second worse by %.3f" % worse
            print(line, flush=True)
            if args.verbose:
                for runs in sets:
                    print("    " + " ".join("%.4g" % r[name] for r in runs))


if __name__ == "__main__":
    main()
