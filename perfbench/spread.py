#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage (from the root of the repository):

    python3 perfbench/spread.py --workloads search evaluate serve \
        --seeds 1-10 [--trace 0|1] [--out perfbench/results/set1.jsonl]

For every workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json, plus the failed share of attempted operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["search", "evaluate", "serve"])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = open(args.out, "a") if args.out else None
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit("%s seed %d failed (%d): %s" % (
                    workload, seed, done.returncode, done.stderr[-2000:]))
            result = json.loads(lines[-1])
            runs.append(result)
            notes = dict(line[2:].split(" = ", 1) for line in lines
                         if line.startswith("# ") and " = " in line)
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": result,
                                      "notes": notes}) + "\n")
                out.flush()
            if not result["correct"]:
                print("%s seed %d: incorrect\n%s" % (
                    workload, seed, done.stdout), file=sys.stderr)
        print("%s (%d runs, correct %d, failed share %s)" % (
            workload, len(runs), sum(r["correct"] for r in runs),
            sorted({r["failed"] / r["attempted"] for r in runs})))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            print("  %-34s median %12.5g  spread %6.3f%s" % (
                name, median, spread,
                "  bound %.2f" % bound if bound is not None else ""))


if __name__ == "__main__":
    main()
