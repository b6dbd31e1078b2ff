#!/usr/bin/env python3
"""Measures the tracer's cost on the search step.

Usage (from the root of the repository):

    python3 perfbench/overhead.py --seeds 1-5 [--seconds 25]

For each seed it runs the search workload untraced and traced back to back,
alternating which goes first, reads the median step time each run prints
(`# search.step_ms`), and prints the traced/untraced ratio of every pair and
the median ratio.
"""

import argparse
import statistics
import subprocess
import sys

from spread import ROOT, seeds


def step_ms(seed, seconds, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", "search",
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    for line in done.stdout.splitlines():
        if line.startswith("# search.step_ms = "):
            return float(line.split()[3])
    sys.exit("seed %d trace %d failed (%d): %s" % (
        seed, trace, done.returncode, done.stderr[-2000:]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    ratios = []
    for i, seed in enumerate(args.seeds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        ms = {trace: step_ms(seed, args.seconds, trace) for trace in order}
        ratios.append(ms[1] / ms[0])
        print("seed %d: untraced %.1f ms, traced %.1f ms, ratio %.3f" % (
            seed, ms[0], ms[1], ratios[-1]))
    print("median traced/untraced ratio %.3f over %d pairs" % (
        statistics.median(ratios), len(ratios)))


if __name__ == "__main__":
    main()
