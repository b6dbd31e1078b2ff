#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload search|evaluate|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The program is built with CMake into .bench_build/perfbench the first time
(or when a source file is newer than the binary), against the library in
src/. The last line of standard output is the JSON result.
"""

import argparse
import fcntl
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("search", "evaluate", "serve")
# Kernel threads for every workload: one per core, the program's default,
# set here so that an inherited AUTOCTS_NUM_THREADS cannot change a run.
# --threads compares other counts.
DEFAULT_THREADS = os.cpu_count() or 1
BUILD_JOBS = min(4, os.cpu_count() or 1)


def newest_source_mtime():
    newest = 0.0
    for top in (os.path.join(ROOT, "src"), SOURCE):
        for directory, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cc", ".h", ".txt")):
                    path = os.path.join(directory, name)
                    newest = max(newest, os.path.getmtime(path))
    return newest


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no AutoCTS sources at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (os.path.isfile(BINARY)
                and os.path.getmtime(BINARY) >= newest_source_mtime()):
            return
        steps = [["cmake", "-S", SOURCE, "-B", BUILD],
                 ["cmake", "--build", BUILD, "-j", str(BUILD_JOBS)]]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    # For comparisons across kernel thread counts only.
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS)
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --threads >= 1")

    build()
    env = {k: v for k, v in os.environ.items() if not k.startswith("AUTOCTS_")}
    env["AUTOCTS_NUM_THREADS"] = str(args.threads)
    # Set-up time is measured from here: the build is not part of it.
    env["PERFBENCH_T0_NS"] = str(time.monotonic_ns())
    argv = [BINARY]
    if args.self_test:
        argv.append("--self-test")
    else:
        argv += ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    os.execve(BINARY, argv, env)


if __name__ == "__main__":
    main()
