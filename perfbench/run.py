#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload osu_flat_4k --seed 1 --seconds 20 --trace 0

Run from the repository root.  tarr_perfbench (perfbench/perfbench.cpp) is built
into .bench_build/ from the repository's src/ tree, then runs the workload in
a process of its own, so peak RSS and warm caches never leak between
workloads.  The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics"}.  Any build or run failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tarr_perfbench")
WORKLOADS = ("osu_flat_4k", "reorder_7k", "app_hier_1k")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build incrementally; cmake output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "tarr_perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_bench(argv):
    """Run tarr_perfbench; return its result object, or exit non-zero."""
    try:
        proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: tarr_perfbench timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: tarr_perfbench failed with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    result = run_bench([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference.tsv"),
        "--tmp-dir", os.path.join(BUILD, "tmp")])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
