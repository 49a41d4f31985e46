#!/usr/bin/env python3
"""Builds and runs the Mux repository benchmark (see perfbench/README.md).

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (its own CMake package, which
compiles ../src) into .bench_build/; later runs rebuild incrementally. The
benchmark's report goes to stderr; the last stdout line is the JSON result.
The exit code is non-zero when the build fails, the run fails or times out,
or the run's outputs were not correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("hot-read", "tiered-read", "ingest-migrate")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step failed: {error}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(step)}")
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not build():
        return 1

    out_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", os.path.join(out_dir, f"{tag}.json")]
    if args.trace:
        command += ["--trace-out", os.path.join(out_dir, f"{tag}.spans.csv")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.decode("utf-8", "replace").splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"benchmark printed no result (exit {done.returncode})")
        return 1
    print(json.dumps(result), flush=True)
    if done.returncode != 0 or not result["correct"]:
        log(f"benchmark outputs were not correct (exit {done.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
