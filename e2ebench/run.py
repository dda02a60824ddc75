#!/usr/bin/env python3
"""Builds and runs the CookiePicker end-to-end benchmark.

    python3 e2ebench/run.py --workload campaign|verdict-mix|wire-fetch \
        --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The first run
configures and builds e2ebench/ (the library from src/ plus the benchmark
executables) into $CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench;
later runs only check the build is current. Each run first runs the
harness self-tests, then the workload. The workload prints human summary
lines and, as the last line of stdout, one JSON object with "correct",
"attempted", "failed" and "metrics". Exit status is non-zero, with no JSON
line, when the build, the self-tests or the workload process fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "verdict-mix", "wire-fetch")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build(directory):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = os.path.exists(os.path.join(directory, "CMakeCache.txt"))
    steps = []
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {ROOT}/src; nothing to benchmark")
        return 2
    directory = build_dir()
    try:
        if not build(directory):
            return 1
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 1

    selftest = subprocess.run([os.path.join(directory, "e2ebench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60, check=False)
    if selftest.returncode != 0:
        log("harness self-tests failed")
        return 1

    run_root = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(run_root, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    binary = "e2ebench_traced" if args.trace else "e2ebench"
    command = [os.path.join(directory, binary),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--run-dir", run_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1
    # Keep the span dump of the latest traced run of each workload.
    if os.path.isdir(run_dir):
        for name in os.listdir(run_dir):
            if name.startswith("trace-") and name.endswith(".tsv"):
                os.replace(os.path.join(run_dir, name),
                           os.path.join(run_root, name))
    shutil.rmtree(run_dir, ignore_errors=True)

    result = last_json_line(done.stdout)
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout)
        log(f"workload exited {done.returncode} without a result line")
        return 1
    lines = done.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
