#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the library plus the omu_perfbench program) into .bench_build/;
later runs only re-check the build. Every run first executes the tests of
the benchmark's own arithmetic, then omu_perfbench, whose last stdout line
is the JSON result this script passes through. Any build, test or
omu_perfbench failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the repository root: nothing to build")
        return False
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", "perfbench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                     BUILD_TIMEOUT_S) != 0:
            return False
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    if run_quiet([os.path.join(BUILD, "omu_perfbench_tests"), "--gtest_brief=1"], 120) != 0:
        log("the benchmark's arithmetic tests failed")
        return 3

    cmd = [os.path.join(BUILD, "omu_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace,
           # Relative to the root (omu_perfbench's cwd): Unix socket paths
           # inside the work directory must stay short.
           "--work-dir", os.path.join(".bench_build", f"work-{os.getpid()}"),
           "--trace-dir", os.path.join(".bench_build", "traces")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"omu_perfbench timed out after {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"omu_perfbench exited with {proc.returncode}")
        return 5
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        log("omu_perfbench printed no result line")
        return 6
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
