#!/usr/bin/env python3
"""The repository benchmark's one command.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

It builds the simulator library (src/) and the perfbench driver with CMake in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload for about S seconds:

  --trace 0  end-to-end metrics, tracing off: wall_s, pulses_per_s, setup_s,
             peak_rss_mb (medians over the passes that fit in S seconds);
  --trace 1  per-layer metrics from the traced layer replica, whose every row
             must match runner::run_scenario's bit for bit.

Workloads: complete-byzantine, churn-hypercube, adversary-sweep (their shapes
are in perfbench/workloads.cpp). The seed is the runner's base seed; seed 1 is
the default and seed 20220725 is held out for checking a change.

The last stdout line is one JSON object with the keys correct, attempted,
failed (cells) and metrics. Build output goes to stderr. Exits non-zero,
printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("complete-byzantine", "churn-hypercube", "adversary-sweep")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20220725
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    """Configures (once) and builds perfbench; returns the binary's path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench-release")
    try:
        binary = build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    os.path.join(build_dir, f"spans-{args.workload}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if run.returncode != 0 or not valid:
        sys.stderr.write(run.stdout)
        print(f"perfbench: driver exited {run.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
