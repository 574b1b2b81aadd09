#!/usr/bin/env python3
"""Builds the FastMatch benchmark from the repository sources and runs one
workload.

    python3 perfbench/run.py --workload interactive|dashboard|refresh \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds a
Release binary under .bench_build/perfbench (CMake, Ninja when present);
later calls only let the build tool confirm it is up to date. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.

--trace 0 runs the named workload untraced (end-to-end metrics). --trace 1
runs the traced pass of every workload, each in its own process, and
merges their per-layer metrics: each metric comes from the workload whose
path exercises its layer, and the set-up layers (storage.generate_s,
index.build_s) from the named workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fm_perfbench")
RUN_TIMEOUT_S = 170
WORKLOADS = ["interactive", "dashboard", "refresh"]
SETUP_LAYERS = {"storage.generate_s", "index.build_s"}


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", "-DFASTMATCH_CCACHE=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "fm_perfbench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr)


def run(workload, args, timeout):
    """Runs one binary pass; returns its standard output lines."""
    done = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        timeout=timeout, stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    passes = [args.workload]
    if args.trace:
        passes += [w for w in WORKLOADS if w != args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in passes:
            lines = run(workload, args, deadline - time.monotonic())
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(line)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                if workload == args.workload or name not in SETUP_LAYERS:
                    merged["metrics"][name] = metric
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    except (OSError, subprocess.CalledProcessError, ValueError,
            IndexError, KeyError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
