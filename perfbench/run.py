#!/usr/bin/env python3
"""Builds and runs the wsp host-time benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload fig8_mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
library sources and the perfbench program into .bench_build/perfbench
(Release); later calls only rebuild what changed.  Build output goes to
stderr; stdout carries the program's report, whose last line is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 1
the spans of the traced run are written to .bench_build/perfbench-spans/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "perfbench-spans")
WORKLOADS = ("fig8_mix", "resume_scale", "design_flow", "chaos_recover")
RUN_TIMEOUT_S = 170  # one run must finish well inside 180 s


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans-out", os.path.join(SPANS, args.workload + ".tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: program exited with {proc.returncode}",
              file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: program printed no result", file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n")
                     else proc.stdout + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
