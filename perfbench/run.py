#!/usr/bin/env python3
"""Build and run the locsim benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid8|radix32|window_sweep \
        --seed N --seconds S --trace 0|1

Configures and builds the C++ driver (perfbench/CMakeLists.txt, which
compiles the repository's libraries from source) under .bench_build/,
then runs it. Build output goes to stderr; the driver's last stdout
line is the result as one JSON object. Traced runs write their spans
to .bench_build/spans/. Exits non-zero when the sources are missing,
the build fails, or an output check fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "perfbench"
WORKLOADS = ("grid8", "radix32", "window_sweep")


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not ((ROOT / "CMakeLists.txt").is_file() and (ROOT / "src").is_dir()):
        print(f"perfbench: no locsim sources in {ROOT}", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 3

    scratch = WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        spans = WORK / "spans"
        spans.mkdir(exist_ok=True)
        seed = "default" if args.seed is None else args.seed
        cmd += ["--spans", str(spans / f"{args.workload}-{seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
