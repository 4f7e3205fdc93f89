#!/usr/bin/env python3
"""Builds the SoftDB benchmark binary from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0

The engine and the benchmark binary are compiled (Release) into the build directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later runs
rebuild incrementally. The binary's scratch files (WAL directories, recovery
copies, span traces) go to <build dir>/perfbench-run. The last line of
standard output is the binary's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_mix", "point_served", "ingest_wal")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the binary; returns its path or exits 1."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                  "--target", "softdb_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            except OSError as err:
                print(f"perfbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
                sys.exit(1)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(f"perfbench: build failed ({' '.join(cmd)}):\n{tail}",
                      file=sys.stderr)
                sys.exit(1)
    return os.path.join(cmake_dir, "softdb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt one answer (self-test of the checks)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "perfbench-run")]
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        sys.exit(1)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: benchmark exited {done.returncode} without a result",
              file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
