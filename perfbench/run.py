#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles ../src from source) into .bench_build/; later
calls only re-run the incremental build.  The workload binary prints a stamp
line, one "metric <name> <value> <unit>" line per metric and, last, the JSON
result, which this script relays.  See perfbench/README.md.

Extra flags for the benchmark's own test: --small (reduced sizes) and
--wrong-expectation (one expectation deliberately wrong).
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "scv_perfbench")
BINARY = os.path.join(BUILD_DIR, "scv_perfbench")
WORKLOADS = ("mc_directory_p3", "mc_hunt_msi_buggy", "stream_mixed")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "scv_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                status = subprocess.call(cmd, stdout=log,
                                         stderr=subprocess.STDOUT)
            except OSError as e:
                fail("cannot run %s: %s" % (cmd[0], e))
            if status != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--wrong-expectation", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    scratch = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(scratch, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.small:
        cmd.append("--small")
    if args.wrong_expectation:
        cmd.append("--wrong-expectation")

    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or \
            not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("%s exited with status %d and no result" %
             (args.workload, proc.returncode))
    for line in lines:
        print(line)
    print("run_wall_s %.3f" % (time.monotonic() - t0), file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
