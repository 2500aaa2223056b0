#!/usr/bin/env python3
"""Build and run the Monte-Carlo tracking benchmark.

    python3 perfbench/run.py --workload paper-dense --seed 1 --seconds 55 --trace 0

Run from the root of a cdpf source tree. The benchmark program is built from
source into .bench_build/perfbench (CMake, RelWithDebInfo) on first use; later
runs only re-check the configuration and the build. Its report goes to standard
output and its last line is one JSON object with the metrics (see
perfbench/README.md).
Per-run report and span files are written under .bench_build/perfbench-out.

Exit codes: 0 success, 2 bad usage or a tree without the cdpf sources,
3 correctness gate failed, anything else a build or benchmark failure.
"""
import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step; on failure print its output to stderr and exit."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd), 4)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail("build step failed: " + " ".join(cmd), 4)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
              BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs], max(1.0, deadline - time.monotonic()))


def revision():
    """The git revision of the tree, or 'unknown' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = done.stdout.strip()
    return rev if done.returncode == 0 and rev else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workers", type=int, default=0,
                        help="worker threads (default: the workload's own)")
    parser.add_argument("--smoke", action="store_true",
                        help="one trial of every cell, one pass (self-tests)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="corrupt one gate reference (the gate must fail)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cdpf sources at " + os.path.join(ROOT, "src") +
             "; run from the root of a cdpf checkout", 2)
    build()

    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--revision", revision(), "--out-dir", OUT_DIR]
    if args.workers:
        cmd += ["--workers", str(args.workers)]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 5)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
