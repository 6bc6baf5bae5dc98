#!/usr/bin/env python3
"""Build and run the FlexCore benchmark.

    python3 perfbench/run.py --workload suite-interp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test         # the benchmark's own tests
    python3 perfbench/run.py --record-digests    # rewrite perfbench/digests.tsv

Run from the root of a checkout. The simulator and flexbench are built
from source with CMake (Release, link-time optimization) into the
directory CARGO_TARGET_DIR names, .bench_build by default; the first
run builds, later runs reuse the build. Build output goes to stderr, so
the last line of stdout is flexbench's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.tsv")
WORKLOADS = ["suite-interp", "suite-fast", "multicore-dift", "serve-mix"]
# A measured run must end within 180 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quietly(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print("run.py: timed out: " + " ".join(cmd), file=sys.stderr)
        return False


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_quietly(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    if not run_quietly(["cmake", "--build", out, "--target", target,
                        "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(out, target)


def run(cmd, timeout=RUN_TIMEOUT_S):
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("run.py: timed out after %d s" % timeout, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        exe = build("flexbench_tests")
        return run([exe]) if exe else 1
    exe = build("flexbench")
    if not exe:
        return 1
    if args.record_digests:
        return run([exe, "--record-digests", DIGESTS])
    if not args.workload:
        parser.error("--workload is required")
    return run([exe, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--digests", DIGESTS,
                "--work-dir", os.path.join(build_dir(), "run")])


if __name__ == "__main__":
    sys.exit(main())
