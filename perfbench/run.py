#!/usr/bin/env python3
"""Build and run the sanmap benchmark.

    python3 perfbench/run.py --workload ktree-epoch --seed 1 --seconds 10 --trace 0

Run from the root of a sanmap checkout. Configures and builds perfbench/
(CMake, Release) into .bench_build/ — or $CARGO_TARGET_DIR when set — then
runs the perfbench binary with the same arguments. The binary's last line of
standard output is the result object. With --trace 1 the Chrome trace of
the traced phase is written to <build dir>/traces/<workload>-seed<N>.json.

Exits non-zero, without a result line, when the sources or the toolchain
are missing or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("now100-churn", "ktree-epoch", "banded-map")
BUILD_TIMEOUT_S = 600
# A run measures for --seconds; set-up, the traced half's extra work and the
# last operation come on top.
RUN_SLACK_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, target, "perfbench"))


def run_quiet(command, timeout):
    """Runs a build step; its output goes to stderr so stdout stays clean."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build step failed: %s" % e)
    if done.returncode != 0:
        fail("build step failed (exit %d): %s" % (done.returncode,
                                                  " ".join(command)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sanmap sources next to perfbench/ (expected src/)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", out, "-j", "4"], BUILD_TIMEOUT_S)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    out = build()
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT,
                              timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % args.workload)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
