#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/ (a relative path is taken from the repository root);
traced runs write their Chrome trace-event JSON under perfbench-out/. The
last line of standard output is the run's JSON result (see README.md).
"""
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    # Build logs go to stderr: stdout is reserved for the run's result.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed", 1)
    out = subprocess.run(
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "perfbench")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "model", "session.h")):
        fail(f"library sources not found under {root}/src; run from a full "
             "checkout of the repository")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)
    binary = build(root, build_dir)
    args = [binary] + sys.argv[1:]
    if "--selftest" not in sys.argv:
        args += ["--trace-dir", os.path.join(root, "perfbench-out")]
    sys.stdout.flush()
    try:
        done = subprocess.run(args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
