#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload kv_read --seed 1 --seconds 15 --trace 0

Configures and builds perfbench/ (its own CMake project, compiling ../src)
into .bench_build/ (or $CARGO_TARGET_DIR when set), then runs the benchmark
binary with the same arguments. With --trace 1 the span file goes to
<build dir>/spans/<workload>.json. The binary's stdout is passed through; its
last line is the JSON result. Exits non-zero, without a result, when the
build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def arg_value(argv, name):
    for i in range(len(argv) - 1):
        if argv[i] == name:
            return argv[i + 1]
    return None


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [os.path.join(build_dir, "perfbench")] + argv
    if arg_value(argv, "--trace") == "1" and arg_value(argv, "--spans") is None:
        workload = arg_value(argv, "--workload") or "unknown"
        cmd += ["--spans", os.path.join(build_dir, "spans", workload + ".json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
