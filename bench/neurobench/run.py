#!/usr/bin/env python3
"""Build neurobench from source and run it.

    python3 bench/neurobench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1> [--out <dir>]

Run from the root of a checkout. The library under src/ and the benchmark
are built with CMake into $CARGO_TARGET_DIR/neurobench (default
.bench_build/neurobench); build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. Results, traces and
durable data go to --out (default .bench_build/neurobench-out). The exit
code is the benchmark's: 0 when every operation and check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, tmp_dir):
    """Configure once, then build (a no-op when nothing changed)."""
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    compile_all = ["cmake", "--build", build_dir, "-j", "4"]
    result = subprocess.run(compile_all, stdout=sys.stderr, env=env)
    return result.returncode == 0


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "neurobench")
    tmp_dir = os.path.join(build_root, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    if not build(build_dir, tmp_dir):
        print("neurobench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build_root, "neurobench-out")]
    sys.stdout.flush()
    binary = os.path.join(build_dir, "neurobench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
