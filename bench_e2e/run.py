#!/usr/bin/env python3
"""Build and run the DASSA end-to-end benchmark.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload similarity --seed 1 --seconds 10 --trace 0

Configures and builds bench_e2e/ (and the library under it) in Release
mode into $CARGO_TARGET_DIR/bench_e2e (default .bench_build/bench_e2e),
then runs the benchmark binary with the same arguments. The binary's
last line of standard output is the JSON result; build output goes to
standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "bench_e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dassa_bench_e2e",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dassa_bench_e2e")


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("bench_e2e: no DASSA source tree next to the "
                         "benchmark, nothing to build\n")
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.stderr.write(f"bench_e2e: build failed: {err}\n")
        return 2
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"bench_e2e: run exceeded {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
