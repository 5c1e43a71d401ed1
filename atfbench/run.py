#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 atfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds the
repository's libraries, the shipped atf_served daemon and the benchmark
driver with CMake into $CARGO_TARGET_DIR/atfbench (default
.bench_build/atfbench); later calls rebuild only what changed. Build output
goes to stderr, so the last line on stdout is the driver's JSON result. The
exit code is the driver's: non-zero when the build fails or a correctness
check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tune_large_space", "tune_surrogate_small", "serve_mixed")


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "--target", "atfbench",
                    "atf_served", "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "atfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"atfbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "atfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", os.path.join(build_dir, "work", args.workload),
               "--served", os.path.join(build_dir, "atf_tools", "atf_served")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
