#!/usr/bin/env python3
"""Builds the repository benchmark (Release) and runs one workload.

    python3 perfbench/run.py --workload <disasm112|decode112|fleet-open> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and compiles
perfbench/ plus every library source under src/ into $CARGO_TARGET_DIR
(default .bench_build) -- a few minutes on one core, well under one on four;
later calls only re-check the build.  Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.  The benchmark program
then replaces this process, so stopping the process stops the benchmark.
Exits non-zero when the build fails (for instance when src/ is missing;
nothing is printed on stdout) or when the benchmark finds a correctness
violation (its result then says "correct": false).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(os.path.abspath(target), "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, "--workload", args.workload, "--seed", args.seed,
                      "--seconds", args.seconds, "--trace", args.trace])


if __name__ == "__main__":
    sys.exit(main())
