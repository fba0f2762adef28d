#!/usr/bin/env python3
"""Build the benchmark binary from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The first call configures and builds
the ftdb library and perfbench/src into $CARGO_TARGET_DIR (default
.bench_build) as a Release build; later calls only rebuild what changed. Build
output goes to standard error. The binary's standard output is passed through:
summary lines, then the result object as the last line. The exit code is the
binary's (nonzero when a correctness check failed), or 2 when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("campaign_survival", "campaign_sim", "engine_b2h18", "serve_faultstream")


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "ftdb_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "ftdb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = build(root, os.path.abspath(build_dir))
    if binary is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", repr(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
