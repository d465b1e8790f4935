#!/usr/bin/env python3
"""Builds the perfbench program from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run configures and builds the
c3 library and the perfbench program (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs only check the build
is current. Build output goes to stderr; the program's report goes to stdout,
its last line one JSON object. Exits non-zero when the build fails, an
answer is wrong, or the run overstays its time limit.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_sweep", "serve_mix")
# Every run ends within this many seconds of starting the program.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        print("perfbench: no c3 sources next to %s; run from a full checkout" % here, file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build_root, "perfbench")
    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            configure = ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build, "-j", "4"], check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    command = [
        os.path.join(build, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
