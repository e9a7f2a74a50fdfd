#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload ram256_j1 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The program and the fmossim library it
links are built in Release under $CARGO_TARGET_DIR (default .bench_build);
the first call builds, later calls find the build up to date. Build output
goes to stderr, so the program's JSON result stays the last line of stdout.
Traced runs write their spans to <build>/perfbench/traces/. The exit code is
the program's, or non-zero when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 3
    traces = os.path.join(build, "traces")
    spill = os.path.join(build, "spill")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(spill, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"), *sys.argv[1:],
           "--trace-dir", traces, "--spill-dir", spill]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
