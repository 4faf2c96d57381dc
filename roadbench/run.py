#!/usr/bin/env python3
"""roadbench entry point: build the benchmark from source, then run it.

Run from the repository root:

    python3 roadbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: vp_corpus, vp_tiled, ert_tenants, fuzz_sweep. The first run
configures and builds roadbench (Release) with the repository's libraries
under .bench_build/roadbench; later runs rebuild incrementally. Build output
goes to stderr. The benchmark's last stdout line is its JSON result; the
exit code is non-zero, with no result, when it cannot build or run.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "roadbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "roadbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("roadbench: the roadworks sources (src/) are not next to the "
              "benchmark; nothing to build", file=sys.stderr)
        return 2
    if not build():
        print("roadbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "roadbench")] + sys.argv[1:] + [
        "--expected-dir", os.path.join(HERE, "expected"),
        "--out-dir", os.path.join(ROOT, ".bench_build", "roadbench-out"),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
