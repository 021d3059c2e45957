#!/usr/bin/env python3
"""Build bench_e2e (Release) from this source tree, then run it.

    python3 bench_e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench_e2e/run.py --self-test

Run from the repository root. The build lives in .bench_build/bench_e2e;
build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. All arguments are passed to bench_e2e unchanged.
"""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "bench_e2e"


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no simulator sources under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "bench_e2e"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                    "--parallel", "4"], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"run.py: build failed ({e})")
    # Replace this process, so a signal to the command reaches the benchmark.
    os.chdir(ROOT)
    binary = str(BUILD / "bench_e2e")
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
