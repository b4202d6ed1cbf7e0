#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built from source with
dune into .bench_build/ (the first run builds the whole flow), then run;
the last line of its standard output is the result object. See
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout kill it and wait until it has ended."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            sys.stderr.write(
                "perfbench: %s not found; run from the repository root\n" % needed
            )
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code = run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
            BUILD_TIMEOUT_S,
            stdout=sys.stderr,
            env=env,
        )
    except FileNotFoundError:
        sys.stderr.write("perfbench: dune is not installed\n")
        return 2
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 2
    if code != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    try:
        return run([exe] + sys.argv[1:], RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
