#!/usr/bin/env python3
"""Build the perf ledger from source and measure one workload.

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
bench/ledger (which builds sas_core from this tree) into
.bench_build/perf_ledger; later calls only re-check the build. Build
output goes to stderr; stdout carries the ledger's metric lines and, last,
its one-line JSON result. The exit status is the ledger's (0 when every
run verified), or 2 when the build fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perf_ledger")


def build() -> bool:
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry the configure next time
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(["cmake", "--build", BUILD, "--target", "perf_ledger", "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main() -> int:
    if not build():
        print("run.py: building the perf ledger failed", file=sys.stderr)
        return 2
    ledger = os.path.join(BUILD, "perf_ledger")
    corpus = os.path.join(BUILD, "corpus")
    sys.stdout.flush()
    return subprocess.run([ledger, *sys.argv[1:], "--corpus-dir", corpus]).returncode


if __name__ == "__main__":
    sys.exit(main())
