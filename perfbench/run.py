#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (the first run builds the whole
program) and hands the arguments to it; its last line of output is the
result.  Exits 2 without a result when the program's sources are not
there to build.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(f"perfbench: no {needed} here; run from the root of a checkout\n")
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display=quiet", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
