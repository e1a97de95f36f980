#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload extract_suite --seed 1 --seconds 20 --trace 0

Run from the repository root. Every argument is passed to perfbench.exe;
its last line of standard output is the result. Build output goes to
standard error.
"""
import os
import subprocess
import sys

TARGETS = ["./perfbench/perfbench.exe", "./bin/smoothe_cli.exe"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        sys.stderr.write("perfbench: run from the repository root (dune-project, lib/ and bin/ needed)\n")
        return 2
    # no shared dune cache: the build reads and writes only this checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS], stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    cli = os.path.join("_build", "default", "bin", "smoothe_cli.exe")
    # the benchmark replaces this process, so a signal sent to it reaches
    # the benchmark, which then stops the daemon it started
    os.execv(exe, [exe, "--smoothe", cli, "--out", "perfbench-out", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
