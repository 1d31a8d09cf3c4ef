#!/usr/bin/env python3
"""Build the daemon, the CLI and the benchmark program from source, then
run one workload of the benchmark.

    python3 perfbench/run.py --workload solve_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of stdout is the result as
one JSON object; see perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("solve_mix", "session_write", "session_read")
TARGETS = (
    "./bin/maxrs_serverd.exe",
    "./bin/maxrs_cli.exe",
    "./perfbench/bench.exe",
)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    # The program is built from the sources of this checkout; without
    # them there is nothing to measure.
    for need in ("dune-project", "bin/dune", "lib"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--display", "quiet", *TARGETS],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")

    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    bin_dir = os.path.join("_build", "default", "bin")
    cmd = [
        bench,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--bin-dir", bin_dir,
    ]
    # bench.exe waits for every daemon it starts; it exits non-zero,
    # without a result line, when the program cannot be run at all.
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
