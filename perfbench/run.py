#!/usr/bin/env python3
"""End-to-end benchmark of the GCGT library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload traverse --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark driver in Release under
.bench_build/perfbench (a build directory of its own), then runs one
workload. The driver prints every metric by name with its unit on stderr and,
as the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones derived from spans around every library call.
See perfbench/README.md.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("traverse", "analytics", "serve", "outofcore")


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    # Serialises concurrent first runs in one checkout.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "gcgt_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    proc = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
