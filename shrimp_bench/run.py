#!/usr/bin/env python3
"""Build shrimp_bench from the checkout's sources and run one workload.

    python3 shrimp_bench/run.py --workload NAME --seed N --seconds T \
        --trace 0|1 [--artifact FILE]

Run from the root of a checkout. The benchmark package (this directory)
is configured with CMake in $CARGO_TARGET_DIR, or .bench_build when that
is unset, and built in Release mode; it compiles the shrimp library from
the checkout's src/. Build output goes to stderr. The last line of
stdout is the benchmark's JSON result. A failed build or run exits
nonzero without printing a result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def build(bdir):
    """Configure (once) and build; @return the binary's path."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "-j", BUILD_JOBS],
                       stdout=sys.stderr, check=True)
    return os.path.join(bdir, "shrimp_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--artifact", default="")
    args = ap.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.artifact:
        cmd += ["--artifact", args.artifact]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: benchmark exited {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
