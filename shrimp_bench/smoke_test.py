#!/usr/bin/env python3
"""Smoke tests for shrimp_bench: every workload at minimal length.

    python3 shrimp_bench/smoke_test.py

Run from the root of a checkout (it builds through run.py). For each
workload it checks that:
  - an untraced run reports zero failed ops and exactly the end-to-end
    metrics BENCHMARK.json names, each with its unit;
  - a second untraced run with the same seed simulates the identical
    fingerprint (events and simulated ns of the fingerprint prefix);
  - a traced run reports exactly the per-layer metrics BENCHMARK.json
    names and the same fingerprint as the untraced runs;
  - a different seed draws different ops.
Exits nonzero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINT = re.compile(r"fingerprint events=(\d+) sim_ns=(\d+)")
SECONDS = "0.3"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
         str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, FINGERPRINT.search(proc.stderr).groups()


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_metrics(workload, result, spec):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        fail(f"{workload}: metrics {sorted(set(got) ^ set(want))} or units "
             f"differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload}: {result['failed']} of {result['attempted']} "
             f"ops failed")


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [wl["name"] for wl in bench["workloads"]]:
        plain, fp = run(w, 7, 0)
        check_metrics(w, plain, bench["end_to_end"])
        if any(v["value"] <= 0 for k, v in plain["metrics"].items()):
            fail(f"{w}: an end-to-end metric reads 0")
        again, fp_again = run(w, 7, 0)
        if fp_again != fp:
            fail(f"{w}: same seed, fingerprints {fp} and {fp_again}")
        traced, fp_traced = run(w, 7, 1)
        check_metrics(w, traced, bench["per_layer"])
        if fp_traced != fp:
            fail(f"{w}: traced fingerprint {fp_traced} != untraced {fp}")
        _, fp_other = run(w, 8, 0)
        if fp_other == fp:
            fail(f"{w}: seeds 7 and 8 simulated the same ops")
        print(f"ok {w}: {plain['attempted']} ops, fingerprint "
              f"events={fp[0]} sim_ns={fp[1]}")
    print("smoke_test: all workloads passed")


if __name__ == "__main__":
    main()
