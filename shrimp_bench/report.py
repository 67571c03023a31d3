#!/usr/bin/env python3
"""Per-layer report: run every workload traced and print its layer table.

    python3 shrimp_bench/report.py [--seed N] [--seconds T] [--workload W]

Run from the root of a checkout. For each workload this runs the
benchmark once untraced and once traced (through run.py, so it builds
first), checks that both simulated the same fingerprint, and turns the
traced run's spans, sim::profile rows and stat deltas into one markdown
table per workload: the per-layer metrics grouped by layer with the
end-to-end metric each should move, the exclusive host self time per
span, and the paper anchors with their error.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["latency_mix", "bulk_stream", "mesh_shift"]

# (layer, metric prefixes, what the layer's metrics should move)
LAYERS = [
    ("sim", ["sim."],
     "ops_per_s on all three; host_ns_per_event mostly on mesh_shift"),
    ("mem", ["mem."], "setup_s and peak_rss_mb on mesh_shift"),
    ("node", ["node.", "host.cpu_share"],
     "ops_per_s on latency_mix and bulk_stream"),
    ("nic", ["nic.", "host.packetizer_share", "host.nic_share",
             "host.du_share", "host.dma_share"],
     "ops_per_s and paper_err_pct on bulk_stream"),
    ("sim::Bus (EISA)", ["bus.", "host.bus_share"],
     "paper_err_pct and ops_per_s on bulk_stream"),
    ("net", ["net.", "host.mesh_share", "host.router_share"],
     "ops_per_s and op_host_us_p99 on mesh_shift; none on 2x2"),
    ("vmmc", ["vmmc."],
     "ops_per_s on latency_mix and bulk_stream; setup_s"),
    ("nx", ["nx."], "ops_per_s on mesh_shift and latency_mix; setup_s"),
    ("sock", ["sock."], "ops_per_s on bulk_stream and latency_mix"),
    ("rpc / srpc", ["rpc.", "srpc."],
     "ops_per_s and paper_err_pct on latency_mix"),
    ("harness", ["harness.", "trace_overhead_pct"],
     "none: what the benchmark itself costs"),
]

FINGERPRINT = re.compile(r"fingerprint events=(\d+) sim_ns=(\d+)")


def run(workload, seed, seconds, trace, artifact=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if artifact:
        cmd += ["--artifact", artifact]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"report.py: {workload} run failed")
    fp = FINGERPRINT.search(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), fp.groups()


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def report(workload, seed, seconds, art_dir):
    plain, fp_plain = run(workload, seed, 0.5, 0)
    artifact = os.path.join(art_dir, f"trace_{workload}.json")
    traced, fp_traced = run(workload, seed, seconds, 1, artifact)
    if fp_plain != fp_traced:
        raise SystemExit(f"report.py: {workload}: traced fingerprint "
                         f"{fp_traced} != untraced {fp_plain}")
    with open(artifact) as f:
        art = json.load(f)
    metrics = traced["metrics"]

    print(f"## {workload}\n")
    print(f"seed {seed}, {art['traced_ops']} traced ops, {traced['failed']} "
          f"failed of {traced['attempted']}; simulated fingerprint "
          f"events={fp_traced[0]} sim_ns={fp_traced[1]} (same untraced)\n")
    print("| layer | metric | value | unit | should move |")
    print("|---|---|---:|---|---|")
    for layer, prefixes, moves in LAYERS:
        names = [n for n in metrics if any(n.startswith(p) for p in prefixes)]
        for k, n in enumerate(names):
            m = metrics[n]
            print(f"| {layer if k == 0 else ''} | {n} | {fmt(m['value'])} "
                  f"| {m['unit']} | {moves if k == 0 else ''} |")

    total = art["op_host_us_per_op"]
    print(f"\nHost self time per traced op (exclusive split of "
          f"{total:.4g} us/op):\n")
    print("| span | self us/op | share |")
    print("|---|---:|---:|")
    for name, us in sorted(art["self_host_us_per_op"].items(),
                           key=lambda kv: -kv[1]):
        if us > 0:
            print(f"| {name} | {us:.4g} | {us / total:.1%} |")

    print("\n| anchor | paper | simulated | err % | source |")
    print("|---|---:|---:|---:|---|")
    for a in art["anchors"]:
        print(f"| {a['id']} | {a['paper']} {a['unit']} | "
              f"{a['simulated']:.4g} | {a['err_pct']:.3f} | {a['source']} |")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--workload", choices=WORKLOADS)
    args = ap.parse_args()
    art_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    for w in [args.workload] if args.workload else WORKLOADS:
        report(w, args.seed, args.seconds, art_dir)


if __name__ == "__main__":
    main()
