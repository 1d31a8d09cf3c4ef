#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly, in alternating order,
with a new seed each time, and print the median and quartiles of every
metric.

    python3 perfbench/steady.py --runs 10

Run from the repository root. Run i uses seed i and --trace 0; --seconds
defaults to run_seconds in BENCHMARK.json. The spread column is the
distance between the first and third quartile as a share of the median,
the same figure that decides whether a metric can be gated within its
bound in BENCHMARK.json; a gated metric is marked when its spread
exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} exited {p.returncode}")
    lines = p.stdout.strip().splitlines()
    r = json.loads(lines[-1])
    # The machine's CPU steal during the run, from the reference lines.
    r["steal_pct"] = next((float(l.split()[1]) for l in lines
                           if l.split()[:1] == ["cpu_steal_pct"]), None)
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            r = run_once(w, i + 1, seconds)
            results[w].append(r)
            m = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"run {i + 1}/{a.runs} {w} seed {i + 1}: "
                  f"attempted {r['attempted']} failed {r['failed']} "
                  f"correct {r['correct']} steal {r['steal_pct']}% {m}",
                  flush=True)

    for w in workloads:
        rs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print(f"\n{w}: {len(rs)} runs, failed share {shares}, "
              f"all correct {all(r['correct'] for r in rs)}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in rs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rs]
            unit = rs[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            b = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {b} {unit}{flag}")


if __name__ == "__main__":
    main()
