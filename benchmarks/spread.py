#!/usr/bin/env python3
"""Runs the benchmark N times per workload, each with another seed, and
prints for every end-to-end metric the distance between the first and
third quartile of its values as a share of their median — the spread the
harness holds against each metric's bound.

usage: python3 benchmarks/spread.py [-n 10] [-seed0 100] [workload ...]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

ap = argparse.ArgumentParser()
ap.add_argument("-n", type=int, default=10)
ap.add_argument("-seed0", type=int, default=100)
ap.add_argument("-json", help="write every run's metrics here")
ap.add_argument("workloads", nargs="*")
args = ap.parse_args()

manifest = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
workloads = args.workloads or [w["name"] for w in manifest["workloads"]]
runs = {}
worst = {}
for w in workloads:
    values = {}
    for i in range(args.n):
        t0 = time.time()
        cmd = manifest["command"] + ["--workload", w, "--seed", str(args.seed0 + i),
                                     "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{w} seed {args.seed0 + i}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"{w} seed {args.seed0 + i}: incorrect: {res}")
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"  {w} seed {args.seed0 + i}: {time.time() - t0:.1f}s", file=sys.stderr)
    runs[w] = values
    print(f"== {w}")
    for k in sorted(values):
        q = statistics.quantiles(values[k], n=4)
        med = statistics.median(values[k])
        spread = (q[2] - q[0]) / med if med else 0.0
        worst[k] = max(worst.get(k, 0.0), spread)
        flag = "" if spread < bounds[k] / 3 else ("  > bound/3" if spread <= bounds[k] else "  > BOUND")
        print(f"  {k:28s} median {med:14.6g}  spread {100 * spread:5.1f}%  bound {100 * bounds[k]:4.0f}%{flag}")
print("== worst spread per metric")
for k in sorted(worst):
    print(f"  {k:28s} {100 * worst[k]:5.1f}%  bound {100 * bounds[k]:4.0f}%")
if args.json:
    json.dump(runs, open(args.json, "w"))
