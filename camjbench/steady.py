#!/usr/bin/env python3
"""Steadiness check for the CamJ benchmark.

    python3 camjbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
        [--seconds S] [--trace 0|1] [--seed0 N]

Runs camjbench/run.py repeatedly, each run with its own seed: `--sets`
sets of `--runs` runs per workload, the workloads interleaved so every
workload's runs spread over the whole invocation. For every metric it
prints, per set, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
then the change of the median from the first set to each later one.
With BENCHMARK.json present, each end-to-end spread and change is
compared with the metric's bound: "ok" below a third of the bound,
"near" below the bound, "OVER" beyond it. Run from the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: INCORRECT "
              f"({result['failed']} of {result['attempted']} failed)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def verdict(share, bound):
    if bound is None:
        return ""
    if share <= bound / 3:
        return "ok"
    return "near" if share <= bound else "OVER"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default="grid_sweep,served_jobs")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed0", type=int, default=1000)
    args = ap.parse_args()

    bounds, seconds = {}, args.seconds
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        seconds = seconds or spec["run_seconds"]
    seconds = seconds or 10
    workloads = args.workloads.split(",")

    # values[workload][set][metric] -> list over runs
    values = {w: [{} for _ in range(args.sets)] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed0 + s * args.runs + i
            for w in workloads:
                metrics = run_once(w, seed, seconds, args.trace)
                for name, v in metrics.items():
                    values[w][s].setdefault(name, []).append(v)
            print(f"set {s + 1}: run {i + 1}/{args.runs} done",
                  file=sys.stderr, flush=True)

    for w in workloads:
        print(f"\n== {w} ({args.runs} runs x {args.sets} sets, "
              f"{seconds:g} s each)")
        print(f"{'metric':28s} {'set':>3s} {'median':>12s} {'Q1':>12s} "
              f"{'Q3':>12s} {'spread':>8s}  {'change':>8s}")
        for name in values[w][0]:
            first = None
            for s in range(args.sets):
                vals = values[w][s][name]
                if len(vals) < 2:
                    continue
                q1, med, q3, share = spread(vals)
                bound = bounds.get(name)
                change = ""
                if first is None:
                    first = med
                elif first:
                    delta = (med - first) / first
                    change = f"{delta:+8.3f} {verdict(abs(delta), bound)}"
                sv = "" if name == "setup_s" else verdict(share, bound)
                print(f"{name:28s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {share:8.3f} {sv:4s} {change}")


if __name__ == "__main__":
    main()
