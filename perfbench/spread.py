#!/usr/bin/env python3
"""Runs one workload over several seeds and prints, per end-to-end
metric, the median and the interquartile range as a share of the median
next to the metric's bound.

    python3 perfbench/spread.py --workload sweep --seeds 1-10

Each run measures for BENCHMARK.json's `run_seconds`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run failed: {result}")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med
        print(f"{args.workload:>13} {m['name']:>14}: median {med:.4g} {m['unit']}, "
              f"IQR/median {share:.3f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
