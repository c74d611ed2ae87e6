#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload serve-local --seeds 1-10 [--seconds 54]

Runs `perfbench/run.py --trace 0` once per seed and prints, per metric,
the median of the runs and the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of that median,
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(args.seeds):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed ({done.returncode})")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.monotonic() - t0:.1f} s", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"{'metric':<18} {'median':>12} {'iqr/median':>10} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        flag = "" if share < bounds[name] / 3 else ("  > bound/3" if share < bounds[name] else "  > BOUND")
        print(f"{name:<18} {med:>12.6g} {share:>10.4f} {bounds[name]:>6}{flag}")


if __name__ == "__main__":
    main()
