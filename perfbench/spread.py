#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10]
                                [--seconds S] [--trace 0|1]

For every metric: the median over the runs and the distance between
the first and third quartile as a share of the median (the spread a
bound must cover). Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}")
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{'metric':28} {'median':>14} {'iqr/median':>11}")
    for name, vals in values.items():
        mid = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [mid] * 3
        spread = (q[2] - q[0]) / mid if mid else 0.0
        print(f"{name:28} {mid:14.6g} {spread:11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
