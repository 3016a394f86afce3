#!/usr/bin/env python3
"""Run the benchmark on one workload once per seed and report, for each
metric, the median and the spread: the distance between the first and
third quartile as a share of the median, beside a third of the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload sweep-ooo --seeds 1-10 [--trace 0]

Run from the repository root. Prints one line per metric, then the
per-seed values as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import benchstats


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    first, last = map(int, args.seeds.split("-"))
    runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    runs = []
    for seed in range(first, last + 1):
        cmd = [sys.executable, runner, "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(declared["run_seconds"]), "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.returncode != 0:
            sys.exit(f"seed {seed}: exit {p.returncode}")
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    kind = "per_layer" if args.trace else "end_to_end"
    for m in declared[kind]:
        values = [r[m["name"]] for r in runs]
        median = statistics.median(values)
        spread = benchstats.quartile_spread(values) if median and len(values) > 1 else 0.0
        limit = m["bound"] / 3 if "bound" in m else None
        flag = "" if limit is None or spread < limit else "  <-- above a third of the bound"
        print(
            f"{m['name']:32} median {median:12.6g}  spread {spread:7.4f}"
            + (f"  (bound/3 {limit:.4f})" if limit is not None else "")
            + flag
        )
    print(json.dumps(runs))


if __name__ == "__main__":
    main()
