#!/usr/bin/env python3
"""Records a trajectory point: runs every workload on several seeds and
appends the medians and quartiles of each end-to-end metric to
perfbench/TRAJECTORY.jsonl. Run from the repository root:

    python3 perfbench/trajectory.py --seeds 1-10 [--no-append]

It prints each metric's median, quartiles and spread (the interquartile
distance as a share of the median) next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--rev", default=None,
                        help="program revision measured (default: git HEAD)")
    parser.add_argument("--no-append", action="store_true")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"rev": args.rev or git_rev(), "cpu_count": os.cpu_count(),
             "date": time.strftime("%Y-%m-%d"),
             "run_seconds": spec["run_seconds"], "seeds": args.seeds,
             "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            stats[name] = {"median": median, "q1": q1, "q3": q3}
            print(f"{workload:6s} {name:16s} median={median:<12.6g} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f} "
                  f"bound={bounds[name]}")
        point["workloads"][workload] = stats
    if not args.no_append:
        with open(run.HERE / "TRAJECTORY.jsonl", "a") as out:
            out.write(json.dumps(point) + "\n")


if __name__ == "__main__":
    main()
