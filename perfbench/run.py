#!/usr/bin/env python3
"""Wall-clock benchmark of the HDoV-tree reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload query|walk|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds the benchmark (perfbench/CMakeLists.txt,
which compiles ../src) into .bench_build/. Each run builds the world from the
seed, runs the workload, checks its outputs and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (and writes a Chrome trace under .bench_out/). A failed
correctness check is named on standard error and makes the exit code 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("query", "walk", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_declared():
    """Metric name -> (unit, kind) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            declared[metric["name"]] = (metric["unit"], kind)
    return declared


def build():
    """Configures once, then brings the binary up to date."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j4", "--target", "perfbench"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run_binary(args):
    OUT_DIR.mkdir(exist_ok=True)
    # The program's defaults are what is measured: drop the environment
    # knobs that would switch its search backend, prefetch or scale.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HDOV_")}
    proc = subprocess.run(
        [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(OUT_DIR)],
        stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1])


def select_metrics(raw, declared, kind):
    """The declared metrics of `kind`, checked against what was measured.

    Every measured metric must be declared with the same unit. A per-layer
    metric the workload has no layer for (README.md lists them) reads 0.
    """
    for name, metric in raw["metrics"].items():
        if name not in declared:
            raise RuntimeError(f"metric {name} is not in BENCHMARK.json")
        if metric["unit"] != declared[name][0]:
            raise RuntimeError(
                f"metric {name} has unit {metric['unit']}, declared "
                f"{declared[name][0]}")
    selected = {}
    for name, (unit, metric_kind) in declared.items():
        if metric_kind != kind:
            continue
        if name in raw["metrics"]:
            selected[name] = raw["metrics"][name]
        elif kind == "per_layer":
            selected[name] = {"value": 0.0, "unit": unit}
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        declared = load_declared()
        build()
        raw = run_binary(args)
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = select_metrics(raw, declared, kind)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as err:
        log(f"error: {err}")
        return 1

    checks = raw["failed_checks"]
    if raw["failed"]:
        checks = checks + [f"{raw['failed']} ops returned an error"]
    report = dict(raw, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    (OUT_DIR / f"report-{args.workload}-{args.seed}-{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    for check in checks:
        log(f"check failed: {check}")
    print(json.dumps({"correct": not checks, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 1 if checks else 0


if __name__ == "__main__":
    sys.exit(main())
