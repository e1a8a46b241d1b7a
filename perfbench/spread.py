#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root)::

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workloads query-ht --first-seed 101

Runs ``perfbench/run.py`` once per (seed, workload), one run at a time,
with the workload order rotated from one seed to the next so that slow
drifts of the machine spread over all workloads.  For each workload and
metric it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and their distance as a share of the median, next to the
metric's bound from BENCHMARK.json: the spread must stay below the
bound, and a third of it leaves a safe margin.  For the timing metrics
it also prints the spread of the unscaled wall-clock figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(series) -> float:
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / statistics.median(series)


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    """One run's result line, its wall_clock line and its wall time in
    seconds."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.strip().splitlines()]
    wall = next(line["wall_clock"] for line in lines if "wall_clock" in line)
    return lines[-1], wall, time.perf_counter() - start


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument(
        "--workloads", default=",".join(entry["name"] for entry in spec["workloads"])
    )
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values = {workload: {} for workload in workloads}
    unscaled = {workload: {} for workload in workloads}
    for index in range(args.runs):
        seed = args.first_seed + index
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            result, wall_clock, wall = run_once(workload, seed, args.seconds)
            brief = {name: round(entry["value"], 4) for name, entry in result["metrics"].items()}
            print(f"seed {seed} {workload} {wall:.0f}s correct={result['correct']} {brief}", flush=True)
            for name in result["metrics"]:
                if name in wall_clock:
                    unscaled[workload].setdefault(name, []).append(wall_clock[name])
            if not result["correct"]:
                return 1
            for name, entry in result["metrics"].items():
                values[workload].setdefault(name, []).append(entry["value"])
    worst = 0.0
    print(
        f"\n{'workload':20} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'spread':>7} {'bound':>6} {'wall-clock spread':>17}"
    )
    for workload in workloads:
        for metric in spec["end_to_end"]:
            series = values[workload][metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = spread(series)
            worst = max(worst, share / metric["bound"])
            flag = "" if share < metric["bound"] / 3 else " >1/3 bound" if share < metric["bound"] else " OVER"
            raw = unscaled[workload].get(metric["name"])
            raw = f"{spread(raw):17.3f}" if raw else " " * 17
            print(
                f"{workload:20} {metric['name']:24} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                f"{share:7.3f} {metric['bound']:6.2f} {raw}{flag}"
            )
    print(f"\nworst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
