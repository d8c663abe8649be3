#!/usr/bin/env python3
"""Run the session benchmark over several seeds and keep the results.

    python3 perfbench/series.py --out base.jsonl [--workloads a,b] \\
        [--seeds 1-10] [--trace 0|1] [--seconds S]

Runs perfbench/run.py once per (workload, seed) from the checkout root and
appends one JSON line per run to --out: {"workload", "seed", "trace",
"result"}. Then prints, per workload and metric, the median and the spread
(distance between the first and third quartile as a share of the median)
next to a third of the metric's bound from BENCHMARK.json: the benchmark
is steady when every spread but setup_s stays below that third.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def table(runs, spec, trace):
    """Per (workload, metric): the values of every run, in run order."""
    metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    by = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for m in metrics:
            v = run["result"]["metrics"].get(m["name"], {}).get("value")
            if v is not None:
                by.setdefault((run["workload"], m["name"]), []).append(v)
    return metrics, by


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)

    metrics, by = table(load_runs(args.out), spec, args.trace)
    print(f"{'workload':<18} {'metric':<34} {'n':>3} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for workload in args.workloads.split(","):
        for m in metrics:
            values = by.get((workload, m["name"]), [])
            if not values:
                continue
            s = spread(values)
            third = m.get("bound", float("nan")) / 3
            flag = ""
            if "bound" in m and m["name"] != "setup_s" and s >= third:
                flag = "  NOT STEADY"
                ok = False
            print(f"{workload:<18} {m['name']:<34} {len(values):>3} "
                  f"{statistics.median(values):>12.5g} {s:>8.4f} {third:>8.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
