#!/usr/bin/env python3
"""Compare two result sets of the session benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl [--trace 0|1]

Result sets are the JSON-lines files perfbench/series.py writes. For every
(metric, workload) present in both, prints the two medians, the change as a
share of the base median (positive = worse), each side's spread (distance
between the first and third quartile as a share of its median) and a
verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound;
  better      the new side wins at least 9 in 10 runs paired by seed, and
              its median is better by more than the base's own spread;
  same        neither, with both spreads within the bound;
  unresolved  a spread exceeds the bound, unless every new run reads better
              (better) or worse (worse) than every base run. setup_s is
              judged on its median alone.

Per-layer metrics have no bound and get no verdict. Exits 1 if any pair is
worse or unresolved.
"""

import argparse
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from series import load_runs, load_spec, spread, table  # noqa: E402


def verdict(metric, base, new, base_by_seed, new_by_seed):
    bound = metric.get("bound")
    if bound is None:
        return ""
    sign = 1 if metric["better"] == "lower" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / mb if mb else 0.0
    # Set-up time is judged on its median alone: its spread has no bound.
    if metric["name"] != "setup_s" and max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    paired = [s for s in new_by_seed if s in base_by_seed]
    wins = sum(1 for s in paired if sign * (new_by_seed[s] - base_by_seed[s]) < 0)
    if paired and wins >= 0.9 * len(paired) and -change > spread(base):
        return "better"
    return "same"


def by_seed(runs, workload, name, trace):
    return {
        r["seed"]: r["result"]["metrics"][name]["value"]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace and name in r["result"]["metrics"]
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    metrics, base = table(base_runs, spec, args.trace)
    _, new = table(new_runs, spec, args.trace)
    workloads = [w["name"] for w in spec["workloads"]]

    bad = False
    print(f"{'workload':<18} {'metric':<34} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread b/n':>15} {'bound':>6}  verdict")
    for workload in workloads:
        for m in metrics:
            key = (workload, m["name"])
            if key not in base or key not in new:
                continue
            v = verdict(m, base[key], new[key],
                        by_seed(base_runs, workload, m["name"], args.trace),
                        by_seed(new_runs, workload, m["name"], args.trace))
            bad = bad or v in ("worse", "unresolved")
            mb, mn = statistics.median(base[key]), statistics.median(new[key])
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (mn - mb) / mb if mb else 0.0
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            print(f"{workload:<18} {m['name']:<34} {mb:>12.5g} {mn:>12.5g} {change:>+8.3f} "
                  f"{spread(base[key]):>7.3f}/{spread(new[key]):<7.3f} {bound:>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
