#!/usr/bin/env python3
"""Compares two sets of nvc_bench results (parent vs change).

Usage:
  python3 bench/nvc_bench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are directories (or single files) of the result JSONs that
run.py writes to .bench_out/results/. For every workload and end-to-end
metric of BENCHMARK.json the script prints each side's median and quartiles
over its untraced runs, the fraction of pairs the change wins (runs are
paired by seed, else by order) and a verdict:
  improved    the change wins >= 9/10 of the pairs and the medians differ by
              more than the parent's interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every change run beats every parent run;
  unchanged   otherwise.
Any rise in failed_frac ((failed + rejected) / attempted) is flagged. When
both sides hold traced runs of a workload, each improved or regressed metric
is followed by the per-layer metrics that layer_map.json says should move it
on that workload, with both sides' medians. Exits 1 when a metric regressed
or failed_frac rose.
"""
import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(path):
    """Untraced and traced runs by workload, each list sorted by seed."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    untraced, traced = defaultdict(list), defaultdict(list)
    for name in files:
        with open(name) as f:
            run = json.load(f)
        (traced if run.get("trace") else untraced)[run["workload"]].append(run)
    for runs in (untraced, traced):
        for workload in runs:
            runs[workload].sort(key=lambda r: r["seed"])
    return untraced, traced


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in parent}
    matched = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    return matched if matched else list(zip(parent, change))


def verdict(metric, parent, change):
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    p = [r["end_to_end"][name]["value"] for r in parent]
    c = [r["end_to_end"][name]["value"] for r in change]
    pq, cq = quartiles(p), quartiles(c)
    sign = 1 if higher else -1
    matched = pairs(parent, change)
    wins = sum(1 for a, b in matched
               if sign * (b["end_to_end"][name]["value"] - a["end_to_end"][name]["value"]) > 0)
    gain = sign * (cq[1] - pq[1])  # > 0: the change is better
    spread = max((pq[2] - pq[0]) / pq[1] if pq[1] else 0, (cq[2] - cq[0]) / cq[1] if cq[1] else 0)
    all_better = (min(c) > max(p)) if higher else (max(c) < min(p))
    if spread > bound and not all_better:
        result = "unresolved"
    elif matched and wins >= 0.9 * len(matched) and gain > pq[2] - pq[0]:
        result = "improved"
    elif pq[1] and -gain / pq[1] > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return pq, cq, wins, len(matched), spread, result


def failed_frac(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def load_layer_map(per_layer):
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    names = {m["name"] for m in per_layer}
    if set(layer_map) != names:
        sys.exit("compare.py: layer_map.json and the per_layer metrics of BENCHMARK.json "
                 f"differ in {sorted(set(layer_map) ^ names)}")
    return layer_map


def attribution(metric, workload, parent, change, layer_map):
    """Lines for the per-layer metrics that should move `metric` on `workload`."""
    lines = []
    for layer, entry in layer_map.items():
        if metric not in entry["moves"] or workload not in entry["workloads"]:
            continue
        p = statistics.median(r["metrics"][layer]["value"] for r in parent)
        c = statistics.median(r["metrics"][layer]["value"] for r in change)
        unit = parent[0]["metrics"][layer]["unit"]
        lines.append(f"{'':15}   {layer:44} {p:12.4g} -> {c:12.4g} {unit}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)
    layer_map = load_layer_map(benchmark["per_layer"])
    parent, parent_traced = load(args.parent)
    change, change_traced = load(args.change)

    bad = False
    print(f"{'workload':15} {'metric':14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6} {'spread':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        traced = parent_traced.get(workload) and change_traced.get(workload)
        for metric in benchmark["end_to_end"]:
            pq, cq, wins, n, spread, result = verdict(metric, parent[workload], change[workload])
            bad = bad or result == "regressed"
            print(f"{workload:15} {metric['name']:14} "
                  f"{pq[1]:12.4g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
                  f"{cq[1]:12.4g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                  f"{wins:>2}/{n:<3} {spread * 100:6.1f}%  {result}")
            if traced and result in ("improved", "regressed"):
                for line in attribution(metric["name"], workload, parent_traced[workload],
                                        change_traced[workload], layer_map):
                    print(line)
        pf, cf = failed_frac(parent[workload]), failed_frac(change[workload])
        if cf > pf:
            bad = True
            print(f"{workload:15} failed_frac rose: {pf:.3g} -> {cf:.3g}")
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload:15} present on one side only; not compared")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
