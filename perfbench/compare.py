#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric, per workload.

    python3 perfbench/compare.py A.jsonl B.jsonl [--benchmark BENCHMARK.json]

A and B are files written by `run.py --record` (one JSON line per run). For
each workload and each end-to-end metric of BENCHMARK.json the tool prints
the median and quartiles of each set, the change of B's median against A's
(positive = B worse), and a verdict against the metric's bound:

  within     |change| <= bound and both spreads <= bound
  better     B better by more than the bound
  REGRESSION B worse by more than the bound
  unresolved a set's spread (IQR / median) is wider than the bound, so the
             difference cannot be resolved; unless every B run is better
             than every A run, which reads as better

Quartiles are Python's statistics.quantiles(values, n=4). Exits 1 when any
row is a REGRESSION or unresolved, so an A/A comparison of the same code
passes only when every metric is steady within its bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{workload: {metric: [values]}} from a run.py --record file (untraced
    runs only). The host steal of each run, when recorded, is kept under
    the pseudo-metric "steal_frac"."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0):
                continue
            for name, m in rec["result"]["metrics"].items():
                out[rec["workload"]][name].append(float(m["value"]))
            info = rec.get("info") or {}
            if "steal_frac" in info:
                out[rec["workload"]]["steal_frac"].append(float(info["steal_frac"]))
    return out


def summary(values):
    """(median, q1, q3, spread) where spread = (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def verdict(a, b, bound, better):
    """Return (change, verdict) for value lists a (base) and b (candidate).
    change is the relative move of b's median, positive when b is worse."""
    ma, _, _, sa = summary(a)
    mb, _, _, sb = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb - ma) / abs(ma) if ma else float("inf")
    if better == "lower":
        all_better = max(b) < min(a)
    else:
        all_better = min(b) > max(a)
    if sa > bound or sb > bound:
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "REGRESSION"
    if change < -bound:
        return change, "better"
    return change, "within"


def compare(a_runs, b_runs, metrics):
    """Rows (workload, metric, a_summary, b_summary, change, verdict)."""
    rows = []
    for workload in sorted(set(a_runs) | set(b_runs)):
        for m in metrics:
            a = a_runs.get(workload, {}).get(m["name"], [])
            b = b_runs.get(workload, {}).get(m["name"], [])
            if not a or not b:
                rows.append((workload, m["name"], None, None, None, "missing"))
                continue
            change, v = verdict(a, b, m["bound"], m["better"])
            rows.append((workload, m["name"], summary(a), summary(b), change, v))
    return rows


def fmt(s):
    if s is None:
        return "-"
    med, q1, q3, spread = s
    return "%.5g [%.5g, %.5g] %.1f%%" % (med, q1, q3, 100 * spread)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = ap.parse_args()
    with open(args.benchmark, encoding="utf-8") as fp:
        metrics = json.load(fp)["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    rows = compare(a_runs, b_runs, metrics)
    print("%-16s %-16s %6s  %-38s %-38s %8s  %s" % (
        "workload", "metric", "bound", "A median [q1, q3] spread",
        "B median [q1, q3] spread", "change", "verdict"))
    bad = 0
    for workload, name, sa, sb, change, v in rows:
        print("%-16s %-16s %5.0f%%  %-38s %-38s %8s  %s" % (
            workload, name, 100 * bounds[name], fmt(sa), fmt(sb),
            "-" if change is None else "%+.1f%%" % (100 * change), v))
        bad += v in ("REGRESSION", "unresolved", "missing")
    for workload in sorted(set(a_runs) | set(b_runs)):
        sa = a_runs.get(workload, {}).get("steal_frac")
        sb = b_runs.get(workload, {}).get("steal_frac")
        if sa and sb:
            print("%-16s host steal median: A %.1f%%, B %.1f%%" % (
                workload, 100 * statistics.median(sa), 100 * statistics.median(sb)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
