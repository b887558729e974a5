#!/usr/bin/env python3
"""Summarizes a spans file written by a traced benchmark run.

Usage: python3 perfbench/spans.py .bench_out/spans_campus_day.jsonl

For every span name: count, total host ms, self ms (the span minus the
part of it its children cover), and p50/p99 duration in microseconds.
Then, for the executor runs, the share of wall time during which 0, 1, 2,
... op steps were executing at once.
"""

import json
import sys
from collections import defaultdict


def pct(sorted_values, p):
    if not sorted_values:
        return 0
    rank = max(1, -(-int(p * 1000) * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def main(path):
    spans = [json.loads(line) for line in open(path)]
    children = defaultdict(int)
    for s in spans:
        if s["parent"]:
            children[(s["op"], s["parent"])] += s["end_ns"] - s["start_ns"]
    by_name = defaultdict(list)
    self_ns = defaultdict(int)
    for s in spans:
        d = s["end_ns"] - s["start_ns"]
        key = ("root:" if s["parent"] == 0 else "") + s["name"]
        by_name[key].append(d)
        self_ns[key] += d - children.get((s["op"], s["id"]), 0)
    print("%-24s %9s %11s %11s %10s %10s" % ("span", "n", "total_ms", "self_ms", "p50_us", "p99_us"))
    for name, ds in sorted(by_name.items(), key=lambda kv: -sum(kv[1])):
        ds.sort()
        print("%-24s %9d %11.1f %11.1f %10.2f %10.2f" % (
            name, len(ds), sum(ds) / 1e6, self_ns[name] / 1e6, pct(ds, 0.5) / 1e3, pct(ds, 0.99) / 1e3))

    runs = [s for s in spans if s["parent"] == 0 and s["name"] == "run_drivers"]
    edges = []
    for s in spans:
        if s["parent"] == 0 and s["name"] == "step":
            edges += [(s["start_ns"], 1), (s["end_ns"], -1)]
    edges.sort()
    share = defaultdict(int)
    for run in runs:
        level, last = 0, run["start_ns"]
        for t, delta in edges:
            if t < run["start_ns"] or t > run["end_ns"]:
                continue
            share[level] += t - last
            level, last = level + delta, t
        share[level] += run["end_ns"] - last
    wall = sum(share.values())
    if wall:
        print("executor wall %.3f s; share of it with n steps executing:" % (wall / 1e9))
        for n in sorted(share):
            print("  %d: %.3f" % (n, share[n] / wall))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
