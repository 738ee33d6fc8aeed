#!/usr/bin/env python3
"""Compare two e2ebench results logs.

    python3 e2ebench/compare.py BASE.jsonl NEW.jsonl

Each log holds lines appended by the benchmark to .bench_out/results.jsonl.
Untraced results are grouped by workload. For every end-to-end metric the
script prints both medians, both quartile spreads (IQR / median) and whether
NEW is within the bound BENCHMARK.json sets. Results whose host fingerprint
id differs from the first one's are flagged and left out of the comparison.
Exits 1 if any metric is worse than its bound, 3 if any result was flagged.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench = json.loads(BENCHMARK.read_text())
    metrics = bench["end_to_end"]
    base, new = load(sys.argv[1]), load(sys.argv[2])
    rows = [r for r in base + new if r["trace"] == 0]
    if not rows:
        sys.exit("no untraced results in either log")
    host = rows[0]["fingerprint"]["id"]
    flagged = [r for r in rows if r["fingerprint"]["id"] != host]
    for r in flagged:
        print(f"FLAGGED: {r['workload']} seed {r['seed']} ran on host {r['fingerprint']['id']}, "
              f"not {host}; not compared")
    worse = False
    for workload in sorted({r["workload"] for r in rows}):
        sides = []
        for log in (base, new):
            sides.append([r["result"] for r in log if r["trace"] == 0
                          and r["workload"] == workload
                          and r["fingerprint"]["id"] == host])
        if not all(sides):
            print(f"{workload}: missing results on one side")
            continue
        fails = [sum(1 for r in side if not r["correct"]) for side in sides]
        print(f"{workload}: {len(sides[0])} vs {len(sides[1])} runs, "
              f"incorrect {fails[0]} vs {fails[1]}")
        for m in metrics:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            vals = [[r["metrics"][name]["value"] for r in side] for side in sides]
            b, n = statistics.median(vals[0]), statistics.median(vals[1])
            change = (n - b) / b if b else 0.0
            regress = (-change if higher else change) > bound
            worse |= regress
            print(f"  {name:16s} {b:14.4f} -> {n:14.4f} {change:+8.2%} "
                  f"(spread {spread(vals[0]):.1%} / {spread(vals[1]):.1%}, bound {bound:.0%})"
                  f"{'  WORSE' if regress else ''}")
    sys.exit(3 if flagged else 1 if worse else 0)


if __name__ == "__main__":
    main()
