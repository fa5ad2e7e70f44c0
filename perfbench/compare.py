"""Compare two sets of benchmark runs, metric by metric.

usage: python3 perfbench/compare.py BASE NEW

BASE and NEW each hold the stdout of one or more runs of perfbench/run.py
(append runs with >>).  For each workload and end-to-end metric of the
untraced runs it prints both medians, both quartile pairs, the pair win
rate of NEW (the i-th run of NEW against the i-th run of BASE; ties count
for neither) and a verdict, using the bounds of BENCHMARK.json:

  improved    NEW wins at least 9 pairs in 10 and the medians differ by
              more than BASE's quartile distance
  unresolved  either side's quartile distance, as a share of its median,
              is wider than the bound, and not every NEW run beats every
              BASE run
  worse       NEW's median is worse than BASE's by more than the bound
  unchanged   otherwise

Where a file holds both traced and untraced runs of a workload, it also
prints the tracing overhead: traced minus untraced median op_p50_ms.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """{(workload, trace): [detail record, ...]} in file order."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "workload" in rec:
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, new, lower_better, bound):
    sign = 1 if lower_better else -1
    better = [sign * (b - n) > 0 for b, n in zip(base, new)]
    win_rate = sum(better) / len(better)
    mb, mn = statistics.median(base), statistics.median(new)
    (b1, b3), (n1, n3) = quartiles(base), quartiles(new)
    spread = max((b3 - b1) / abs(mb), (n3 - n1) / abs(mn))
    dominates = (max(new) < min(base)) if lower_better else (min(new) > max(base))
    if win_rate >= 0.9 and sign * (mb - mn) > b3 - b1:
        label = "improved"
    elif spread > bound and not dominates:
        label = "unresolved"
    elif sign * (mn - mb) / abs(mb) > bound:
        label = "worse"
    else:
        label = "unchanged"
    return win_rate, label


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':13s} {'metric':10s} {'base p50':>11s} {'base q1..q3':>23s} "
          f"{'new p50':>11s} {'new q1..q3':>23s} {'win':>5s}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get((w, 0), []), new.get((w, 0), [])
        if not b_runs or not n_runs:
            print(f"{w:13s} (no untraced runs in {'BASE' if not b_runs else 'NEW'})")
            continue
        for m in spec["end_to_end"]:
            bv = [r["end_to_end"][m["name"]] for r in b_runs]
            nv = [r["end_to_end"][m["name"]] for r in n_runs]
            pairs = min(len(bv), len(nv))
            win, label = verdict(bv[:pairs], nv[:pairs], m["better"] == "lower", m["bound"])
            bq, nq = quartiles(bv), quartiles(nv)
            print(f"{w:13s} {m['name']:10s} {statistics.median(bv):11.4g} "
                  f"{bq[0]:11.4g}..{bq[1]:<10.4g} {statistics.median(nv):11.4g} "
                  f"{nq[0]:11.4g}..{nq[1]:<10.4g} {win:5.2f}  {label} ({pairs} pairs)")
    for name, runs in (("BASE", base), ("NEW", new)):
        for (w, trace), recs in sorted(runs.items()):
            if trace and (w, 0) in runs:
                traced = statistics.median(r["end_to_end"]["op_p50_ms"] for r in recs)
                plain = statistics.median(r["end_to_end"]["op_p50_ms"] for r in runs[(w, 0)])
                print(f"{name} tracing overhead on {w}: {traced - plain:+.2f} ms op_p50 "
                      f"({traced:.2f} traced vs {plain:.2f} untraced)")


if __name__ == "__main__":
    main()
