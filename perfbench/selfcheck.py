"""Self-checks of the benchmark.

usage: python3 perfbench/selfcheck.py [--seed N] [--seconds S]

On every workload of BENCHMARK.json:
  1. an untraced run prints exactly the end-to-end metrics of BENCHMARK.json
     and a traced run exactly the per-layer metrics, with their units, and
     both report every op correct;
  2. two traced runs of one seed give identical `.calls` and `.cells`
     metrics (counts per op, over whole rounds, so they repeat exactly).
Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        plain = run(w, args.seed, args.seconds, 0)
        first = run(w, args.seed, args.seconds, 1)
        second = run(w, args.seed, args.seconds, 1)
        for trace, res in ((0, plain), (1, first)):
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics {got} differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{w} trace={trace}: {res['failed']} of {res['attempted']} ops failed")
        for name, m in first["metrics"].items():
            if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]:
                problems.append(f"{w}: {name} {m['value']} then {second['metrics'][name]['value']}")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
