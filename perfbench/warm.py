"""One process of a warm workload (analyze-m4, analyze-tori).

Imports gstruct.cli, runs one untimed warm-up op, then runs whole rounds of
in-process `cli.main(argv)` calls with stdout captured until its share of
the run's seconds is used, timing the host-speed kernel (hostspeed.py)
before each op.  Outputs are checked after the loop.  Prints one JSON
object on stdout: raw times and their host-speed factors.  Started by
run.py with the BLAS threads pinned.
"""

from __future__ import annotations

import argparse
import io
import json
import time
from contextlib import redirect_stdout

import workloads
from spantrace import Tracer, layer_totals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WARM_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", default=None, help="trace, and write the spans to this file")
    args = ap.parse_args()

    t0 = time.perf_counter()
    from gstruct import cli

    import_s = time.perf_counter() - t0
    import hostspeed  # after the timed import: it imports numpy

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    def run(argv, op_id):
        buf = io.StringIO()
        if tracer:
            tracer.op = op_id
        start = time.perf_counter()
        with redirect_stdout(buf):
            rc = cli.main(argv)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.op = None
        return argv, rc, buf.getvalue(), elapsed

    rng = workloads.op_rng(args.seed, args.stream)
    warmup = run(workloads.warm_round(args.workload, rng)[0], 0)
    setup_factor = hostspeed.REFERENCE_MS / hostspeed.measure()

    records, kernel_times = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for argv in workloads.warm_round(args.workload, rng):
            kernel_times.append(hostspeed.measure())
            records.append(run(argv, len(records) + 1))
    factors = dict(enumerate(hostspeed.factors(kernel_times), start=1))

    problems = []
    for argv, rc, out, _ in [warmup, *records]:
        problem = workloads.check(argv, rc, out)
        if problem:
            problems.append(f"{' '.join(argv)}: {problem}")
    result = {
        "import_s": import_s,
        "setup_s": import_s + warmup[3],
        "setup_factor": setup_factor,
        "latencies_ms": [r[3] * 1e3 for r in records],
        "factors": list(factors.values()),
        "exit_codes": [r[1] for r in records],
        "attempted": len(records) + 1,
        "failed": len(problems),
        "problems": problems[:5],
    }
    if tracer:
        tracer.dump(args.spans)
        result["layers_ops"] = layer_totals(tracer.spans, factors)
        result["layers_process"] = layer_totals(tracer.spans, {0: setup_factor, **factors})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
