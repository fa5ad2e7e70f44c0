"""The gstruct benchmark: one seeded workload per run, checked, with every metric by name and unit.

usage: python3 perfbench/run.py --workload {analyze-m4,analyze-tori,cold-cli}
           --seed N --seconds S --trace {0,1} [--blas-threads T]

Runs the package from the source tree (`src/`, not installed), one process
at a time, closed loop with one client.  Every process it starts has
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=T (T=1 unless --blas-threads says
otherwise; 0 leaves the libraries' defaults).  Workloads:

  analyze-m4    in-process `cli.main(["analyze", "M4", ...])`, fresh draws
  analyze-tori  the same over M1, M2, M3, M1 with unequal alpha2..alpha8
                (exit 2), M2, M3
  cold-cli      fresh `python -m gstruct.cli` processes over a fixed list

Times are host-speed calibrated (hostspeed.py): a fixed kernel is timed
next to each op and set-up, and each time is scaled to a host on which the
kernel takes hostspeed.REFERENCE_MS; the detail record keeps the raw ones.
Every op's exit code and output are checked against the catalog after the
timed loop (workloads.py).  stdout gets two JSON lines: a detail record
(environment, all statistics, the whole layer table of a traced run), then
the result line {"correct", "attempted", "failed", "metrics"} with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  A
traced run also writes its spans under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spantrace import merge_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# A warm run is split over this many processes, so set-up is measured that
# many times; cold-cli times `import gstruct.cli` this many times.
SETUPS = 5
CHILD_TIMEOUT_S = 150
CUBICS_SNIPPET = "import gstruct.reps as r; print(len(r.invariant_cubics()))"

# Per-layer metrics: self time and counts per timed op ...
PER_OP_SELF_MS = (
    "cli.main",
    "spaces.build",
    "connections.solve_equivariant",
    "linalg.nullspace",
    "connections.characteristic_connection",
    "connections.torsion",
    "connections.classify_type",
    "connections.torsion_is_parallel",
    "connections.holonomy_algebra",
    "reps.pack_so",
    "reps.unpack_so",
    "curvature.curvature_report",
    "spin.invariant_spinors",
    "spin.spin_lift",
    "spin.torsion_clifford",
    "spin.dirac_on_invariants",
)
PER_OP_CALLS = ("linalg.nullspace", "spin.invariant_spinors")
PER_OP_CELLS = ("linalg.nullspace",)
# ... and self time per process, for the work a process does once and caches.
PER_PROCESS_SELF_MS = ("sp3.load", "reps.lambda3_action", "reps.isotypic_decompose", "reps.casimir",
                       "linalg.eig_selfadjoint")


def per_layer_units():
    units = {f"{n}.self_ms": "ms" for n in PER_OP_SELF_MS}
    units.update({f"{n}.calls": "count" for n in PER_OP_CALLS})
    units.update({f"{n}.cells": "count" for n in PER_OP_CELLS})
    units.update({f"{n}.self_ms_per_process": "ms" for n in PER_PROCESS_SELF_MS})
    units["cli.import_ms"] = "ms"
    return units


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


def child(cmd, env):
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_warm(args, env):
    parts = []
    for stream in range(SETUPS):
        cmd = [sys.executable, str(HERE / "warm.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--stream", str(stream),
               "--seconds", str(args.seconds / SETUPS)]
        if args.trace:
            cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}-p{stream}.json")]
        proc = child(cmd, env)
        if proc.returncode != 0:
            fail(f"{args.workload} process {stream} exited {proc.returncode}: {proc.stderr[-2000:]}")
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    run = {
        "setups_s": [p["setup_s"] for p in parts],
        "setup_factors": [p["setup_factor"] for p in parts],
        "latencies_ms": [x for p in parts for x in p["latencies_ms"]],
        "factors": [x for p in parts for x in p["factors"]],
        "exit_codes": [x for p in parts for x in p["exit_codes"]],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": [x for p in parts for x in p["problems"]][:5],
        "processes": len(parts),
    }
    if args.trace:
        run["layers_ops"] = merge_totals(p["layers_ops"] for p in parts)
        run["layers_process"] = merge_totals(p["layers_process"] for p in parts)
        run["import_ms"] = [p["import_s"] * 1e3 * p["setup_factor"] for p in parts]
    return run


def run_cold(args, env):
    import hostspeed  # here, after main() pinned this process's BLAS threads

    setups, setup_kernels = [], []
    for _ in range(SETUPS):
        setup_kernels.append(hostspeed.measure())
        start = time.perf_counter()
        proc = child([sys.executable, "-c", "import gstruct.cli"], env)
        setups.append(time.perf_counter() - start)
        if proc.returncode != 0:
            fail(f"import gstruct.cli exited {proc.returncode}: {proc.stderr[-2000:]}")

    rng = workloads.op_rng(args.seed, 0)
    done = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        for argv in workloads.cold_round(rng):
            kernel = hostspeed.measure()
            if args.trace:
                spans = OUT / f"spans-cold-cli-seed{args.seed}-op{len(done) + 1}.json"
                cmd = [sys.executable, str(HERE / "cold.py"), str(spans), *argv]
            elif argv[0] == workloads.CUBICS:
                cmd = [sys.executable, "-c", CUBICS_SNIPPET]
            else:
                cmd = [sys.executable, "-m", "gstruct.cli", *argv]
            start = time.perf_counter()
            proc = child(cmd, env)
            done.append((argv, proc, time.perf_counter() - start, kernel))

    factors = hostspeed.factors([d[3] for d in done])
    run = {"setups_s": setups, "setup_factors": hostspeed.factors(setup_kernels, width=SETUPS),
           "latencies_ms": [d[2] * 1e3 for d in done], "factors": factors,
           "commands": [workloads.command_key(d[0]) for d in done],
           "exit_codes": [], "attempted": len(done), "failed": 0, "problems": [],
           "processes": len(done)}
    layers, import_ms = [], []
    for (argv, proc, _, _), factor in zip(done, factors):
        rc, out = proc.returncode, proc.stdout
        if args.trace and rc == 0:
            traced = json.loads(out)
            rc, out = traced["rc"], traced["out"]
            layers.append((traced["layers"], factor))
            import_ms.append(traced["import_ms"] * factor)
        run["exit_codes"].append(rc)
        problem = workloads.check(argv, rc, out)
        if problem:
            run["failed"] += 1
            run["problems"].append(f"{' '.join(argv)}: {problem} {proc.stderr[-300:]}")
    run["problems"] = run["problems"][:5]
    if args.trace:
        run["layers_ops"] = run["layers_process"] = merge_totals(
            [t for t, _ in layers], [f for _, f in layers])
        run["import_ms"] = import_ms
    return run


def command_medians(latencies_ms, commands):
    """{command: median op time} over the ops of each command of cold-cli's list."""
    by_command = {}
    for x, c in zip(latencies_ms, commands):
        by_command.setdefault(c, []).append(x)
    return {c: statistics.median(v) for c, v in by_command.items()}


def end_to_end(setups_s, latencies_ms, commands=None):
    """With `commands` (cold-cli), the percentiles are taken over the median
    time of each command of the fixed list, not over single ops: the list
    mixes 0.2-s and 2-s commands, and the median op would sit in a gap
    between them."""
    typical = latencies_ms
    if commands:
        typical = list(command_medians(latencies_ms, commands).values())
    return {
        "setup_s": statistics.median(setups_s),
        "ops_per_s": 1e3 * len(latencies_ms) / sum(latencies_ms),
        "op_p50_ms": statistics.median(typical),
        "op_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[-1],
    }


def layer_table(totals, count):
    return {name: {"calls": t["calls"] / count, "self_ms": t["self_ns"] / 1e6 / count,
                   "total_ms": t["total_ns"] / 1e6 / count, "cells": t["cells"] / count}
            for name, t in sorted(totals.items())}


def per_layer(run):
    ops = layer_table(run["layers_ops"], len(run["latencies_ms"]))
    procs = layer_table(run["layers_process"], run["processes"])
    zero = {"calls": 0.0, "self_ms": 0.0, "cells": 0.0}
    values = {f"{n}.self_ms": ops.get(n, zero)["self_ms"] for n in PER_OP_SELF_MS}
    values.update({f"{n}.calls": ops.get(n, zero)["calls"] for n in PER_OP_CALLS})
    values.update({f"{n}.cells": ops.get(n, zero)["cells"] for n in PER_OP_CELLS})
    values.update({f"{n}.self_ms_per_process": procs.get(n, zero)["self_ms"]
                   for n in PER_PROCESS_SELF_MS})
    values["cli.import_ms"] = statistics.fmean(run["import_ms"])
    return values, ops


def hostspeed_ms(factors):
    """Median time of the host-speed kernel next to the ops, in ms."""
    import hostspeed

    return hostspeed.REFERENCE_MS / statistics.median(factors)


def git_head():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment(env):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: env.get(v) for v in THREAD_VARS},
        "git_head": git_head(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="BLAS/OpenMP threads of every process; 0 keeps the library default")
    args = ap.parse_args()
    if not (SRC / "gstruct" / "cli.py").is_file():
        fail(f"no gstruct source tree at {SRC}")

    env = dict(os.environ)
    for var in THREAD_VARS:
        env.pop(var, None)
        if args.blas_threads:
            env[var] = str(args.blas_threads)
    env["PYTHONPATH"] = str(SRC)
    # This process imports gstruct for the checks; pin it like its children.
    for var in THREAD_VARS:
        os.environ.pop(var, None)
        if var in env:
            os.environ[var] = env[var]
    sys.path.insert(0, str(SRC))
    machine = environment(env)
    if args.blas_threads == 1:
        # One CPU for this process and every child: the vCPUs of a shared host
        # change speed independently, and the host-speed kernel must run on
        # the CPU that runs the ops.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    machine["cpus_used"] = sorted(os.sched_getaffinity(0))
    if args.trace:
        OUT.mkdir(exist_ok=True)

    load_start = loadavg()
    run = run_cold(args, env) if args.workload == "cold-cli" else run_warm(args, env)
    latencies = [x * f for x, f in zip(run["latencies_ms"], run["factors"])]
    e2e = end_to_end([s * f for s, f in zip(run["setups_s"], run["setup_factors"])],
                     latencies, run.get("commands"))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": machine,
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "end_to_end": e2e,
        "raw_end_to_end": end_to_end(run["setups_s"], run["latencies_ms"], run.get("commands")),
        "host_kernel_ms_median": hostspeed_ms(run["factors"]),
        "failed_ratio": run["failed"] / run["attempted"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "exit_code_counts": {str(c): run["exit_codes"].count(c) for c in sorted(set(run["exit_codes"]))},
        "timed_ops": len(run["latencies_ms"]),
        "problems": run["problems"],
    }
    if "commands" in run:
        detail["command_ms"] = command_medians(latencies, run["commands"])
    if args.trace:
        metrics, table = per_layer(run)
        units = per_layer_units()
        detail["layers"] = table
        detail["sum_self_ms_per_op"] = sum(t["self_ms"] for t in table.values())
    else:
        metrics, units = e2e, END_TO_END_UNITS
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
