"""Seeded op schedules of the benchmark workloads, and the checks of every
op's output against the closed forms of the catalog.

An op is one gstruct command, given as its argv.  Ops come in rounds; a run
checks the clock only between rounds, so every run is made of whole rounds
and per-op means of call counts repeat exactly for a given seed.

The schedule functions use only the standard library.  The checks import
gstruct and numpy, so call them only in a process whose BLAS threads are
already pinned.
"""

from __future__ import annotations

import json
import random

# Metric coefficients are drawn uniformly from this range.
LO, HI = 0.6, 1.8
CUBICS = "invariant_cubics"  # marker for the fresh-process reps.invariant_cubics() op
COLD_COMMANDS = (
    ("decompose", "lambda3"),
    ("decompose", "v14xv70"),
    ("theta", "sp3"),
    ("theta", "su3-adjoint"),
    ("subgroups",),
    ("liegroup", "su2"),
    ("liegroup", "su3"),
    ("liegroup", "su2+su2"),
    ("verify",),
    (CUBICS,),
)
# One op in six of analyze-tori is an M1 draw with unequal alpha2..alpha8.
TORI_ROUND = ("M1", "M2", "M3", "M1-unequal", "M2", "M3")
WARM_ROUNDS = {"analyze-m4": ("M4",), "analyze-tori": TORI_ROUND}
WORKLOADS = ("analyze-m4", "analyze-tori", "cold-cli")
EXTRA_ALPHAS = {"M1": 7, "M2": 5, "M3": 5, "M4": 0}

# Catalog values of the representation-theory commands.
LAMBDA3_TABLE = {-8: 21, -12: 70, -16: 189, -18: 84}
V14_V70_DIMS = [14, 21, 70, 84, 90, 189, 512]
THETA_KERNEL = {"sp3": 0, "su3-adjoint": 1}
THETA_SP3_RANK = 364
LIEGROUP_KERNEL = {"su2": 1, "su3": 1, "su2+su2": 2}
SUBGROUP_ROWS = 5
VERIFY_LINE = "75/75 checks passed"
INVARIANT_CUBICS_DIM = 1
REL = 1e-8  # relative tolerance of the float checks, as in `gstruct verify`


def op_rng(seed: int, stream: int) -> random.Random:
    """Independent generator per (seed, stream); a stream is one process of a run."""
    return random.Random(f"gstruct-bench-{seed}-{stream}")


def analyze_argv(space: str, rng: random.Random) -> list:
    unequal = space.endswith("-unequal")
    space = space.removesuffix("-unequal")
    a, b, g = (rng.uniform(LO, HI) for _ in range(3))
    argv = ["analyze", space, "--alpha", repr(a), "--beta", repr(b), "--gamma", repr(g)]
    if unequal:
        for i in range(2, 2 + EXTRA_ALPHAS[space]):
            argv += [f"--alpha{i}", repr(rng.uniform(LO, HI))]
    return argv


def warm_round(workload: str, rng: random.Random) -> list:
    return [analyze_argv(space, rng) for space in WARM_ROUNDS[workload]]


def cold_round(rng: random.Random) -> list:
    """analyze on M1..M4 plus an infeasible M1, then the fixed command list."""
    ops = [analyze_argv(space, rng) for space in ("M1", "M2", "M3", "M4", "M1-unequal")]
    return ops + [list(c) for c in COLD_COMMANDS]


def command_key(argv: list) -> str:
    """The op's command without its drawn coefficients, e.g. "analyze M1 unequal"."""
    if argv[0] == "analyze":
        return f"analyze {argv[1]}" + (" unequal" if "--alpha2" in argv else "")
    return " ".join(argv)


def check(argv: list, rc: int, out: str):
    """None when the op's exit code and output match the catalog, else a description."""
    try:
        if argv[0] == "analyze":
            return _check_analyze(argv, rc, out)
        if rc != 0:
            return f"exit {rc}"
        return _check_command(argv, out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_command(argv, out):
    cmd = argv[0]
    if cmd == CUBICS:
        return None if int(out) == INVARIANT_CUBICS_DIM else f"{out.strip()} invariant cubics"
    if cmd == "verify":
        last = out.strip().splitlines()[-1]
        return None if last == VERIFY_LINE else last
    rep = json.loads(out)
    sel = argv[1] if len(argv) > 1 else None
    if cmd == "decompose" and sel == "lambda3":
        got = {round(p["casimir_eigenvalue"]): p["dim"] for p in rep["parts"]}
        ok = got == LAMBDA3_TABLE
    elif cmd == "decompose":
        got = sorted(p["dim"] for p in rep["parts"])
        ok = got == V14_V70_DIMS
    elif cmd == "theta":
        got = (rep["rank"], rep["kernel_dim"])
        ok = rep["kernel_dim"] == THETA_KERNEL[sel] and (sel != "sp3" or rep["rank"] == THETA_SP3_RANK)
    elif cmd == "subgroups":
        got = [row["match"] for row in rep["rows"]]
        ok = len(got) == SUBGROUP_ROWS and all(got)
    elif cmd == "liegroup":
        got = (rep["theta_kernel_dim"], rep["torsion_family_size"], rep["family_in_kernel_residuals"])
        ok = (rep["theta_kernel_dim"] == rep["torsion_family_size"] == LIEGROUP_KERNEL[sel]
              and all(r <= 1e-9 for r in rep["family_in_kernel_residuals"]))
    else:
        return f"no check for {cmd}"
    return None if ok else f"got {got}"


def _check_analyze(argv, rc, out):
    import numpy as np
    from gstruct import spaces

    opts = dict(zip(argv[2::2], argv[3::2]))
    sid = spaces.canonical_id(argv[1])
    alphas = tuple(float(opts[f"--alpha{i}"]) for i in range(2, 9) if f"--alpha{i}" in opts)
    p = spaces.MetricParams(alpha=float(opts["--alpha"]), alphas=alphas,
                            beta=float(opts["--beta"]), gamma=float(opts["--gamma"]))
    fx = spaces.fixtures(sid)
    feasible = fx.char_feasible(p)
    if rc != (0 if feasible else 2):
        return f"exit {rc}, expected {0 if feasible else 2}"
    rep = json.loads(out)
    problems = []

    def equal(label, got, want):
        if got != want:
            problems.append(f"{label} {got} vs {want}")

    def close(label, got, want, scale):
        dev = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
        if dev > REL * scale:
            problems.append(f"{label} dev {dev:.2e}")

    equal("family_dim", rep["family_dim"], fx.expected_family_dim)
    equal("characteristic.exists", rep["characteristic"]["exists"], feasible)
    equal("invariant spinors", rep["spin"]["invariant_dim"], fx.expected_spinor_dim)
    if feasible:
        curv = rep["curvature"]
        scale = max(1.0, abs(fx.scal_riem(p)))
        close("scal_riem", curv["scal_riem"], fx.scal_riem(p), scale)
        close("scal_conn", curv["scal_conn"], fx.scal_conn(p), scale)
        close("ricci_riem_diag", curv["ricci_riem_diag"], fx.ricci_riem(p), scale)
        close("ricci_conn_diag", curv["ricci_conn_diag"], fx.ricci_conn(p), scale)
        equal("holonomy", (rep["holonomy"]["dim"], rep["holonomy"]["label"]), fx.holonomy(p))
        equal("parallel", rep["torsion"]["parallel"], fx.parallel(p))
        if "dirac" in fx.extras:
            lam = fx.extras["dirac"](p)
            close("dirac", np.abs(rep["spin"]["dirac_eigenvalues"]), lam, max(1.0, lam))
    else:
        equal("torsion", rep["torsion"], None)
        equal("holonomy", rep["holonomy"], None)
    return "; ".join(problems) or None
