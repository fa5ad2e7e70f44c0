"""Command-line front end: machine-readable analysis reports per space and
parameter choice, plus standalone representation-theory commands.

Exit codes: 0 success, 1 usage error, closed stdout or parameters whose
values overflow float64, 2 infeasible-but-valid analysis, 3 internal
invariant violation.  Reports are deterministic: identical
invocations produce byte-identical JSON (fixed field order, floats
rendered to 15 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import BadParams, GstructError, StructureViolation
from .linalg import ToleranceProfile


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float15(x) -> float:
    """The one rounding rule of a report: a float to 15 significant digits.
    A non-finite one has no JSON form and raises, and so does one above
    1.797693134862315e308 in magnitude, which rounds up to inf."""
    y = float(f"{float(x):.15g}")
    if not math.isfinite(y):
        raise GstructError(f"the report holds a non-finite value ({y}): the parameters overflow")
    return y


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _text(obj, pad=None) -> str:
    """The text of a report value in one walk, every float through
    ``_float15``: JSON with an indent of 2, pad the newline and indent of the
    line obj starts on (the bytes that json.dumps writes at indent=2), or
    with pad None Python's ``str`` of it.  Tuples and arrays read as lists and
    numpy scalars as Python numbers."""
    if isinstance(obj, (float, np.floating)):
        return repr(_float15(obj))
    if isinstance(obj, str):
        return repr(obj) if pad is None else encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return repr(obj) if pad is None else _JSON_WORDS[obj]
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, np.ndarray):
        return _text(obj.tolist(), pad)
    inner = None if pad is None else pad + "  "
    if isinstance(obj, dict):
        # a key is a str: json.dumps would coerce another type, here the JSON form refuses it
        parts = [f"{repr(k) if pad is None else encode_basestring_ascii(k)}: {_text(v, inner)}"
                 for k, v in obj.items()]
        ends = "{}"
    elif isinstance(obj, (list, tuple)):
        parts = [_text(v, inner) for v in obj]
        ends = "[]"
    else:
        raise TypeError(f"a report holds no {type(obj).__name__}")
    if pad is None or not parts:
        return ends[0] + ", ".join(parts) + ends[1]
    return ends[0] + inner + ("," + inner).join(parts) + pad + ends[1]


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(_text(report, "\n"))
        return

    def walk(prefix, obj):  # (dotted key, value) of every leaf
        if not isinstance(obj, dict):
            return [(prefix, obj)]
        return [leaf for k, v in obj.items() for leaf in walk(f"{prefix}.{k}" if prefix else k, v)]

    lines = [(k, v if isinstance(v, str) else _text(v)) for k, v in walk("", report)]
    width = max(len(k) for k, _ in lines)
    print("\n".join(f"{k:<{width}}  {v}" for k, v in lines))


def _tolerance(args) -> ToleranceProfile:
    """The rank tolerance of --tol, else of GSTRUCT_TOL; an unparsable or
    out-of-range value is a usage error."""
    rank_tol = args.tol if args.tol is not None else os.environ.get("GSTRUCT_TOL") or None
    if rank_tol is None:
        return ToleranceProfile()
    try:
        return ToleranceProfile(rank_tol=float(rank_tol))
    except ValueError as exc:
        raise BadParams(f"invalid rank tolerance: {exc}") from exc


def _params_from_args(sid: str, args):
    from . import spaces

    # the n extra coefficients are --alpha2..--alpha(1+n), all of them or none
    extra_count = spaces._EXTRA_ALPHAS[sid]
    given = [i for i in range(2, 9) if getattr(args, f"alpha{i}") is not None]
    if given and given != list(range(2, 2 + extra_count)):
        takes = f"--alpha2..--alpha{1 + extra_count}, all or none" if extra_count else "no --alphaN flag"
        got = ", ".join(f"--alpha{i}" for i in given)
        raise GstructError(f"{sid} takes {takes}; got {got}")
    return spaces.MetricParams(
        alpha=args.alpha, alphas=tuple(getattr(args, f"alpha{i}") for i in given), beta=args.beta, gamma=args.gamma
    )


def cmd_analyze(args) -> int:
    from . import analysis, spaces

    tol = _tolerance(args)
    sid = spaces.canonical_id(args.space)
    params = _params_from_args(sid, args)
    res = analysis.Analysis(spaces.build(sid, params, tol), tol)
    # each stage is computed on first read: a switched-off section is never read
    family, conn, T, parallel = res.family, res.conn, res.torsion, res.parallel
    hol = None if args.no_holonomy else res.holonomy
    crep = None if args.no_curvature else res.curvature
    sub = None if args.no_spin else res.spinors
    drep = None if sub is None else res.dirac
    # the estimates use the scalar curvature: without that section they stay null
    est = res.estimates if drep is not None and crep is not None else None
    est = {} if est is None else est._asdict()
    report = {
        "space_id": sid,
        "params": {
            "alpha": params.alpha,
            "alphas": list(params.alphas),
            "beta": params.beta,
            "gamma": params.gamma,
        },
        "family_dim": len(family),
        "characteristic": {
            "exists": conn is not None,
            "lambda_nonzero_entries": (
                [[j, a, c] for j, a, c in conn.nonzero_entries()] if conn else None
            ),
        },
        "torsion": None if T is None else {
            "norm2": T.norm2_increasing,
            "type_components": {str(k): v for k, v in sorted(res.type_components.items())},
            "parallel": parallel[0],
        },
        "holonomy": None if hol is None else {"dim": hol.dim, "label": hol.label},
        "curvature": None if crep is None else {
            "ricci_conn_diag": None if conn is None else np.diag(crep.ricci_conn),
            "ricci_riem_diag": np.diag(crep.ricci_riem),
            "scal_conn": None if conn is None else crep.scal_conn,
            "scal_riem": crep.scal_riem,
            "einstein_defect": crep.einstein_defect,
        },
        "spin": None if sub is None else {"invariant_dim": sub.dim},
    }
    if drep is not None:
        report["spin"].update(
            {
                "dirac_eigenvalues": drep.eigenvalues,
                "mu": float(np.max(np.abs(drep.torsion_op_eigenvalues))),
                "torsion_norm2": drep.torsion_norm2,
                "friedrich_rhs": est.get("friedrich_rhs"),
                "twistor_rhs": est.get("twistor_rhs"),
                "equality_flags": {
                    "friedrich_equality": est.get("friedrich_equality"),
                    "twistor_strict": est.get("twistor_strict"),
                },
                "parallel_spinor_dim": drep.parallel_spinor_dim,
            }
        )
    _emit(report, args.format)
    return 0 if conn is not None else 2


def cmd_decompose(args) -> int:
    from . import reps

    tol = _tolerance(args)
    if args.selector == "lambda3":
        dec = reps.lambda3_decomposition(tol)
    else:
        dec = reps.decompose_casimir(reps.v14_v70_casimir(), tol)
    _emit(
        {
            "selector": args.selector,
            "total_dim": dec.dim,
            "parts": [{"casimir_eigenvalue": ev, "dim": d} for ev, d, _ in dec.parts],
        },
        args.format,
    )
    return 0


def cmd_theta(args) -> int:
    from . import groups, linalg, reps, sp3

    tol = _tolerance(args)
    if args.selector == "sp3":
        theta = reps.theta_entries(reps.so_complement(sp3.load().rho, tol))
        kernel = linalg.nullspace_entries(*theta, tol)
    else:
        kernel, theta = groups.theta_kernel_adjoint(groups.su_algebra(3), tol)
    shape, kdim = theta[3], kernel.shape[1]
    _emit(
        {
            "selector": args.selector,
            "shape": list(shape),
            "rank": shape[1] - kdim,
            "kernel_dim": kdim,
        },
        args.format,
    )
    return 0


def cmd_subgroups(args) -> int:
    from . import reps, sp3

    tol = _tolerance(args)
    rows = []
    ok = True
    for row in sp3.subgroup_rows():
        got = reps.subgroup_decompose(row, tol)
        match = tuple(sorted(got)) == tuple(sorted(row.expected_blocks))
        ok = ok and match
        rows.append(
            {
                "name": row.name,
                "computed_blocks": sorted(got, reverse=True),
                "expected_blocks": sorted(row.expected_blocks, reverse=True),
                "match": match,
            }
        )
    _emit({"rows": rows}, args.format)
    return 0 if ok else 3


# selector: (its algebra from the ``groups`` module, the partition of its simple ideals)
_LIEGROUP_ALGEBRAS = {
    "su2": (lambda groups: groups.su_algebra(2), ((0, 1, 2),)),
    "su3": (lambda groups: groups.su_algebra(3), (tuple(range(8)),)),
    "su2+su2": (lambda groups: groups.su2_plus_su2(), ((0, 1, 2), (3, 4, 5))),
}


def cmd_liegroup(args) -> int:
    from . import groups

    tol = _tolerance(args)
    build, partition = _LIEGROUP_ALGEBRAS[args.selector]
    alg = build(groups)
    kernel, (rows, cols, vals, shape) = groups.theta_kernel_adjoint(alg, tol)
    family = groups.canonical_torsion_family(alg, partition, tol)
    in_kernel = [float(np.linalg.norm(np.bincount(rows, vals * v[cols], shape[0])) / np.linalg.norm(v))
                 for v in family]
    _emit(
        {
            "selector": args.selector,
            "dim": len(alg),
            "theta_kernel_dim": kernel.shape[1],
            "torsion_family_size": len(family),
            "family_in_kernel_residuals": in_kernel,
        },
        args.format,
    )
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    results = verify_mod.run_all(space=args.space, tol=_tolerance(args))
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 3


@functools.cache
def make_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    p = _Parser(prog="gstruct", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one space at fixed parameters")
    pa.add_argument("space", help="space id or alias (su4-so2/M1, u4-so2so2/M2, ...)")
    pa.add_argument("--alpha", type=float, default=1.0)
    for i in range(2, 9):
        pa.add_argument(f"--alpha{i}", type=float, default=None)
    pa.add_argument("--beta", type=float, default=1.0)
    pa.add_argument("--gamma", type=float, default=1.0)
    pa.add_argument("--no-spin", action="store_true")
    pa.add_argument("--no-curvature", action="store_true")
    pa.add_argument("--no-holonomy", action="store_true")
    pa.set_defaults(func=cmd_analyze)

    pd = sub.add_parser("decompose", help="isotypic decomposition tables")
    pd.add_argument("selector", choices=["lambda3", "v14xv70"])
    pd.set_defaults(func=cmd_decompose)

    pt = sub.add_parser("theta", help="skew-torsion compatibility map ranks/kernels")
    pt.add_argument("selector", choices=["sp3", "su3-adjoint"])
    pt.set_defaults(func=cmd_theta)

    ps = sub.add_parser("subgroups", help="maximal-subgroup module splittings")
    ps.set_defaults(func=cmd_subgroups)

    pl = sub.add_parser("liegroup", help="biinvariant connection families")
    pl.add_argument("selector", choices=sorted(_LIEGROUP_ALGEBRAS))
    pl.set_defaults(func=cmd_liegroup)

    pv = sub.add_parser("verify", help="re-evaluate the catalog's closed-form claims (PASS/FAIL)")
    pv.add_argument("--space", default=None, help="restrict to one space id")
    pv.set_defaults(func=cmd_verify)

    for sp_ in (pa, pd, pt, ps, pl):
        sp_.add_argument("--format", choices=["json", "table"], default="json")
    for sp_ in (pa, pd, pt, ps, pl, pv):
        sp_.add_argument("--tol", type=float, default=None, help="rank tolerance override")
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # the first value to leave float64 stops the command, before any stage runs on inf or nan
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is left goes to devnull at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (StructureViolation,) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: the parameters overflow float64 ({exc})", file=sys.stderr)
        return 1
    except GstructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
