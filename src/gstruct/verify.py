"""The catalog's closed-form claims re-evaluated, one (name, passed,
observed-vs-expected detail) record each.  ``point_checks`` is the one
comparison of an analysed catalog space with ``spaces.fixtures``: the tests
run it at their own points, ``run_all`` (the CLI verify command, 75 records)
at two sample points per space.  The README lists what only the tests check.
"""

from __future__ import annotations

import numpy as np

from . import reps, sp3, spaces
from .analysis import Analysis
from .linalg import DEFAULT_TOL


# the two sample points (alpha, beta, gamma), the same for every space;
# literals rather than a seeded draw keep ``numpy.random`` out of the process
_SAMPLE_POINTS = (
    (0.9139345610991797, 0.958189372096948, 1.5770708887131364),
    (0.7102991305621162, 1.320120631158785, 1.4742726321741535),
)


def _record(results, name, a, check):
    """Append (name, *check()), or a FAIL line when the analysis found no
    characteristic connection to check."""
    ok, detail = check() if a.conn is not None else (False, "no characteristic connection")
    results.append((name, ok, detail))


_SIGNED_PERMS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1))


def _table_dev(got, table, bound):
    """Max deviation of ``got`` from an {index: coefficient} table; 0 where it lists nothing."""
    want = np.zeros_like(got)
    for index, c in table.items():
        want[index] = c
    dev = float(np.max(np.abs(got - want)))
    return dev <= bound, f"max dev {dev:.2e}"


def _antisymmetric(table):
    """A table of triples extended to the six signed orderings of each."""
    return {tuple(t[q] for q in perm): s * c for t, c in table.items() for perm, s in _SIGNED_PERMS}


def _ricci_devs(crep, fx, p):
    """Each deviation against 1e-8 of the smaller of two sizes: |scal_riem|,
    and max|Ric_g| for the Ricci diagonals or the scalar's own size."""
    dc = float(np.max(np.abs(np.diag(crep.ricci_conn) - fx.ricci_conn(p))))
    dg = float(np.max(np.abs(np.diag(crep.ricci_riem) - fx.ricci_riem(p))))
    sc, sg = abs(crep.scal_conn - fx.scal_conn(p)), abs(crep.scal_riem - fx.scal_riem(p))
    size = max(1.0, abs(crep.scal_riem))
    ok = (max(dc, dg) <= 1e-8 * min(size, max(1.0, float(np.max(np.abs(crep.ricci_riem)))))
          and sc <= 1e-8 * min(size, max(1.0, abs(crep.scal_conn))) and sg <= 1e-8 * size)
    return ok, f"devs ricci {dc:.2e}/{dg:.2e} scal {sc:.2e}/{sg:.2e}"


def _dirac_dev(drep, lam_exp):
    ddev = float(np.max(np.abs(np.abs(drep.eigenvalues) - lam_exp)))
    return ddev <= 1e-12, f"dev {ddev:.2e}"


def _off_type(comps, ev):
    off = float(np.sqrt(sum(v for k, v in comps.items() if k != ev)))
    return off <= 1e-8, f"off-norm {off:.2e}"


def point_checks(a: Analysis, p: spaces.MetricParams) -> list:
    """One record per catalog claim for a built catalog space at the metric
    ``p``, named "<alias>(a=..,b=..,g=..) <claim>"; the Dirac spectrum only
    where the fixtures state one."""
    fx, alias = spaces.fixtures(a.space.space_id), {v: k for k, v in spaces.ALIASES.items()}[a.space.space_id]
    tag = f"{alias}(a={p.alpha:.3f},b={p.beta:.3f},g={p.gamma:.3f})"
    fam, want_hol, want_par = len(a.family), fx.holonomy(p), fx.parallel(p)
    results = [(f"{tag} family dim", fam == fx.expected_family_dim, f"{fam} vs {fx.expected_family_dim}")]
    checks = {
        "characteristic map": lambda: _table_dev(a.conn.lambda_coeffs, fx.char_lambda(p), 1e-12),
        "torsion table": lambda: _table_dev(a.torsion.t3, _antisymmetric(fx.torsion(p)), 1e-12),
        "parallel torsion": lambda: (
            a.parallel[0] == want_par, f"{a.parallel[0]} vs {want_par} ({a.parallel[1]:.2e})"),
        "Ricci/scalar tables": lambda: _ricci_devs(a.curvature, fx, p),
        "holonomy": lambda: (
            (a.holonomy.dim, a.holonomy.label) == want_hol,
            f"{a.holonomy.dim} {a.holonomy.label} vs {want_hol[0]} {want_hol[1]}"),
    }
    for name, check in checks.items():
        _record(results, f"{tag} {name}", a, check)

    dim = a.spinors.dim
    results.append((f"{tag} invariant spinors", dim == fx.expected_spinor_dim, f"{dim} vs {fx.expected_spinor_dim}"))
    if dim and "dirac" in fx.extras:
        _record(results, f"{tag} Dirac spectrum", a, lambda: _dirac_dev(a.dirac, fx.extras["dirac"](p)))
    return results


def _check_m1_infeasible(tol, results):
    p = spaces.MetricParams(alpha=1.0, alphas=(2.0, 1, 1, 1, 1, 1, 1), beta=1.0, gamma=1.0)
    ok = Analysis(spaces.build("su4-so2", p, tol), tol).conn is None
    results.append(("M1 unequal coefficients infeasible", ok, "skew system has no solution"))


def _check_m4_special(tol, results):
    def m4(p):
        return Analysis(spaces.build("su5-sp2", p, tol), tol)

    # integrable point
    a = m4(spaces.MetricParams(alpha=1.0, beta=2.0, gamma=1.2))
    _record(results, "M4 integrable point torsion", a, lambda: (
        a.torsion.norm2_increasing <= 1e-18, f"norm2 {a.torsion.norm2_increasing:.2e}"))
    # pure types
    for which, afun, ev in (("sp3", spaces.m4_pure_sp3_alpha, -8), ("V189", spaces.m4_pure_189_alpha, -16)):
        for b, g in ((1.0, 1.0), (2.0, 0.5)):
            a = m4(spaces.MetricParams(alpha=float(afun(b, g)), beta=b, gamma=g))
            _record(results, f"M4 pure type {which} (beta={b},gamma={g})", a,
                    lambda: _off_type(a.type_components, ev))
    # the Ricci proportionality identity at the distinguished locus
    p = spaces.MetricParams(alpha=1.0, beta=float(np.sqrt(2.0)), gamma=float(4 - np.sqrt(2.0)))
    coeffs = np.array([p.alpha] * 8 + [p.beta] * 5 + [p.gamma])
    dev = float(np.max(np.abs(m4(p).curvature.ricci_riem - 2.5 * np.diag(coeffs))))
    results.append(("M4 Ricci = 2.5 diag(metric coefficients)", dev <= 1e-8, f"dev {dev:.2e}"))


def _check_reps(tol, results):
    dev = float(np.max(np.abs(sp3.derive_isotropy() - sp3.load().rho)))
    results.append(("isotropy transcription", dev <= 1e-12, f"max dev {dev:.2e}"))

    # the eigensolve against the table that type classification relies on
    want = {cas: dim for _, cas, dim in reps.LAMBDA3_SPECTRUM}
    parts = reps.lambda3_decomposition(tol).parts
    got = {int(round(ev)): d for ev, d, _ in parts}
    results.append(("3-form Casimir table", got == want, f"{got}"))

    # Theta^T Theta = (-6 - C) / 4 on the part of Casimir eigenvalue C: the rank of Theta is the dim of the
    # parts whose singular value exceeds rank_tol times the largest one, the cut of ``nullspace_entries``
    s = [(np.sqrt((-6 - ev) / 4), d) for ev, d, _ in parts]
    r = sum(d for x, d in s if x > tol.rank_tol * max(x for x, _ in s))
    results.append(("theta rank (14-dim module)", r == 364, f"rank {r}"))

    for row in sp3.subgroup_rows():
        got_blocks = reps.subgroup_decompose(row, tol)
        ok = tuple(sorted(got_blocks)) == tuple(sorted(row.expected_blocks))
        results.append((f"subgroup split {row.name}", ok, f"{got_blocks} vs {row.expected_blocks}"))


def run_all(space: str = None, tol=DEFAULT_TOL):
    results = []
    if space is None:
        _check_reps(tol, results)
    sids = [spaces.canonical_id(space)] if space else list(spaces.SPACE_IDS)
    for sid in sids:
        for alpha, beta, gamma in _SAMPLE_POINTS:
            p = spaces.MetricParams(alpha=alpha, beta=beta, gamma=gamma)
            results += point_checks(Analysis(spaces.build(sid, p, tol), tol), p)
    if "su4-so2" in sids:
        _check_m1_infeasible(tol, results)
    if "su5-sp2" in sids:
        _check_m4_special(tol, results)
    return results
