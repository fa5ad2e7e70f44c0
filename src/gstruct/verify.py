"""Re-evaluation of every closed-form claim of the catalog at sampled
parameters, used by the CLI verify command.  Each check returns
(name, passed, observed-vs-expected detail).
"""

from __future__ import annotations

import numpy as np

from . import reps, sp3, spaces
from . import connections as con
from . import curvature as curv
from . import spin
from .errors import Infeasible
from .linalg import DEFAULT_TOL, rank


def _sample_params(sid: str, seed: int = 2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        a, b, g = rng.uniform(0.6, 1.8, 3)
        out.append(spaces.MetricParams(alpha=float(a), beta=float(b), gamma=float(g)))
    return out


def _check_space(sid: str, tol, results):
    fx = spaces.fixtures(sid)
    alias = {v: k for k, v in spaces.ALIASES.items()}[sid]

    for p in _sample_params(sid):
        tag = f"{alias}(a={p.alpha:.3f},b={p.beta:.3f},g={p.gamma:.3f})"
        space = spaces.build(sid, p, tol)
        fam = con.solve_equivariant(space, tol)
        results.append(
            (
                f"{tag} family dim",
                fam.dim == fx.expected_family_dim,
                f"{fam.dim} vs {fx.expected_family_dim}",
            )
        )
        conn = con.characteristic_connection(space, fam, tol)

        L = conn.lambda_coeffs
        expected = fx.char_lambda(p)
        mask = np.zeros_like(L, dtype=bool)
        dev = 0.0
        for (j, a), c in expected.items():
            mask[j, a] = True
            dev = max(dev, abs(L[j, a] - c))
        if (~mask).any():
            dev = max(dev, float(np.max(np.abs(L[~mask]))))
        results.append((f"{tag} characteristic map", dev <= 1e-9, f"max dev {dev:.2e}"))

        T = con.torsion(conn)
        table = fx.torsion(p)
        tdev = max(abs(T.t3[t] - c) for t, c in table.items()) if table else 0.0
        results.append((f"{tag} torsion table", tdev <= 1e-9, f"max dev {tdev:.2e}"))

        flag, ratio = con.torsion_is_parallel(conn, T)
        want = fx.parallel(p)
        results.append((f"{tag} parallel torsion", flag == want, f"{flag} vs {want} ({ratio:.2e})"))

        crep = curv.curvature_report(space, conn, tol)
        dc = float(np.max(np.abs(np.diag(crep.ricci_conn) - fx.ricci_conn(p))))
        dg = float(np.max(np.abs(np.diag(crep.ricci_riem) - fx.ricci_riem(p))))
        sc = abs(crep.scal_conn - fx.scal_conn(p))
        sg = abs(crep.scal_riem - fx.scal_riem(p))
        results.append(
            (
                f"{tag} Ricci/scalar tables",
                max(dc, dg, sc, sg) <= 1e-8 * max(1.0, abs(crep.scal_riem)),
                f"devs ricci {dc:.2e}/{dg:.2e} scal {sc:.2e}/{sg:.2e}",
            )
        )

        hol = con.holonomy_algebra(conn, tol)
        hd, hl = fx.holonomy(p)
        results.append(
            (f"{tag} holonomy", (hol.dim, hol.label) == (hd, hl), f"{hol.dim} {hol.label} vs {hd} {hl}")
        )

        sub = spin.invariant_spinors(space, tol)
        results.append(
            (
                f"{tag} invariant spinors",
                sub.dim == fx.expected_spinor_dim,
                f"{sub.dim} vs {fx.expected_spinor_dim}",
            )
        )
        if sub.dim and "dirac" in fx.extras:
            drep = spin.dirac_on_invariants(space, conn, tol, sub=sub)
            lam_exp = fx.extras["dirac"](p)
            ddev = float(np.max(np.abs(np.abs(drep.eigenvalues) - lam_exp)))
            results.append((f"{tag} Dirac spectrum", ddev <= 1e-9 * max(1.0, lam_exp), f"dev {ddev:.2e}"))


def _check_m1_infeasible(tol, results):
    p = spaces.MetricParams(alpha=1.0, alphas=(2.0, 1, 1, 1, 1, 1, 1), beta=1.0, gamma=1.0)
    space = spaces.build("su4-so2", p, tol)
    try:
        con.characteristic_connection(space, tol=tol)
        ok = False
    except Infeasible:
        ok = True
    results.append(("M1 unequal coefficients infeasible", ok, "skew system has no solution"))


def _check_m4_special(tol, results):
    # integrable point
    p = spaces.MetricParams(alpha=1.0, beta=2.0, gamma=1.2)
    space = spaces.build("su5-sp2", p, tol)
    conn = con.characteristic_connection(space, tol=tol)
    T = con.torsion(conn)
    results.append(
        ("M4 integrable point torsion", T.norm2_increasing <= 1e-18, f"norm2 {T.norm2_increasing:.2e}")
    )
    # pure types
    for which, afun, ev in (("sp3", spaces.m4_pure_sp3_alpha, -8), ("V189", spaces.m4_pure_189_alpha, -16)):
        for b, g in ((1.0, 1.0), (2.0, 0.5)):
            q = spaces.MetricParams(alpha=float(afun(b, g)), beta=b, gamma=g)
            sp_ = spaces.build("su5-sp2", q, tol)
            comps = con.classify_type(con.torsion(con.characteristic_connection(sp_, tol=tol)).t3, tol)
            off = float(np.sqrt(sum(v for k, v in comps.items() if k != ev)))
            results.append(
                (f"M4 pure type {which} (beta={b},gamma={g})", off <= 1e-8, f"off-norm {off:.2e}")
            )
    # the Ricci proportionality identity at the distinguished locus
    p = spaces.MetricParams(alpha=1.0, beta=float(np.sqrt(2.0)), gamma=float(4 - np.sqrt(2.0)))
    space = spaces.build("su5-sp2", p, tol)
    crep = curv.curvature_report(space, con.characteristic_connection(space, tol=tol), tol)
    coeffs = np.array([p.alpha] * 8 + [p.beta] * 5 + [p.gamma])
    dev = float(np.max(np.abs(crep.ricci_riem - 2.5 * np.diag(coeffs))))
    results.append(("M4 Ricci = 2.5 diag(metric coefficients)", dev <= 1e-8, f"dev {dev:.2e}"))


def _check_reps(tol, results):
    data = sp3.load()
    derived = sp3.derive_isotropy()
    dev = max(float(np.max(np.abs(d - t))) for d, t in zip(derived, data.rho))
    results.append(("isotropy transcription", dev <= 1e-12, f"max dev {dev:.2e}"))

    dec = reps.lambda3_decomposition(tol)
    want = {-8: 21, -12: 70, -18: 84, -16: 189}
    got = {int(round(ev)): d for ev, d, _ in dec.parts}
    results.append(("3-form Casimir table", got == want, f"{got}"))

    tmap = reps.theta_map(list(data.rho), tol)
    r = rank(tmap.matrix, tol)
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
        _check_space(sid, tol, results)
    if space is None or spaces.canonical_id(space) == "su4-so2":
        _check_m1_infeasible(tol, results)
    if space is None or spaces.canonical_id(space) == "su5-sp2":
        _check_m4_special(tol, results)
    return results
