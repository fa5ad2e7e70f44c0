"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS line (visible with ``pytest -s`` or in the -rA summary).

Run with:  pytest tests/test_acceptance.py -s -q
"""

import numpy as np
import pytest
from conftest import draws, pipeline

from gstruct import connections as con
from gstruct import curvature as curv
from gstruct import groups, reps, sp3, spaces, spin
from gstruct.errors import Infeasible
from gstruct.liealg import bracket
from gstruct.linalg import rank

SIDS = ["M1", "M2", "M3", "M4"]


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_catalog_self_consistency(sp3_data):
    derived = sp3.derive_isotropy()
    worst = max(float(np.max(np.abs(d - t))) for d, t in zip(derived, sp3_data.rho))
    assert worst <= 1e-12
    hom = sp3.homomorphism_defect()
    assert hom <= 1e-9
    _report(1, f"isotropy transcription dev {worst:.2e}, homomorphism residual {hom:.2e}")


def test_criterion_02_casimir_tables(sp3_data):
    dec3 = reps.lambda3_decomposition()
    got3 = {int(round(ev)): d for ev, d, _ in dec3.parts}
    for ev, d, _ in dec3.parts:
        assert abs(ev - round(ev)) <= 1e-6
    assert got3 == {cas: dim for _, cas, dim in reps.LAMBDA3_SPECTRUM}
    dec7 = reps.isotypic_decompose(reps.v14_v70_rep())
    assert dec7.dimension_multiset() == (14, 21, 70, 84, 90, 189, 512)
    _report(2, f"3-form table {got3}; product module multiset {dec7.dimension_multiset()}")


def test_criterion_03_theta_kernels(sp3_data):
    tmap = reps.theta_map(list(sp3_data.rho))
    r = rank(tmap)
    kdim, _ = reps.theta_kernel(tmap)
    assert (r, kdim) == (364, 0)
    kdim_su3, _, _ = groups.theta_kernel_adjoint(groups.su_algebra(3))
    assert kdim_su3 == 1
    _report(3, f"theta rank {r} kernel {kdim} (14-dim module); adjoint su3 kernel {kdim_su3}")


def test_criterion_04_wang_family_dimensions():
    want = {"M1": 98, "M2": 30, "M3": 18, "M4": 7}
    rng = np.random.default_rng(101)
    dims = {}
    for sid in SIDS:
        for _ in range(3):
            a, b, g = rng.uniform(0.5, 2.0, 3)
            alphas = tuple(rng.uniform(0.5, 2.0, spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)]))
            fam = pipeline(sid, alpha=float(a), beta=float(b), gamma=float(g),
                           alphas=alphas)["family"]
            assert len(fam) == want[sid], sid
        dims[sid] = want[sid]
    _report(4, f"equivariant family dims {dims} at 3 random draws each")


def test_criterion_05_characteristic_closed_forms():
    worst = 0.0
    for sid in SIDS:
        fx = spaces.fixtures(sid)
        for a, b, g in draws(sid, 5, seed=55):
            ctx = pipeline(sid, alpha=a, beta=b, gamma=g)
            # a successful solve certifies the zero-dimensional solution set
            L = ctx["conn"].lambda_coeffs
            expect = fx.char_lambda(ctx["params"])
            mask = np.zeros_like(L, dtype=bool)
            for (j, aa), c in expect.items():
                mask[j, aa] = True
                worst = max(worst, abs(L[j, aa] - c) / max(abs(c), 1.0))
            if (~mask).any():
                worst = max(worst, float(np.max(np.abs(L[~mask]))))
    assert worst <= 1e-9
    for sid in ["M1", "M2", "M3"]:
        alphas = tuple([1.7] + [1.0] * (spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)] - 1))
        ctx = pipeline(sid, alphas=alphas)
        with pytest.raises(Infeasible):
            con.characteristic_connection(ctx["space"])
    _report(5, f"closed-form maps at 5 draws (max rel dev {worst:.2e}); infeasible off-locus")


def _t3_from_table(table):
    """Full antisymmetrization of a coefficient table over increasing triples."""
    t3 = np.zeros((14, 14, 14))
    signs = {p: s for p, s in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1)]}
    for (i, j, k), c in table.items():
        for perm, s in signs.items():
            idx = tuple((i, j, k)[q] for q in perm)
            t3[idx] = s * c
    return t3


def test_criterion_06_torsion_fixtures():
    worst = 0.0
    for sid in SIDS:
        fx = spaces.fixtures(sid)
        for a, b, g in draws(sid, 3, seed=66):
            ctx = pipeline(sid, alpha=a, beta=b, gamma=g)
            T = con.torsion(ctx["conn"])
            # the tables are complete: compare every entry, not only the listed ones
            expect = _t3_from_table(fx.torsion(ctx["params"]))
            worst = max(worst, float(np.max(np.abs(T.t3 - expect))))
    assert worst <= 1e-9
    T0 = con.torsion(pipeline("M4", alpha=1.0, beta=2.0, gamma=1.2)["conn"])
    tn = float(np.sqrt(T0.norm2_increasing))
    assert tn <= 1e-9
    _report(6, f"catalog torsion tables dev {worst:.2e}; integrable-point norm {tn:.2e}")


def test_criterion_07_parallel_torsion():
    for sid in ["M1", "M2", "M3"]:
        for a, b, g in draws(sid, 3, seed=77):
            flag, ratio = con.torsion_is_parallel(pipeline(sid, alpha=a, beta=b, gamma=g)["conn"])
            assert flag, (sid, ratio)
    for kw in (dict(alpha=1.0, beta=1.0, gamma=1.6), dict(alpha=1.0, beta=2.0, gamma=1.2)):
        flag, _ = con.torsion_is_parallel(pipeline("M4", **kw)["conn"])
        assert flag, kw
    T = con.torsion(pipeline("M4", alpha=1.0, beta=1.5, gamma=1.0)["conn"])
    nt = con.nabla_torsion(pipeline("M4", alpha=1.0, beta=1.5, gamma=1.0)["conn"].so_matrices(), T.t12)
    assert float(np.max(np.abs(nt))) > 1e-4
    _report(7, "parallel on the torus spaces and the two special loci; nonparallel off-locus")


def test_criterion_08_type_classification():
    for sid in ["M1", "M2", "M3"]:
        for a, b, g in draws(sid, 3, seed=88):
            conn = pipeline(sid, alpha=a, beta=b, gamma=g)["conn"]
            comps = con.classify_type(con.torsion(conn).t3, np.linalg.norm(conn.space.pm))
            assert sum(1 for v in comps.values() if v > 1e-9) >= 2, sid
    worst = 0.0
    for b, g in ((1.0, 1.0), (2.0, 0.5)):
        for afun, ev in ((spaces.m4_pure_sp3_alpha, -8), (spaces.m4_pure_189_alpha, -16)):
            ctx = pipeline("M4", alpha=float(afun(b, g)), beta=b, gamma=g)
            comps = con.classify_type(con.torsion(ctx["conn"]).t3, np.linalg.norm(ctx["space"].pm))
            off = float(np.sqrt(sum(v for k, v in comps.items() if k != ev)))
            worst = max(worst, off)
            assert off <= 1e-8
    _report(8, f"mixed types on the torus spaces; pure-type off-norms <= {worst:.2e}")


def test_criterion_09_holonomy_dimensions():
    m1 = [con.holonomy_algebra(pipeline("M1", alpha=1.0, beta=b, gamma=g)["conn"]).dim
          for b, g in ((1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 0.5))]
    assert m1 == [1, 2, 2, 3]
    m3 = [con.holonomy_algebra(pipeline("M3", alpha=1.0, beta=b, gamma=g)["conn"]).dim
          for b, g in ((0.7, 1.3), (1.6, 0.9))]
    assert m3 == [3, 3]
    m4 = [con.holonomy_algebra(pipeline("M4", **kw)["conn"]).dim
          for kw in (dict(alpha=1.0, beta=1.4, gamma=1.0),
                     dict(alpha=1.0, beta=1.0, gamma=1.8),
                     dict(alpha=1.0, beta=1.0, gamma=1.0))]
    assert m4 == [21, 11, 10]
    # the four sign cases of (alpha-beta, alpha-gamma), pinned to the
    # closure oracle: 2 iff beta = alpha, else 3
    m2 = {}
    for b, g in ((0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0), (1.0, 0.5), (1.0, 2.0)):
        m2[(b, g)] = con.holonomy_algebra(pipeline("M2", alpha=1.0, beta=b, gamma=g)["conn"]).dim
        assert m2[(b, g)] == (2 if b == 1.0 else 3)
    _report(9, f"holonomy dims M1 {m1}, M3 {m3}, M4 {m4}, M2 cases {m2} [DERIVED split]")


def test_criterion_10_curvature():
    worst = 0.0
    for sid in SIDS:
        fx = spaces.fixtures(sid)
        for a, b, g in draws(sid, 5, seed=110):
            ctx = pipeline(sid, alpha=a, beta=b, gamma=g)
            rep = curv.curvature_report(ctx["space"], ctx["conn"])
            scale = max(1.0, float(np.max(np.abs(rep.ricci_riem))))
            worst = max(
                worst,
                float(np.max(np.abs(np.diag(rep.ricci_conn) - fx.ricci_conn(ctx["params"])))) / scale,
                float(np.max(np.abs(np.diag(rep.ricci_riem) - fx.ricci_riem(ctx["params"])))) / scale,
                abs(rep.scal_conn - fx.scal_conn(ctx["params"])) / max(1.0, abs(rep.scal_conn)),
                abs(rep.scal_riem - fx.scal_riem(ctx["params"])) / max(1.0, abs(rep.scal_riem)),
            )
            direct = curv.ricci_riemannian(ctx["space"])
            via = curv._identity_route(ctx["conn"], curv.ricci_connection(ctx["conn"]))
            assert np.max(np.abs(direct - via)) <= 1e-9 * scale
    assert worst <= 1e-8
    p = (1.0, float(np.sqrt(2.0)), float(4.0 - np.sqrt(2.0)))
    ctx = pipeline("M4", alpha=p[0], beta=p[1], gamma=p[2])
    rep = curv.curvature_report(ctx["space"], ctx["conn"])
    coeffs = np.array([p[0]] * 8 + [p[1]] * 5 + [p[2]])
    dev = float(np.max(np.abs(rep.ricci_riem - 2.5 * np.diag(coeffs))))
    assert dev <= 1e-8
    _report(10, f"Ricci/scalar tables at 5 draws (rel dev {worst:.2e}); "
               f"both routes agree; special-point identity dev {dev:.2e}")


def test_criterion_11_spin_spectra():
    dims = {}
    for sid, want in [("M1", 48), ("M2", 16), ("M3", 0), ("M4", 4)]:
        space = pipeline(sid, alpha=1.0, beta=1.2, gamma=0.8)["space"]
        dims[sid] = spin.invariant_spinors(space).dim
        assert dims[sid] == want
    for a, b in ((1.0, 1.0), (1.37, 2.3), (0.7, 0.41)):
        ctx = pipeline("M2", alpha=a, beta=b, gamma=1.7)
        rep = spin.dirac_on_invariants(ctx["conn"])
        assert np.max(np.abs(np.abs(rep.eigenvalues) - np.sqrt((a + 4 * b) / (a * b)))) <= 1e-9
    for b in (1.0, 2.3, 0.41):  # the mu / norm slices are stated at alpha = 1
        ctx = pipeline("M2", alpha=1.0, beta=b, gamma=1.7)
        rep = spin.dirac_on_invariants(ctx["conn"])
        assert abs(np.max(np.abs(rep.torsion_op_eigenvalues)) - 2 * np.sqrt(4 + b)) <= 1e-9
        assert abs(rep.torsion_norm2 - (8 + 4 * b)) <= 1e-9
    fx4 = spaces.fixtures("M4")
    for a, b, g in ((1.0, 1.0, 1.0), (1.3, 0.9, 1.1), (0.8, 1.7, 2.2)):
        ctx = pipeline("M4", alpha=a, beta=b, gamma=g)
        rep = spin.dirac_on_invariants(ctx["conn"])
        expect = fx4.extras["dirac"](ctx["params"])
        assert np.max(np.abs(np.abs(rep.eigenvalues) - expect)) <= 1e-9
    ctx = pipeline("M4", alpha=1.0, beta=1.0, gamma=1.0)
    rep = spin.dirac_on_invariants(ctx["conn"])
    assert np.max(np.abs(np.abs(rep.eigenvalues) - 0.5 * np.sqrt(30))) <= 1e-9
    for g in (1.0, 0.5, 2.0):
        ctx = pipeline("M4", alpha=1.0, beta=1.0, gamma=g)
        rep = spin.dirac_on_invariants(ctx["conn"])
        assert abs(np.max(np.abs(rep.torsion_op_eigenvalues)) - np.sqrt(25 + 5 * g)) <= 1e-9
        assert abs(rep.torsion_norm2 - (5 + 5 * g)) <= 1e-9
    _report(11, f"invariant spinor dims {dims}; both Dirac closed forms and mu/T^2 at stated slices")


def _estimated(sid, a, b, g):
    return pipeline(sid, alpha=a, beta=b, gamma=g)["analysis"]


def test_criterion_12_estimates():
    an = _estimated("M2", 1.0, 1.0, 1.2)
    assert abs(min(an.dirac.eigenvalues**2) - an.estimates.friedrich_rhs) <= 1e-9
    assert an.dirac.parallel_spinor_dim == 16
    an4 = _estimated("M4", 1.0, 1.0, 1.0)
    assert abs(min(an4.dirac.eigenvalues**2) - an4.estimates.friedrich_rhs) <= 1e-9
    assert an4.dirac.parallel_spinor_dim == 4
    for b in (0.4, 1.0, 1.9):
        assert _estimated("M2", 1.0, b, 1.2).estimates.twistor_strict
    for g in (0.5, 1.0, 2.1):
        assert _estimated("M4", 1.0, 1.0, g).estimates.twistor_strict
    b0, g0 = 166.0 / 275.0, 189.0 / 275.0
    dm2 = [
        _estimated("M2", 1.0, b0 + s, 1.2).estimates for s in (-1e-6, 1e-6)
    ]
    assert dm2[0].twistor_rhs - dm2[0].friedrich_rhs > 0 > dm2[1].twistor_rhs - dm2[1].friedrich_rhs
    dm4 = [
        _estimated("M4", 1.0, 1.0, g0 + s).estimates for s in (-1e-6, 1e-6)
    ]
    assert dm4[0].twistor_rhs - dm4[0].friedrich_rhs > 0 > dm4[1].twistor_rhs - dm4[1].friedrich_rhs
    _report(12, "equality cases with all invariant spinors parallel (16/4); "
                "twistor strict; crossovers bracketed at +/-1e-6")


def test_criterion_13_subgroup_table():
    got = {}
    for row in sp3.subgroup_rows():
        blocks = reps.subgroup_decompose(row)
        got[row.name] = tuple(sorted(blocks, reverse=True))
        assert tuple(sorted(blocks)) == tuple(sorted(row.expected_blocks)), row.name
    _report(13, f"subgroup module splits {got}")


def test_criterion_14_lie_groups():
    kdims = {}
    for name, alg, parts in (
        ("su2", groups.su_algebra(2), [(0, 1, 2)]),
        ("su3", groups.su_algebra(3), [tuple(range(8))]),
        ("su2+su2", groups.su2_plus_su2(), [(0, 1, 2), (3, 4, 5)]),
    ):
        kdim, _, tmap = groups.theta_kernel_adjoint(alg)
        kdims[name] = kdim
        fam = groups.canonical_torsion_family(alg, parts)
        for v in fam:
            assert np.linalg.norm(tmap @ v) <= 1e-9 * np.linalg.norm(v)
    assert kdims == {"su2": 1, "su3": 1, "su2+su2": 2}
    su3 = groups.su_algebra(3)
    g3 = groups.su_metric(3)
    half = lambda X, Y: 0.5 * bracket(X, Y)
    assert groups.metricity_defect(half, g3, list(su3)) <= 1e-9
    d_eta = groups.metricity_defect(groups.laquer_eta, g3, list(su3))
    u2 = groups.u_algebra(2)
    gu2 = groups.u_metric(2, center_coefficient=1.3)
    d_nu = groups.metricity_defect(groups.laquer_nu, gu2, list(u2))
    assert d_eta > 1e-3 and d_nu > 1e-3
    assert groups.metricity_defect(half, gu2, list(u2)) <= 1e-9
    _report(14, f"theta kernels {kdims}; torsion family in kernel; "
                f"defects eta {d_eta:.3f} / nu {d_nu:.3f} vs commutator <= 1e-9")


def test_criterion_15_invariant_cubics():
    cubics = reps.invariant_cubics()
    assert len(cubics) >= 1
    U, scale = reps.metric_reconstructor()
    tf = float(np.linalg.norm(np.einsum("iik->k", U)))
    assert tf <= 1e-9
    rng = np.random.default_rng(1500)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(14)
        v /= np.linalg.norm(v)
        M = np.einsum("ijk,k->ij", U, v)
        worst = max(worst, float(np.linalg.norm(M @ M @ v - v)))
    assert worst <= 1e-8
    _report(15, f"invariant cubic space dim {len(cubics)}; trace-free {tf:.2e}; "
                f"metric reconstruction defect {worst:.2e} over 100 unit vectors")
