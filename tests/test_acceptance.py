"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS line (visible with ``pytest -s`` or in the -rA summary).
The comparisons with the catalog's closed forms are ``verify``'s own: the
per-point ones through ``verify.point_checks`` at each criterion's points,
the rest as the records of ``verify.run_all``.

Run with:  pytest tests/test_acceptance.py -s -q
"""

import numpy as np
import pytest
from conftest import assert_point_checks, draws, pipeline

from gstruct import connections as con
from gstruct import curvature as curv
from gstruct import groups, reps, sp3, spaces
from gstruct.errors import Infeasible
from gstruct.liealg import bracket

SIDS = ["M1", "M2", "M3", "M4"]


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def _passed(records, *names):
    """The details of the ``verify.run_all`` records ``names``, each asserted to pass."""
    for name in names:
        assert records[name][0], (name, records[name][1])
    return [records[name][1] for name in names]


def test_criterion_01_catalog_self_consistency(verify_records):
    (dev,) = _passed(verify_records, "isotropy transcription")
    hom = sp3.homomorphism_defect()
    assert hom <= 1e-9
    _report(1, f"isotropy transcription {dev}, homomorphism residual {hom:.2e}")


def test_criterion_02_casimir_tables(verify_records):
    (table,) = _passed(verify_records, "3-form Casimir table")
    for ev, _, _ in reps.lambda3_decomposition().parts:
        assert abs(ev - round(ev)) <= 1e-6
    dims = sorted(d for _, d, _ in reps.isotypic_decompose(reps.v14_v70_rep()).parts)
    assert dims == [14, 21, 70, 84, 90, 189, 512]
    _report(2, f"3-form table {table}; product module multiset {dims}")


def test_criterion_03_theta_kernels(verify_records):
    (rank,) = _passed(verify_records, "theta rank (14-dim module)")
    kdim_su3, _, _ = groups.theta_kernel_adjoint(groups.su_algebra(3))
    assert kdim_su3 == 1
    _report(3, f"theta {rank} of 364, kernel 0 (14-dim module); adjoint su3 kernel {kdim_su3}")


def test_criterion_04_wang_family_dimensions():
    rng = np.random.default_rng(101)
    dims = {}
    for sid in SIDS:
        extra = spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)]
        points = [(*map(float, rng.uniform(0.5, 2.0, 3)), tuple(rng.uniform(0.5, 2.0, extra))) for _ in range(3)]
        dims[sid] = assert_point_checks(sid, points, "family dim")[0]
    _report(4, f"equivariant family dims {dims} at 3 random draws each")


def test_criterion_05_characteristic_closed_forms():
    # a successful solve certifies the zero-dimensional solution set
    n = sum(len(assert_point_checks(sid, draws(sid, 5, seed=55), "characteristic map")) for sid in SIDS)
    for sid in ["M1", "M2", "M3"]:
        alphas = tuple([1.7] + [1.0] * (spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)] - 1))
        ctx = pipeline(sid, alphas=alphas)
        with pytest.raises(Infeasible):
            con.characteristic_connection(ctx["space"])
    _report(5, f"closed-form maps at {n} draws; infeasible off-locus")


def test_criterion_06_torsion_fixtures(verify_records):
    # the tables are complete: every entry of the array is compared
    n = sum(len(assert_point_checks(sid, draws(sid, 3, seed=66), "torsion table")) for sid in SIDS)
    (norm,) = _passed(verify_records, "M4 integrable point torsion")
    _report(6, f"catalog torsion tables at {n} draws; integrable point {norm}")


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


def test_criterion_08_type_classification(verify_records):
    for sid in ["M1", "M2", "M3"]:
        for a, b, g in draws(sid, 3, seed=88):
            conn = pipeline(sid, alpha=a, beta=b, gamma=g)["conn"]
            comps = con.classify_type(con.torsion(conn).t3, np.linalg.norm(conn.space.pm))
            assert sum(1 for v in comps.values() if v > 1e-9) >= 2, sid
    offs = _passed(verify_records, *(f"M4 pure type {which} (beta={b},gamma={g})"
                                     for which in ("sp3", "V189") for b, g in ((1.0, 1.0), (2.0, 0.5))))
    _report(8, f"mixed types on the torus spaces; pure-type {offs}")


def test_criterion_09_holonomy_dimensions():
    # M2: the four sign cases of (alpha-beta, alpha-gamma) and two points
    # with beta = alpha, the computed split (2 iff beta = alpha, else 3)
    points = {
        "M1": [(1.0, 1.0, 1.0), (1.0, 1.0, 1.5), (1.0, 1.5, 1.0), (1.0, 1.5, 0.5)],
        "M2": [(1.0, b, g) for b, g in ((0.5, 0.5), (0.5, 2.0), (2.0, 0.5), (2.0, 2.0), (1.0, 0.5), (1.0, 2.0))],
        "M3": [(1.0, 0.7, 1.3), (1.0, 1.6, 0.9)],
        "M4": [(1.0, 1.4, 1.0), (1.0, 1.0, 1.8), (1.0, 1.0, 1.0)],
    }
    held = {sid: [d.split(" vs ")[0] for d in assert_point_checks(sid, pts, "holonomy")] for sid, pts in points.items()}
    _report(9, f"holonomy {held} [DERIVED split]")


def test_criterion_10_curvature(verify_records):
    n = 0
    for sid in SIDS:
        points = draws(sid, 5, seed=110)
        n += len(assert_point_checks(sid, points, "Ricci/scalar tables"))
        for a, b, g in points:
            ctx = pipeline(sid, alpha=a, beta=b, gamma=g)
            direct = curv.ricci_riemannian(ctx["space"])
            via = curv._identity_route(ctx["conn"], curv.ricci_connection(ctx["conn"]))
            assert np.max(np.abs(direct - via)) <= 1e-9 * max(1.0, float(np.max(np.abs(direct))))
    (dev,) = _passed(verify_records, "M4 Ricci = 2.5 diag(metric coefficients)")
    _report(10, f"Ricci/scalar tables at {n} draws; both routes agree; special-point identity {dev}")


def test_criterion_11_spin_spectra():
    dims = {sid: assert_point_checks(sid, [(1.0, 1.2, 0.8)], "invariant spinors")[0] for sid in SIDS}
    assert_point_checks("M2", [(1.0, 1.0, 1.7), (1.37, 2.3, 1.7), (0.7, 0.41, 1.7)], "Dirac spectrum")
    # at (1, 1, 1) the M4 spectrum is sqrt(30) / 2
    assert_point_checks("M4", [(1.0, 1.0, 1.0), (1.3, 0.9, 1.1), (0.8, 1.7, 2.2)], "Dirac spectrum")
    # the mu / norm slices are stated at alpha = 1
    for b, g in ((1.0, 1.7), (2.3, 1.7), (0.41, 1.7), (1.0, 1.1), (0.6, 1.1), (2.4, 1.1)):
        rep = pipeline("M2", alpha=1.0, beta=b, gamma=g)["analysis"].dirac
        assert abs(np.max(np.abs(rep.torsion_op_eigenvalues)) - 2 * np.sqrt(4 + b)) <= 1e-9
        assert abs(rep.torsion_norm2 - (8 + 4 * b)) <= 1e-9
    for g in (1.0, 0.5, 2.0):
        rep = pipeline("M4", alpha=1.0, beta=1.0, gamma=g)["analysis"].dirac
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


def test_criterion_13_subgroup_table(verify_records):
    got = _passed(verify_records, *(f"subgroup split {row.name}" for row in sp3.subgroup_rows()))
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
