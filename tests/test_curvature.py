import numpy as np
from conftest import assert_point_checks, draws, parallel_vector_fields, pipeline

from gstruct import curvature as curv
from gstruct import sp3
from gstruct import connections as con


def _so14(R):
    """The (14, 14, 14, 14) array of so(14) matrices of a rho-coordinate curvature."""
    return np.tensordot(R, sp3.load().rho, 1)


def test_curvature_antisymmetric_and_metric():
    ctx = pipeline("M2", alpha=1.1, beta=0.9, gamma=1.3)
    R4 = _so14(curv.curvature(ctx["conn"]))
    assert np.max(np.abs(R4 + np.swapaxes(R4, 0, 1))) < 1e-12
    # each R(X, Y) is so(14)
    assert np.max(np.abs(R4 + np.swapaxes(R4, 2, 3))) < 1e-12
    # and is the curvature of the connection's so(14) stack
    ref = con.curvature_of_map(ctx["space"], ctx["conn"].so_matrices())
    assert np.max(np.abs(R4 - ref)) < 1e-12


def test_ricci_is_curvature_trace():
    # the contraction of R with rho is the trace of R as so(14) matrices,
    # up to the round-off of the other order of summation
    ctx = pipeline("M1", alpha=1.0, beta=1.5, gamma=0.8)
    ric = curv.ricci_connection(ctx["conn"])
    trace = curv.ricci_from_curvature(_so14(curv.curvature(ctx["conn"])))
    assert np.max(np.abs(trace - ric)) <= 1e-15 * np.max(np.abs(ric))


def test_levi_civita_torsion_free_and_metric():
    for sid in ["M1", "M2", "M3", "M4"]:
        ctx = pipeline(sid, alpha=0.9, beta=1.6, gamma=1.2)
        lam = curv.levi_civita(ctx["space"])
        T = con.torsion_of_map(ctx["space"], lam)
        assert np.max(np.abs(T.t12)) < 1e-12, sid
        assert np.max(np.abs(lam + np.swapaxes(lam, 1, 2))) < 1e-12, sid


def test_levi_civita_naturally_reductive_m3():
    # equal alphas: U = 0, the map is half the bracket
    ctx = pipeline("M3", alpha=1.4, beta=0.7, gamma=1.9)
    lam = curv.levi_civita(ctx["space"])
    half_bracket = 0.5 * np.einsum("ijk->ikj", ctx["space"].pm)
    assert np.max(np.abs(lam - half_bracket)) < 1e-12


def test_ricci_tables_all_spaces_five_draws():
    for sid in ["M1", "M2", "M3", "M4"]:
        assert_point_checks(sid, draws(sid, 5, seed=23), "Ricci/scalar tables")


def test_riemannian_routes_agree():
    for sid in ["M1", "M2", "M3", "M4"]:
        ctx = pipeline(sid, alpha=1.2, beta=0.8, gamma=1.6)
        direct = curv.ricci_riemannian(ctx["space"])
        via = curv._identity_route(ctx["conn"], curv.ricci_connection(ctx["conn"]))
        assert np.max(np.abs(direct - via)) <= 1e-9 * max(1.0, float(np.max(np.abs(direct))))


def test_ricci_symmetric():
    ctx = pipeline("M4", alpha=0.8, beta=1.9, gamma=0.7)
    ric = curv.ricci_connection(ctx["conn"])
    assert np.max(np.abs(ric - ric.T)) < 1e-10


def test_m4_scalar_closed_form_draws():
    assert_point_checks("M4", draws("M4", 5, seed=29), "Ricci/scalar tables")


def test_m4_ricci_proportionality_point():
    # the closed-form tables at the locus where Ric is 2.5x the metric
    # coefficient matrix (not an Einstein metric in the tensor sense; the
    # symmetric point below is); the identity itself is verify's record
    # "M4 Ricci = 2.5 diag(metric coefficients)", asserted by criterion 10
    assert_point_checks("M4", [(1.0, float(np.sqrt(2.0)), float(4 - np.sqrt(2.0)))], "Ricci/scalar tables")


def test_m4_symmetric_point_is_einstein():
    ctx = pipeline("M4", alpha=1.0, beta=2.0, gamma=1.2)
    rep = curv.curvature_report(ctx["space"], ctx["conn"])
    assert rep.einstein_defect <= 1e-10
    assert np.max(np.abs(rep.ricci_riem - 3.0 * np.eye(14))) <= 1e-10


def test_first_bianchi_at_integrable_point():
    # with vanishing torsion the curvature satisfies the cyclic identity
    ctx = pipeline("M4", alpha=1.0, beta=2.0, gamma=1.2)
    R4 = _so14(curv.curvature(ctx["conn"]))
    # B[i, j, k, l] = (R(K_i, K_j) K_k)_l; cyclic sum over (i, j, k) vanishes
    B = np.einsum("ijlk->ijkl", R4)
    cyclic = B + np.transpose(B, (1, 2, 0, 3)) + np.transpose(B, (2, 0, 1, 3))
    assert np.max(np.abs(cyclic)) < 1e-10


def test_m2_gamma_independence_derived_observation():
    # the last metric coefficient scales a flat central direction: torsion
    # and both Ricci tensors do not depend on it
    a = pipeline("M2", alpha=1.1, beta=0.8, gamma=0.5)
    b = pipeline("M2", alpha=1.1, beta=0.8, gamma=1.9)
    Ta, Tb = con.torsion(a["conn"]), con.torsion(b["conn"])
    assert np.max(np.abs(Ta.t3 - Tb.t3)) < 1e-12
    ra = curv.curvature_report(a["space"], a["conn"])
    rb = curv.curvature_report(b["space"], b["conn"])
    assert np.max(np.abs(ra.ricci_conn - rb.ricci_conn)) < 1e-12
    assert np.max(np.abs(ra.ricci_riem - rb.ricci_riem)) < 1e-12


def test_ricci_conn_vanishes_on_parallel_directions():
    ctx = pipeline("M1", alpha=1.0, beta=1.3, gamma=0.9)
    vecs, _ = parallel_vector_fields(ctx["conn"], con.holonomy_algebra(ctx["conn"]))
    ric = curv.ricci_connection(ctx["conn"])
    for v in vecs.T:
        assert np.linalg.norm(ric @ v) < 1e-9
