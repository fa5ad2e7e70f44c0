from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import (assert_point_checks, curvature_of_map, densify, draws, nabla_torsion, pack_pairs,
                      parallel_vector_fields, pipeline, unpack_pairs)
from hypothesis import given, settings
from hypothesis import strategies as st

from gstruct import connections as con
from gstruct import curvature as curv
from gstruct import reps, sp3, spaces
from gstruct.errors import Infeasible, NotSkew
from gstruct.linalg import DEFAULT_TOL, RESIDUAL_TOL, orthonormal_columns


def test_family_dimensions_random_draws():
    rng = np.random.default_rng(11)
    for sid, extra in [("M1", 7), ("M2", 5), ("M3", 5), ("M4", 0)]:
        a, b, g = rng.uniform(0.5, 2.0, 3)
        alphas = tuple(rng.uniform(0.5, 2.0, extra))
        assert_point_checks(sid, [(float(a), float(b), float(g), alphas)], "family dim")


def test_family_equivariance_residual():
    ctx = pipeline("M2", alpha=1.2, beta=0.8, gamma=1.5)
    space, fam = ctx["space"], ctx["family"]
    import gstruct.sp3 as sp3

    R21 = np.array(sp3.load().rho)
    rng = np.random.default_rng(2)
    for _ in range(3):
        member = fam[rng.integers(0, len(fam))]
        lam = np.einsum("ja,akl->jkl", member, R21)
        for R in space.iso:
            lhs = np.einsum("ij,ikl->jkl", R, lam)  # Lambda(R K_j)
            rhs = np.einsum("kl,jlm->jkm", R, lam) - np.einsum("jkl,lm->jkm", lam, R)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_torsion_antisymmetry_first_slots():
    ctx = pipeline("M1", alpha=1.0, beta=1.7, gamma=0.7)
    T = ctx["conn"].torsion
    assert np.max(np.abs(T.t12 + np.swapaxes(T.t12, 1, 2))) < 1e-12
    assert np.max(np.abs(T.t3 - np.einsum("kij->ijk", T.t12))) == 0.0


def test_m3_canonical_connection_torsion_table():
    # the characteristic map vanishes: the canonical connection, whose
    # torsion is the sixteen-entry table
    assert_point_checks("M3", [(1.3, 0.6, 1.9)], "characteristic map", "torsion table")
    assert len(spaces.fixtures("M3").torsion(spaces.MetricParams(alpha=1.3, beta=0.6, gamma=1.9))) == 16


def test_characteristic_closed_forms_all_spaces():
    for sid in ["M1", "M2", "M3", "M4"]:
        assert_point_checks(sid, draws(sid, 2, seed=5), "characteristic map")


def test_infeasible_off_locus():
    for sid, extra in [("M1", 7), ("M2", 5), ("M3", 5)]:
        alphas = tuple([2.0] + [1.0] * (extra - 1))
        ctx = pipeline(sid, alphas=alphas)
        with pytest.raises(Infeasible):
            con.characteristic_connection(ctx["space"])


def _lstsq_characteristic(space, family, tol=DEFAULT_TOL):
    """Reference: the skewness system solved by least squares inside the
    equivariant family; returns (lambda coefficients, t3)."""
    R21 = sp3.load().rho
    lam_members = np.einsum("dja,akl->djkl", family, R21)
    # torsion is affine in the coefficients: T = A(t) + T0
    t0 = con.torsion_of_map(space, np.zeros((14, 14, 14))).t3
    a_parts = np.einsum("dikj->dkij", lam_members) - np.einsum("djki->dkij", lam_members)
    a_t3 = np.einsum("dkij->dijk", a_parts)
    sym = lambda t: t + np.swapaxes(t, -2, -1)
    A = sym(a_t3).reshape(len(family), -1).T
    b = -sym(t0).ravel()
    coeffs, _, _, sv = np.linalg.lstsq(A, b, rcond=None)
    resid = float(np.linalg.norm(A @ coeffs - b))
    pnorm = float(np.linalg.norm(space.pm))
    if resid > 1e3 * RESIDUAL_TOL * pnorm:
        raise Infeasible(f"{space.space_id}: no skew-torsion member (residual {resid:.3e})")
    assert np.count_nonzero(sv > tol.rank_tol * sv[0]) == len(family)
    L = np.einsum("d,dja->ja", coeffs, family)
    L[np.abs(L) < 1e-12 * pnorm] = 0.0
    lam = np.einsum("ja,akl->jkl", L, R21)
    return L, con.torsion_of_map(space, lam).t3


@settings(max_examples=24, deadline=None)
@given(sid=st.sampled_from(["M1", "M2", "M3", "M4"]),
       abg=st.tuples(*[st.floats(0.55, 1.9)] * 3),
       scale=st.sampled_from([1e-8, 1.0, 1e14]),
       off_locus=st.booleans())
def test_closed_form_matches_lstsq_reference(sid, abg, scale, off_locus):
    a, b, g = (x * scale for x in abg)
    extra = spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)]
    alphas = (1.7 * a,) + (a,) * (extra - 1) if off_locus and extra else ()
    space = spaces.build(sid, spaces.MetricParams(alpha=a, beta=b, gamma=g, alphas=alphas))
    try:
        want = _lstsq_characteristic(space, con.solve_equivariant(space))
    except Infeasible:
        with pytest.raises(Infeasible):
            con.characteristic_connection(space)
        return
    conn = con.characteristic_connection(space)
    # the closed form takes pm as it is, while the reference stays inside the
    # equivariant family; the bracket table's own round-off (up to ~5e-11
    # ||pm|| for M4 at s = 1e14) shows as the equivariance defect of Lambda_LC
    lc = con.levi_civita(space)
    defect = max(float(np.max(np.abs(np.einsum("ij,ikl->jkl", R, lc) - R @ lc + lc @ R)))
                 for R in space.iso)
    bound = 1e-12 * float(np.linalg.norm(space.pm)) + 10 * defect
    assert np.max(np.abs(conn.lambda_coeffs - want[0])) <= bound
    assert np.max(np.abs(conn.torsion.t3 - want[1])) <= bound


def test_characteristic_lies_in_equivariant_family():
    for sid in ["M1", "M2", "M3", "M4"]:
        for a, b, g in draws(sid, 2, seed=5):
            ctx = pipeline(sid, alpha=a, beta=b, gamma=g)
            B = ctx["family"].reshape(len(ctx["family"]), -1).T  # orthonormal columns
            L = ctx["conn"].lambda_coeffs.ravel()
            assert np.linalg.norm(L - B @ (B.T @ L)) <= 1e-12, (sid, a, b, g)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_feasibility_band_m1(scale):
    # one extra alpha (1 + eps) alpha: the residual grows like eps ||pm||
    a = 1.1 * scale
    for eps, feasible in ((0.0, True), (1e-8, True), (1e-7, True), (1e-6, True),
                          (1e-5, False), (1e-4, False)):
        p = spaces.MetricParams(alpha=a, beta=0.8 * scale, gamma=1.4 * scale,
                                alphas=(a * (1 + eps),) + (a,) * 6)
        space = spaces.build("M1", p)
        try:
            con.characteristic_connection(space)
            got = True
        except Infeasible:
            got = False
        assert got == feasible, eps


def test_m4_integrable_point():
    ctx = pipeline("M4", alpha=1.0, beta=2.0, gamma=1.2)
    T = ctx["conn"].torsion
    assert T.norm2_increasing <= 1e-18


def test_nabla_torsion_parallel_m1_any_params():
    for a, b, g in draws("M1", 2, seed=6):
        ctx = pipeline("M1", alpha=a, beta=b, gamma=g)
        flag, ratio = con.torsion_is_parallel(ctx["conn"])
        assert flag, ratio


def test_nabla_torsion_m4_cases():
    flag, _ = con.torsion_is_parallel(pipeline("M4", alpha=1.0, beta=1.0, gamma=1.6)["conn"])
    assert flag
    flag, ratio = con.torsion_is_parallel(pipeline("M4", alpha=1.0, beta=1.5, gamma=1.0)["conn"])
    assert not flag and ratio > 1e-4


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e14])
def test_parallel_flag_is_scale_invariant(scale):
    points = [
        ("M1", (1.0, 1.3, 0.7)),
        ("M2", (1.0, 1.5, 0.8)),
        ("M3", (0.7, 1.2, 1.4)),
        ("M4", (1.0, 1.0, 1.6)),
        ("M4", (1.0, 2.0, 1.2)),
        ("M4", (1.0, 2.0, 1.3)),
        ("M4", (1.0, 1.5, 1.0)),
    ]
    for sid, (a, b, g) in points:
        ctx = pipeline(sid, alpha=a * scale, beta=b * scale, gamma=g * scale)
        flag, ratio = con.torsion_is_parallel(ctx["conn"])
        assert flag == spaces.fixtures(sid).parallel(ctx["params"]), (sid, a, b, g, ratio)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e6, 1e14])
def test_feasibility_is_scale_invariant(scale):
    for alphas in ((), (2.0,) + (1.0,) * 6):
        ctx = pipeline("M1", alpha=scale, beta=scale, gamma=scale,
                       alphas=tuple(a * scale for a in alphas))
        try:
            con.characteristic_connection(ctx["space"])
            feasible = True
        except Infeasible:
            feasible = False
        assert feasible == spaces.fixtures("M1").char_feasible(ctx["params"]), alphas


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e12, 1e20])
def test_lambda_entries_are_scale_free(scale):
    # Lambda scales like s^(-1/2) under alpha, beta -> s alpha, s beta
    ref = pipeline("M2", alpha=1.0, beta=2.0)["conn"].nonzero_entries()
    got = pipeline("M2", alpha=scale, beta=2.0 * scale)["conn"].nonzero_entries()
    assert [(j, a) for j, a, _ in got] == [(j, a) for j, a, _ in ref]
    for (_, _, c), (_, _, c0) in zip(got, ref):
        assert abs(c * np.sqrt(scale) - c0) <= 1e-9 * abs(c0)


def test_derived_tensors_are_read_only():
    conn = pipeline("M4", alpha=1.1, beta=1.5, gamma=0.7)["conn"]
    T = conn.torsion
    for arr in (conn.stack, T.t3, T.t12, conn.ad, conn.curvature, conn.lambda_coeffs):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    # each tensor is computed once and then kept, and none can be replaced
    for name in ("stack", "torsion", "ad", "curvature"):
        assert getattr(conn, name) is getattr(conn, name)
        with pytest.raises(FrozenInstanceError):
            setattr(conn, name, None)


def test_classify_type_parseval_and_mixed():
    ctx = pipeline("M1", alpha=1.0, beta=1.0, gamma=1.0)
    T = ctx["conn"].torsion
    comps = con.classify_type(T.t3, np.linalg.norm(ctx["space"].pm))
    assert set(comps) == {-8, -12, -18, -16}
    assert abs(sum(comps.values()) - T.norm2_increasing) < 1e-10
    assert sum(1 for v in comps.values() if v > 1e-9) >= 2


def test_classify_type_rejects_non_forms():
    bad = np.zeros((14, 14, 14))
    bad[0, 1, 2] = 1.0  # not antisymmetrized
    with pytest.raises(NotSkew):
        con.classify_type(bad, 1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-8, 8),
       part=st.sampled_from([None, -8, -12, -16, -18]))
def test_classify_type_matches_eigenbasis_route(seed, exponent, part):
    # the spectral parts against the eigenbases of the independent Casimir
    # eigensolve, for a random 3-form or one inside a single part
    bases = {round(ev): basis for ev, _, basis in reps.lambda3_decomposition().parts}
    v = np.random.default_rng(seed).standard_normal(364)
    if part is not None:
        v = bases[part] @ (bases[part].T @ v)
    v *= 10.0 ** exponent
    comps = con.classify_type(con._three_form(v), np.linalg.norm(v))
    assert comps.keys() == bases.keys()
    for cas, basis in bases.items():
        assert abs(comps[cas] - np.linalg.norm(basis.T @ v) ** 2) <= 1e-12 * (v @ v)


def test_m4_pure_types():
    for b, g in [(1.0, 1.0), (2.0, 0.5)]:
        a = spaces.m4_pure_sp3_alpha(b, g)
        conn = pipeline("M4", alpha=float(a), beta=b, gamma=g)["conn"]
        comps = con.classify_type(conn.torsion.t3, np.linalg.norm(conn.space.pm))
        assert np.sqrt(sum(v for k, v in comps.items() if k != -8)) <= 1e-8
        a = spaces.m4_pure_189_alpha(b, g)
        conn = pipeline("M4", alpha=float(a), beta=b, gamma=g)["conn"]
        comps = con.classify_type(conn.torsion.t3, np.linalg.norm(conn.space.pm))
        assert np.sqrt(sum(v for k, v in comps.items() if k != -16)) <= 1e-8


def test_holonomy_cases():
    cases = [
        ("M1", dict(alpha=1.0, beta=1.0, gamma=1.0), 1, "torus"),
        ("M1", dict(alpha=1.0, beta=1.0, gamma=1.5), 2, "torus"),
        ("M1", dict(alpha=1.0, beta=1.5, gamma=1.0), 2, "torus"),
        ("M1", dict(alpha=1.0, beta=1.5, gamma=0.5), 3, "torus"),
        ("M3", dict(alpha=1.0, beta=0.7, gamma=1.3), 3, "torus"),
        ("M4", dict(alpha=1.0, beta=1.4, gamma=1.0), 21, "sp3"),
        ("M4", dict(alpha=1.0, beta=1.0, gamma=1.8), 11, "sp2+w1"),
        ("M4", dict(alpha=1.0, beta=1.0, gamma=1.0), 10, "sp2"),
    ]
    for sid, kw, dim, label in cases:
        hol = con.holonomy_algebra(pipeline(sid, **kw)["conn"])
        assert (hol.dim, hol.label) == (dim, label), (sid, kw)


def test_holonomy_m2_pinned_case_split():
    # four sign cases of (alpha-beta, alpha-gamma), plus the equality locus:
    # the computed split depends only on whether beta = alpha
    for b, g, want in [(0.5, 0.5, 3), (0.5, 2.0, 3), (2.0, 0.5, 3), (2.0, 2.0, 3),
                       (1.0, 0.5, 2), (1.0, 2.0, 2)]:
        hol = con.holonomy_algebra(pipeline("M2", alpha=1.0, beta=b, gamma=g)["conn"])
        assert hol.dim == want, (b, g)
        assert hol.label == "torus"


def test_holonomy_basis_closed_and_inside_target(sp3_data):
    from gstruct.liealg import CoordinateFrame, bracket

    hol = con.holonomy_algebra(pipeline("M4", alpha=1.0, beta=1.4, gamma=0.9)["conn"])
    frame = CoordinateFrame(list(hol.basis))
    for i in range(min(4, hol.dim)):
        for j in range(i + 1, min(5, hol.dim)):
            _, res = frame.stack_coords(bracket(hol.basis[i], hol.basis[j])[None])
            assert res[0] < 1e-9
    for m in hol.basis:
        _, resid = sp3_data.project_rho(m)
        assert resid < 1e-9


def test_parallel_vector_fields():
    conn = pipeline("M1", alpha=1.0, beta=1.4, gamma=0.8)["conn"]
    vecs, omegas = parallel_vector_fields(conn, con.holonomy_algebra(conn))
    assert vecs.shape[1] >= 2
    P = vecs @ vecs.T
    for idx in (12, 13):
        e = np.zeros(14)
        e[idx] = 1.0
        assert np.linalg.norm(P @ e - e) < 1e-9
    assert len(omegas) == vecs.shape[1]
    for om in omegas:
        assert np.max(np.abs(om + om.T)) < 1e-12

    conn4 = pipeline("M4", alpha=1.0, beta=1.0, gamma=1.0)["conn"]
    vecs4, _ = parallel_vector_fields(conn4, con.holonomy_algebra(conn4))
    e14 = np.zeros(14)
    e14[13] = 1.0
    P4 = vecs4 @ vecs4.T
    assert np.linalg.norm(P4 @ e14 - e14) < 1e-9

    conn_full = pipeline("M4", alpha=1.0, beta=1.6, gamma=1.0)["conn"]
    vecs_full, _ = parallel_vector_fields(conn_full, con.holonomy_algebra(conn_full))
    assert vecs_full.shape[1] == 0


def _loop_equivariance_block(R):
    """Reference: the row-by-row construction the array-built block replaced."""
    import gstruct.sp3 as sp3

    R21 = np.array(sp3.load().rho)
    br = np.einsum("kl,alm->akm", R, R21) - np.einsum("akl,lm->akm", R21, R)
    m = np.einsum("akm,cmk->ac", br, R21) / (-4.0)
    block = np.zeros((14 * 21, 14 * 21))
    for j in range(14):
        for c in range(21):
            row = np.zeros((14, 21))
            row[:, c] += R[:, j]
            row[j, :] -= m[:, c]
            block[j * 21 + c] = row.ravel()
    return block


def test_equivariance_block_matches_loop_reference():
    # the rows 294 g .. 294 g + 293 of the entry-built system are generator g's block
    for sid in ("M2", "M4"):
        space = pipeline(sid, alpha=1.2, beta=0.8, gamma=1.5)["space"]
        A = densify(*con._equivariance_entries(space.iso))
        assert A.shape == (294 * len(space.iso), 294)
        for R, block in zip(space.iso, A.reshape(-1, 294, 294)):
            ref = _loop_equivariance_block(R)
            assert np.max(np.abs(block - ref)) <= 1e-13 * max(np.max(np.abs(ref)), 1.0)


# References: the einsum forms that the matrix products replaced.
def _einsum_curvature(space, lam):
    comm = np.einsum("iab,jbc->ijac", lam, lam)
    comm = comm - np.swapaxes(comm, 0, 1)
    return comm - np.einsum("ijk,kab->ijab", space.pm, lam) - np.einsum("ijr,rab->ijab", space.ph, space.iso)


def _einsum_nabla_torsion(lam, t12):
    return (np.einsum("vkl,lij->vkij", lam, t12) - np.einsum("vli,klj->vkij", lam, t12)
            - np.einsum("vlj,kil->vkij", lam, t12))


def _einsum_rho_coords(stack):
    return -0.25 * np.einsum("jkl,alk->ja", stack, sp3.load().rho)


def _einsum_pr_m(stack):
    return stack - np.einsum("jb,bkl->jkl", _einsum_rho_coords(stack), sp3.load().rho)


@pytest.mark.parametrize("seed", range(3))
def test_contractions_match_einsum_reference(seed):
    rng = np.random.default_rng(seed)
    lam, stack, t12 = (rng.standard_normal((14, 14, 14)) for _ in range(3))
    lam = lam - lam.transpose(0, 2, 1)
    space = SimpleNamespace(pm=rng.standard_normal((14, 14, 14)), ph=rng.standard_normal((14, 14, 10)),
                            iso=rng.standard_normal((10, 14, 14)))
    # a 3-form, for which nabla T is one too and its max is taken over the increasing triples
    t3 = con._three_form(rng.standard_normal(364))
    for got, ref in [
        (curvature_of_map(space, lam), _einsum_curvature(space, lam)),
        (nabla_torsion(lam, t12), _einsum_nabla_torsion(lam, t12)),
        (con._rho_coords(stack), _einsum_rho_coords(stack)),
        (con._pr_m(stack), _einsum_pr_m(stack)),
        (curv.ricci_riemannian(space), np.trace(_einsum_curvature(space, con.levi_civita(space)), axis1=0, axis2=2)),
        (np.array(con._max_nabla_t(lam, t3)), np.max(np.abs(_einsum_nabla_torsion(lam, t3.transpose(2, 0, 1))))),
    ]:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _theta_rho_dense():
    N = np.zeros((294, 364))
    rows, cols, vals = reps.theta_rho_entries()
    N[rows, cols] = vals
    return N


@pytest.mark.parametrize("seed", range(3))
def test_theta_rho_part_matches_three_form_route(seed):
    # N v against the rho coordinates of the (14, 14, 14) stack of v, and
    # G v = 3 v - 2 N^T N v against the three-stack route of Theta^T Theta
    v = np.random.default_rng(seed).standard_normal(364)
    ref = con._rho_coords(con._three_form(v)).ravel()
    assert np.max(np.abs(con._rho_part(v) - ref)) <= 1e-13 * np.max(np.abs(ref))
    ref = con._theta_t(con._pr_m(con._three_form(v)))
    got = 3.0 * v - 2.0 * con._rho_part(con._rho_part(v), transpose=True)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    c = np.random.default_rng(seed + 10).standard_normal(294)
    assert np.max(np.abs(con._rho_part(c, transpose=True) - _theta_rho_dense().T @ c)) <= 1e-13 * np.max(np.abs(c))


def test_theta_rho_part_gives_theta_gram():
    N = _theta_rho_dense()
    rows, _, _ = reps.theta_rho_entries()
    assert rows.size == 1248 and np.all(np.diff(rows) >= 0)
    theta = densify(*reps.theta_entries(reps.so_complement(sp3.load().rho)))
    assert np.max(np.abs(3.0 * np.eye(364) - 2.0 * N.T @ N - theta.T @ theta)) <= 1e-13


def _loop_holonomy(conn, tol=DEFAULT_TOL):
    """Reference: (dim, label, packed basis) from the per-matrix seed loop,
    the per-pair closure rounds and the per-element label test."""
    space = conn.space
    lam = conn.stack

    def span(mats):
        return orthonormal_columns(np.array([pack_pairs(m) for m in mats]).T, tol)

    seeds = []
    for i in range(14):
        for j in range(i + 1, 14):
            m = lam[i] @ lam[j] - lam[j] @ lam[i]
            m -= np.einsum("k,kab->ab", space.pm[i, j], lam)
            m -= np.tensordot(space.ph[i, j], np.array(space.iso), axes=(0, 0))
            seeds.append(m)
    on = span(seeds)
    basis = [unpack_pairs(col, 14) for col in on.T]
    for _ in range(91):
        on2 = span(basis + [L @ B - B @ L for L in lam for B in basis])
        if on2.shape[1] == on.shape[1]:
            break
        on, basis = on2, [unpack_pairs(col, 14) for col in on2.T]

    def inside(target_idx):
        rho = sp3.load().rho
        Ton = span([rho[i] for i in target_idx])
        for m in basis:
            v = pack_pairs(m)
            if np.linalg.norm(v - Ton @ (Ton.T @ v)) > 1e3 * RESIDUAL_TOL * max(np.linalg.norm(v), 1.0):
                return False
        return True

    dim = len(basis)
    if dim <= 3 and inside([8, 9, 20]):
        label = "torus"
    elif dim == 10 and inside(range(10)):
        label = "sp2"
    elif dim == 11 and inside(list(range(10)) + [18, 19, 20]):
        label = "sp2+w1"
    elif dim == 21 and inside(range(21)):
        label = "sp3"
    else:
        label = f"other({dim})" if not inside(range(21)) else f"sp3-subalgebra({dim})"
    return dim, label, on


@pytest.mark.parametrize("sid,kw", [
    ("M1", dict(alpha=1.0, beta=1.0, gamma=1.0)),
    ("M1", dict(alpha=1.1, beta=1.5, gamma=0.7)),
    ("M2", dict(alpha=1.0, beta=1.0, gamma=2.0)),
    ("M2", dict(alpha=1.1, beta=1.5, gamma=0.7)),
    ("M3", dict(alpha=1.1, beta=1.5, gamma=0.7)),
    ("M4", dict(alpha=1.0, beta=1.0, gamma=1.0)),
    ("M4", dict(alpha=1.0, beta=1.0, gamma=1.8)),
    ("M4", dict(alpha=1.1, beta=1.5, gamma=0.7)),
    ("M4", dict(alpha=1.0, beta=2.0, gamma=1.2)),
])
def test_holonomy_matches_loop_reference(sid, kw):
    conn = pipeline(sid, **kw)["conn"]
    hol = con.holonomy_algebra(conn)
    dim, label, on = _loop_holonomy(conn)
    assert (hol.dim, hol.label) == (dim, label)
    got = np.array([pack_pairs(m) for m in hol.basis]).reshape(-1, 91).T
    assert np.max(np.abs(got @ got.T - on @ on.T)) <= 1e-12


def test_holonomy_skips_the_svd_that_cannot_grow(monkeypatch):
    # at sp(3) holonomy the last round stacks the 21 basis columns with the
    # 14 * 21 brackets; their residual is round-off, so no 21x315 SVD runs
    conn = pipeline("M4", alpha=1.1, beta=1.5, gamma=0.7)["conn"]
    shapes = []

    def recording(V, *args, **kwargs):
        shapes.append(np.shape(V))
        return orthonormal_columns(V, *args, **kwargs)

    monkeypatch.setattr(con, "orthonormal_columns", recording)
    hol = con.holonomy_algebra(conn)
    assert (hol.dim, hol.label) == (21, "sp3")
    assert (21, 315) not in shapes and (21, 91) in shapes
