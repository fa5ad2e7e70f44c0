import dataclasses

import numpy as np
import pytest
from conftest import assert_point_checks, densify, pipeline
from hypothesis import given, settings
from hypothesis import strategies as st

from gstruct import liealg, linalg, sp3, spaces
from gstruct.analysis import Analysis
from gstruct.connections import _equivariance_entries, solve_equivariant
from gstruct.errors import BadParams, NotReductive, StructureViolation
from gstruct.spin import _lift_entries, invariant_spinors
from gstruct.liealg import InnerProductSpec, ReductiveSplit, bracket, inner, uniform_ip
from gstruct.linalg import DEFAULT_TOL
from gstruct.sp3 import E, S


def test_canonical_ids_and_aliases():
    assert spaces.canonical_id("M1") == "su4-so2"
    assert spaces.canonical_id("su5-sp2") == "su5-sp2"
    with pytest.raises(BadParams):
        spaces.canonical_id("nope")


def test_params_validation():
    with pytest.raises(BadParams):
        spaces.MetricParams(alpha=-1.0)
    with pytest.raises(BadParams):
        spaces.MetricParams(alpha=1.0, beta=0.0)
    p = spaces.MetricParams(alpha=1.0, alphas=(1.0, 2.0))
    with pytest.raises(BadParams):
        p.filled_alphas(7)


def test_gram_identity_random_draws():
    rng = np.random.default_rng(7)
    for sid, extra in [("M1", 7), ("M2", 5), ("M3", 5), ("M4", 0)]:
        for _ in range(3):
            a, b, g = rng.uniform(0.5, 2.0, 3)
            alphas = tuple(rng.uniform(0.5, 2.0, extra))
            p = spaces.MetricParams(alpha=float(a), alphas=alphas, beta=float(b), gamma=float(g))
            space = spaces.build(sid, p)
            G = space.split.gram_m()
            assert np.max(np.abs(G - np.eye(14))) < 1e-10, sid


def test_isotropy_identifications(sp3_data):
    m1 = pipeline("M1")["space"]
    assert np.max(np.abs(m1.iso[0] - np.sqrt(2) * sp3_data.rho[20])) < 1e-12

    m2 = pipeline("M2")["space"]
    assert np.max(np.abs(m2.iso[0] - np.sqrt(2) * sp3_data.rho[20])) < 1e-12
    assert np.max(np.abs(m2.iso[1] - np.sqrt(2) * sp3_data.rho[9])) < 1e-12

    m3 = pipeline("M3")["space"]
    targets = [sp3_data.rho[20], sp3_data.rho[9], sp3_data.rho[8]]
    for R, t in zip(m3.iso, targets):
        assert np.max(np.abs(R - np.sqrt(2) * t)) < 1e-12

    m4 = pipeline("M4")["space"]
    for i in range(10):
        assert np.max(np.abs(m4.iso[i] - sp3_data.rho[i])) < 1e-12


def test_isotropy_param_independence_tori():
    for sid in ["M1", "M2", "M3"]:
        s1 = pipeline(sid, alpha=0.7, beta=1.9, gamma=0.8)["space"]
        s2 = pipeline(sid, alpha=1.6, beta=0.6, gamma=1.2)["space"]
        for A, B in zip(s1.iso, s2.iso):
            assert np.max(np.abs(A - B)) < 1e-12


def test_bracket_tables_consistency():
    from gstruct.liealg import bracket

    space = pipeline("M4", alpha=1.2, beta=0.9, gamma=1.4)["space"]
    K, H = space.split.m_basis, space.split.h_basis
    rng = np.random.default_rng(1)
    for _ in range(6):
        i, j = rng.integers(0, 14, 2)
        br = bracket(K[i], K[j])
        recon = sum(space.pm[i, j, k] * K[k] for k in range(14))
        recon += sum(space.ph[i, j, r] * H[r] for r in range(len(H)))
        assert np.max(np.abs(br - recon)) < 1e-11


def test_fixture_dims():
    for sid in ["M1", "M2", "M3", "M4"]:
        assert_point_checks(sid, [(1.0, 1.0, 1.0)], "family dim", "invariant spinors")


def test_torsion_fixture_values():
    p = spaces.MetricParams(alpha=2.0, beta=4.0, gamma=9.0)
    t1 = spaces.fixtures("M1").torsion(p)
    assert abs(t1[(0, 4, 8)] - 0.5) < 1e-15  # 1/sqrt(2 alpha)
    assert abs(t1[(4, 5, 12)] - 1.0) < 1e-15  # sqrt(beta)/alpha
    assert abs(t1[(0, 1, 13)] - 1.5) < 1e-15  # sqrt(gamma)/alpha
    t2 = spaces.fixtures("M2").torsion(p)
    assert abs(t2[(4, 5, 12)] - 1.0) < 1e-15
    assert (0, 1, 13) not in t2
    t4 = spaces.fixtures("M4").torsion(p)
    assert abs(t4[(0, 1, 12)] - 0.0) < 1e-15  # (2a-b)/(2a sqrt b) at b=2a


# ---------------------------------------------------------------------------
# assemble and the M4 frames are batched array expressions, and the M1-M3
# frames are read off one root table; the per-matrix loops and hand-written
# frames they replaced are kept here as references.


def _loop_su4_frames(p):
    a = p.alpha
    a2, a3, a4, a5, a6, a7, a8 = p.filled_alphas(7)
    b, g = p.beta, p.gamma
    E4 = lambda i, j: E(4, i, j)
    S4 = lambda i, j: S(4, i, j)
    K = [
        E4(1, 3) / np.sqrt(2 * a),
        1j * S4(1, 3) / np.sqrt(2 * a),
        E4(2, 4) / np.sqrt(2 * a2),
        1j * S4(2, 4) / np.sqrt(2 * a2),
        E4(2, 3) / np.sqrt(2 * a3),
        1j * S4(2, 3) / np.sqrt(2 * a3),
        E4(1, 4) / np.sqrt(2 * a4),
        1j * S4(1, 4) / np.sqrt(2 * a4),
        E4(1, 2) / np.sqrt(2 * a5),
        1j * S4(1, 2) / np.sqrt(2 * a6),
        E4(3, 4) / np.sqrt(2 * a7),
        1j * S4(3, 4) / np.sqrt(2 * a8),
        (1j / (2 * np.sqrt(b))) * (S4(1, 1) - S4(2, 2) + S4(3, 3) - S4(4, 4)),
        (1j / (2 * np.sqrt(g))) * (-S4(1, 1) + S4(2, 2) + S4(3, 3) - S4(4, 4)),
    ]
    H = [0.5j * (S4(1, 1) + S4(2, 2) - S4(3, 3) - S4(4, 4))]
    blocks = ((0, 1), (2, 3), (4, 5), (6, 7), (8,), (9,), (10,), (11,), (12,), (13,))
    coeffs = (a, a2, a3, a4, a5, a6, a7, a8, b, g)
    return K, H, InnerProductSpec(blocks, coeffs)


def _loop_u4_frames(p):
    a = p.alpha
    a2, a3, a4, a5, a6 = p.filled_alphas(5)
    b, g = p.beta, p.gamma
    E4 = lambda i, j: E(4, i, j)
    S4 = lambda i, j: S(4, i, j)
    K = [
        E4(1, 3) / np.sqrt(2 * a),
        1j * S4(1, 3) / np.sqrt(2 * a),
        E4(2, 4) / np.sqrt(2 * a2),
        1j * S4(2, 4) / np.sqrt(2 * a2),
        E4(2, 3) / np.sqrt(2 * a3),
        1j * S4(2, 3) / np.sqrt(2 * a3),
        E4(1, 4) / np.sqrt(2 * a4),
        1j * S4(1, 4) / np.sqrt(2 * a4),
        E4(1, 2) / np.sqrt(2 * a5),
        1j * S4(1, 2) / np.sqrt(2 * a5),
        E4(3, 4) / np.sqrt(2 * a6),
        1j * S4(3, 4) / np.sqrt(2 * a6),
        (1j / (2 * np.sqrt(b))) * (S4(1, 1) - S4(2, 2) + S4(3, 3) - S4(4, 4)),
        (1j / (2 * np.sqrt(g))) * (S4(1, 1) + S4(2, 2) + S4(3, 3) + S4(4, 4)),
    ]
    H = [
        0.5j * (S4(1, 1) + S4(2, 2) - S4(3, 3) - S4(4, 4)),
        0.5j * (-S4(1, 1) + S4(2, 2) + S4(3, 3) - S4(4, 4)),
    ]
    blocks = ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12,), (13,))
    coeffs = (a, a2, a3, a4, a5, a6, b, g)
    return K, H, InnerProductSpec(blocks, coeffs)


def _embed5(m44):
    out = np.zeros((5, 5), dtype=complex)
    out[:4, :4] = m44
    return out


def _loop_u4u1_frames(p):
    b = p.beta
    q = spaces.MetricParams(alpha=p.alpha, alphas=p.alphas, beta=1.0, gamma=p.gamma)
    K2, H2, ip2 = _loop_u4_frames(q)
    S4 = lambda i, j: S(4, i, j)
    K = [_embed5(k) for k in K2]
    u1 = np.zeros((5, 5), dtype=complex)
    u1[4, 4] = 1j / np.sqrt(b)
    K[12] = u1
    H = [_embed5(h) for h in H2]
    H.append(_embed5(0.5j * (S4(1, 1) - S4(2, 2) + S4(3, 3) - S4(4, 4))))
    coeffs = ip2.coefficients[:-2] + (b, p.gamma)
    return K, H, InnerProductSpec(ip2.blocks, coeffs)


_LOOP_TORUS_FRAMES = {"M1": _loop_su4_frames, "M2": _loop_u4_frames, "M3": _loop_u4u1_frames}


@pytest.mark.parametrize("scale", [None, 1.0, 1e-8, 1e14])
@pytest.mark.parametrize("sid", ["M1", "M2", "M3"])
def test_root_table_matches_loop_reference(sid, scale):
    # the unit metric, then unequal alphas at three scales
    p = spaces.MetricParams()
    if scale is not None:
        alphas = tuple(scale * (0.6 + 0.15 * k) for k in range(spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)]))
        p = spaces.MetricParams(alpha=1.1 * scale, alphas=alphas, beta=0.8 * scale, gamma=1.4 * scale)
    K, H, ip = spaces.frames(sid, p)
    K_ref, H_ref, ip_ref = _LOOP_TORUS_FRAMES[sid](p)
    assert np.array_equal(K, np.array(K_ref, dtype=complex))
    assert np.array_equal(H, np.array(H_ref, dtype=complex))
    assert ip.blocks == ip_ref.blocks and ip.coefficients == ip_ref.coefficients


def _loop_su5_frames(p):
    data = sp3.load()
    basis = spaces._su5_basis()
    sp2 = [data.A[i] for i in range(10)]
    G = np.zeros((24, 24))
    constraints = sp2 + list(data.B)
    for col, u in enumerate(basis):
        for row, c in enumerate(constraints):
            G[row, col] = inner(u, c)
    rhs = np.zeros((24, 14))
    rhs[10:, :] = np.eye(14)
    X = np.linalg.solve(G, rhs)
    khat = [sum(X[a, i] * basis[a] for a in range(24)) for i in range(14)]
    norms = np.array([inner(k, k) for k in khat])
    scales = [np.sqrt(p.alpha * norms[0])] * 8 + [np.sqrt(p.beta * norms[8])] * 5
    scales += [np.sqrt(p.gamma * norms[13])]
    return [k / s for k, s in zip(khat, scales)], sp2


def _loop_assemble(K, H, tol=DEFAULT_TOL):
    """(iso, pm, ph) with one bracket and one coordinate solve
    at a time."""
    split = ReductiveSplit(h_basis=list(H), m_basis=list(K), ip=uniform_ip(14))
    iso = []
    for Hm in split.h_basis:
        R = np.zeros((14, 14))
        for j, Kj in enumerate(split.m_basis):
            scale = np.linalg.norm(Hm) * np.linalg.norm(Kj)
            (ch,), (cm,) = split.split_stack(bracket(Hm, Kj)[None], scale, tol)
            assert not tol.exceeds(np.linalg.norm(ch), scale)
            R[:, j] = cm
        iso.append(R)
    pm = np.zeros((14, 14, 14))
    ph = np.zeros((14, 14, len(H)))
    for i in range(14):
        for j in range(i + 1, 14):
            Ki, Kj = split.m_basis[i], split.m_basis[j]
            scale = np.linalg.norm(Ki) * np.linalg.norm(Kj)
            (ch,), (cm,) = split.split_stack(bracket(Ki, Kj)[None], scale, tol)
            pm[i, j], pm[j, i] = cm, -cm
            ph[i, j], ph[j, i] = ch, -ch
    return np.array(iso), pm, ph


def _close(got, want, rel=1e-13):
    return np.max(np.abs(np.asarray(got) - want)) <= rel * max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e14])
@pytest.mark.parametrize("sid", ["M1", "M2", "M3", "M4"])
def test_assemble_matches_loop_reference(sid, scale):
    p = spaces.MetricParams(alpha=1.1 * scale, beta=1.5 * scale, gamma=0.7 * scale)
    space = spaces.build(sid, p)
    if sid == "M4":
        K, H = _loop_su5_frames(p)
        assert _close(space.split.m_basis, np.array(K))
    else:
        K, H, _ = _LOOP_TORUS_FRAMES[sid](p)
    iso, pm, ph = _loop_assemble(K, H)
    assert _close(space.iso, iso)
    assert _close(space.pm, pm)
    assert _close(space.ph, ph)


def test_assemble_small_defect_beside_large_brackets():
    # M1's frames inside u(5), with alpha2 = 1e-4 so that K3, K4 (in the
    # e2, e4 plane) have norm 100 and [K3, K4] norm 1e4.  K1 is pushed out
    # of h + m by 1e-5 * E15, which commutes with K3 and K4: the brackets
    # of K1 with H and with the unit-size frame elements leave h + m by
    # about 1e-5 of their own norm, and no large bracket leaves it.  One
    # residual scale for a whole batch (set by the large brackets) would
    # let this pass.
    p = spaces.MetricParams(alpha=1.0, alphas=(1e-4, 1, 1, 1, 1, 1, 1))
    K, H, ip = spaces.frames("su4-so2", p)
    K, H = spaces._embed5(K), spaces._embed5(H)
    assert np.linalg.norm(bracket(K[2], K[3])) > 1e4
    good = spaces.assemble("custom", K, H, ip)
    assert np.max(np.abs(good.pm - spaces.build("M1", p).pm)) < 1e-10
    K[0] = K[0] + 1e-5 * E(5, 1, 5)
    with pytest.raises(NotReductive):
        spaces.assemble("custom", K, H, ip)


@settings(max_examples=24, deadline=None)
@given(
    sid=st.sampled_from(["M1", "M2", "M3", "M4"]),
    coeffs=st.lists(st.floats(0.5, 2.0), min_size=10, max_size=10),
    log_scale=st.floats(-8, 14),
)
def test_build_matches_assembled_frames(sid, coeffs, log_scale):
    """``build`` rescales the unit-metric space; assembling the frames at
    the same metric agrees entry by entry within round-off of the operands:
    ||K_i|| ||K_j|| / ||K_k|| for pm, ||K_i|| ||K_j|| / ||H_r|| for ph,
    ||H_r|| ||K_j|| / ||K_k|| for the isotropy and ||K_i|| for the frame."""
    sid = spaces.canonical_id(sid)
    s = 10.0 ** log_scale
    a, b, g, *extra = (s * c for c in coeffs)
    p = spaces.MetricParams(alpha=a, alphas=tuple(extra[: spaces._EXTRA_ALPHAS[sid]]), beta=b, gamma=g)
    space, ref = spaces.build(sid, p), spaces.assemble(sid, *spaces.frames(sid, p))
    k = np.linalg.norm(ref.split.m_basis, axis=(1, 2))
    h = np.linalg.norm(ref.split.h_basis, axis=(1, 2))
    kk = k[:, None, None] * k[None, :, None]
    rel = 1e-14
    assert np.all(np.abs(space.pm - ref.pm) <= rel * kk / k)
    assert np.all(np.abs(space.ph - ref.ph) <= rel * kk / h)
    assert np.all(np.abs(space.iso - ref.iso) <= rel * h[:, None, None] * k / k[:, None])
    assert np.all(np.abs(space.split.m_basis - ref.split.m_basis) <= rel * k[:, None, None])


@pytest.mark.parametrize("sid", ["M1", "M2", "M3", "M4"])
def test_warm_analyze_builds_no_coordinate_frame(monkeypatch, sid):
    # the tables are rescaled, so no pseudo-inverse is taken once the unit
    # metric is assembled; the first analyze of the space warms it up
    def run(alpha):
        a = Analysis(spaces.build(sid, spaces.MetricParams(alpha=alpha, beta=0.8, gamma=1.4)))
        return a.type_components, a.dirac

    run(1.3)
    built = []
    init = liealg.CoordinateFrame.__init__
    monkeypatch.setattr(liealg.CoordinateFrame, "__init__", lambda self, mats: built.append(init(self, mats)))
    run(1.1)
    assert not built


# ---------------------------------------------------------------------------
# The isotropy of a catalog space does not depend on the metric: every build
# checks that rescaling leaves the unit metric's isotropy unchanged, and the
# builds of M4 share the results computed from that one.


@pytest.mark.parametrize("scale", [1e-8, 1e14])
@pytest.mark.parametrize("sid", ["M1", "M2", "M3", "M4"])
def test_bracket_tables_are_scale_free(sid, scale):
    # K scales by 1/sqrt(s): pm (over K) by 1/sqrt(s), ph (over the fixed h) by 1/s
    base = spaces.build(sid, spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4))
    scaled = spaces.build(sid, spaces.MetricParams(alpha=1.1 * scale, beta=0.8 * scale, gamma=1.4 * scale))
    assert _close(scaled.pm * np.sqrt(scale), base.pm, rel=2e-15)
    assert _close(scaled.ph * scale, base.ph, rel=2e-15)


def _sp3_rotation(seed):
    """g = exp(rho(X)) in Sp(3) inside SO(14), X with coefficients 0.7 N(0, 1)."""
    A = np.tensordot(0.7 * np.random.default_rng(seed).standard_normal(21), sp3.load().rho, axes=1)
    w, V = np.linalg.eigh(1j * A)  # A = -i V diag(w) V^H
    return ((V * np.exp(-1j * w)) @ V.conj().T).real


def _projector(basis):
    return basis @ basis.conj().T


@settings(max_examples=16, deadline=None)
@given(
    sid=st.sampled_from(["M1", "M2", "M3", "M4"]),
    coeffs=st.lists(st.floats(0.6, 1.8), min_size=10, max_size=10),
    log_scale=st.floats(-8, 14),
)
def test_shared_isotropy_results_match_each_build(sid, coeffs, log_scale):
    """A build at unequal alphas and a scaled metric gets the family and
    invariant spinors its own isotropy gives."""
    sid = spaces.canonical_id(sid)
    s = 10.0 ** log_scale
    a, b, g, *extra = (s * c for c in coeffs)
    p = spaces.MetricParams(alpha=a, alphas=tuple(extra[: spaces._EXTRA_ALPHAS[sid]]), beta=b, gamma=g)
    space = spaces.build(sid, p)
    own = spaces.assemble(sid, *spaces.frames(sid, p))  # its own memo, from its own isotropy
    assert space._memo is spaces._unit_metric_space(sid, DEFAULT_TOL)._memo and own._memo is not space._memo
    fam, fam_own = solve_equivariant(space), solve_equivariant(own)
    assert len(fam) == len(fam_own) == spaces.fixtures(sid).expected_family_dim
    assert _close(_projector(fam.reshape(len(fam), -1).T), _projector(fam_own.reshape(len(fam), -1).T), rel=1e-12)
    spin, spin_own = invariant_spinors(space), invariant_spinors(own)
    assert spin.dim == spin_own.dim == spaces.fixtures(sid).expected_spinor_dim
    assert np.max(np.abs(_projector(spin.basis) - _projector(spin_own.basis)), initial=0.0) <= 1e-12


def test_rotated_frame_solves_its_own_isotropy():
    # a frame rotated by g in Sp(3) is another space: its results solve the
    # systems of its own isotropy, which the catalog's results do not
    p = spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4)
    space = spaces.build("M4", p)
    K, H, ip = spaces.frames("su5-sp2", p)
    rot = _sp3_rotation(5)
    rotated = spaces.assemble("su5-sp2", np.tensordot(rot.T, K, axes=1), H, ip)
    assert rotated._memo is not space._memo
    assert _close(rotated.iso, rot.T @ space.iso @ rot, rel=1e-12)

    A = densify(*_equivariance_entries(rotated.iso))
    fam, fam_catalog = solve_equivariant(rotated), solve_equivariant(space)
    assert len(fam) == len(fam_catalog) == 7
    assert np.max(np.abs(A @ fam.reshape(7, -1).T)) <= 1e-12 * np.max(np.abs(A))
    assert np.max(np.abs(A @ fam_catalog.reshape(7, -1).T)) > 1e-2 * np.max(np.abs(A))

    L = densify(*_lift_entries(rotated.iso, DEFAULT_TOL))
    spin, spin_catalog = invariant_spinors(rotated), invariant_spinors(space)
    assert spin.dim == spin_catalog.dim == 4
    assert np.max(np.abs(L @ spin.basis)) <= 1e-12 * np.max(np.abs(L))
    assert np.max(np.abs(L @ spin_catalog.basis)) > 1e-2 * np.max(np.abs(L))


@pytest.mark.parametrize("sid", ["M1", "M2", "M3", "M4"])
def test_rotated_frame_systems_are_one_block(sid):
    # on a frame rotated by g in Sp(3) the isotropy systems lose their small
    # blocks: the equivariance system is one block and the spinor system the
    # two half-spin blocks, and from their entries they are solved as the
    # dense nullspace solves them, to the catalog frame's dimensions
    sid = spaces.canonical_id(sid)
    p = spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4)
    K, H, ip = spaces.frames(sid, p)
    rotated = spaces.assemble(sid, np.tensordot(_sp3_rotation(3).T, K, axes=1), H, ip)
    for entries, widths in ((_equivariance_entries(rotated.iso), [294]), (_lift_entries(rotated.iso, DEFAULT_TOL), [64, 64])):
        A = densify(*entries)
        _, groups = linalg._split_blocks(A, DEFAULT_TOL)
        assert [ci.size for _, _, cis in groups for ci in cis] == widths
        ker, ref = linalg.nullspace_entries(*entries), linalg.nullspace(A)
        assert ker.shape == ref.shape and ker.tobytes() == ref.tobytes()
    catalog, fx = spaces.build(sid, p), spaces.fixtures(sid)
    assert len(solve_equivariant(rotated)) == len(solve_equivariant(catalog)) == fx.expected_family_dim
    assert invariant_spinors(rotated).dim == invariant_spinors(catalog).dim == fx.expected_spinor_dim


def _decisions(a):
    """Every yes/no and dimension decision of an analysis."""
    conn, est = a.conn is not None, a.estimates
    cut = 1e-12 * np.linalg.norm(a.space.pm) ** 2
    return {
        "family dim": len(a.family),
        "feasible": conn,
        "parallel": conn and a.parallel[0],
        "holonomy": conn and (a.holonomy.dim, a.holonomy.label),
        "type support": conn and sorted(k for k, v in a.type_components.items() if v > cut),
        "spinor dim": a.spinors.dim,
        "parallel spinor dim": a.dirac and a.dirac.parallel_spinor_dim,
        "equality flags": est and (est.friedrich_equality, est.twistor_strict),
    }


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e14])
@pytest.mark.parametrize("sid, abg", [
    ("M1", (1.1, 0.8, 1.4)), ("M2", (1.0, 0.8, 1.3)), ("M2", (1.0, 1.0, 1.0)), ("M3", (0.9, 1.3, 0.7)),
    ("M4", (1.0, 1.0, 1.0)), ("M4", (1.0, 1.0, 1.3)), ("M4", (1.0, 1.5, 0.7)), ("M4", (1.0, 2.0, 1.2)),
    # a fourth entry is alpha2, the other extra alphas equal alpha: off the feasibility locus
    ("M1", (1.0, 0.8, 1.2, 1.3)), ("M2", (1.0, 0.8, 1.2, 1.3)), ("M3", (1.0, 0.8, 1.2, 1.3)),
])
def test_rotated_frame_keeps_the_holonomy_label(sid, abg, scale):
    # g in Sp(3) conjugates every invariant of the structure: each decision
    # of the whole pipeline on the rotated frame is the catalog frame's, and
    # the holonomy label names the algebra by invariants of its brackets
    sid = spaces.canonical_id(sid)
    a, b, g, *alpha2 = (scale * c for c in abg)
    alphas = (*alpha2, *[a] * (spaces._EXTRA_ALPHAS[sid] - 1)) if alpha2 else ()
    p = spaces.MetricParams(alpha=a, alphas=alphas, beta=b, gamma=g)
    K, H, ip = spaces.frames(sid, p)
    rotated = _decisions(Analysis(spaces.assemble(sid, np.tensordot(_sp3_rotation(3).T, K, axes=1), H, ip)))
    catalog = _decisions(Analysis(spaces.build(sid, p)))
    assert rotated == catalog
    fx = spaces.fixtures(sid)
    assert catalog["feasible"] == fx.char_feasible(p) == (not alpha2)
    assert catalog["family dim"] == fx.expected_family_dim and catalog["spinor dim"] == fx.expected_spinor_dim
    if catalog["feasible"]:
        assert catalog["holonomy"] == fx.holonomy(p) and catalog["parallel"] == fx.parallel(p)


def test_build_rejects_metric_dependent_isotropy(monkeypatch, fresh_isotropy_cache):
    # metric blocks that split the 8-dim sp(2) module K_1..K_8, which the
    # isotropy rotates: alpha != beta then scales one half against the other
    catalog = spaces._FRAME_BUILDERS["su5-sp2"]

    def split_blocks():
        return dataclasses.replace(catalog(), blocks=(tuple(range(4)), tuple(range(4, 13)), (13,)))

    monkeypatch.setitem(spaces._FRAME_BUILDERS, "su5-sp2", split_blocks)
    spaces.build("M4", spaces.MetricParams(alpha=1.1, beta=1.1))  # one coefficient across the split
    with pytest.raises(StructureViolation, match="isotropy depends on the metric"):
        spaces.build("M4", spaces.MetricParams(alpha=1.1))


def test_torus_builds_share_their_isotropy_results():
    # every build of M1-M3, at unequal alphas too, gets the unit metric's
    # family and invariant spinors: the same objects, solved once
    for sid in ("M1", "M2", "M3"):
        extra = spaces._EXTRA_ALPHAS[spaces.canonical_id(sid)]
        first = spaces.build(sid, spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4))
        unequal = spaces.MetricParams(alpha=0.9, alphas=tuple(0.7 + 0.1 * k for k in range(extra)), beta=1.3, gamma=0.6)
        second = spaces.build(sid, unequal)
        assert solve_equivariant(first) is solve_equivariant(second)
        assert invariant_spinors(first) is invariant_spinors(second)
