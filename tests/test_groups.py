import numpy as np
import pytest
from conftest import densify, pack_pairs, unpack_pairs

from gstruct import groups, reps
from gstruct.errors import NotAnIdeal
from gstruct.liealg import bracket, structure_constants


def test_su2_family_is_volume_form():
    su2 = groups.su_algebra(2)
    fam = groups.canonical_torsion_family(su2, [(0, 1, 2)])
    assert len(fam) == 1
    # brute force: g([X,Y], Z) over the basis is totally antisymmetric with
    # a single independent component
    c = structure_constants(su2)
    v = fam[0]
    assert v.shape == (1,)
    assert abs(v[0] - c[0, 1, 2]) < 1e-14


def test_su2su2_two_parameter_family():
    alg = groups.su2_plus_su2()
    fam = groups.canonical_torsion_family(alg, [(0, 1, 2), (3, 4, 5)])
    assert len(fam) == 2
    assert abs(float(np.array(fam[0]) @ np.array(fam[1]))) < 1e-14


def test_commutator_rescaling_zero_at_half():
    # the (1-2t) rescaling of the commutator vanishes at t = 1/2
    su2 = groups.su_algebra(2)
    X, Y = su2[0], su2[1]
    t = 0.5
    T = (1 - 2 * t) * bracket(X, Y)
    assert np.max(np.abs(T)) == 0.0


def test_not_an_ideal_detection():
    su3 = groups.su_algebra(3)
    with pytest.raises(NotAnIdeal):
        groups.canonical_torsion_family(su3, [(0, 1, 2), tuple(range(3, 8))])


def test_theta_kernel_dimensions():
    assert groups.theta_kernel_adjoint(groups.su_algebra(2))[0].shape[1] == 1
    assert groups.theta_kernel_adjoint(groups.su_algebra(3))[0].shape[1] == 1
    assert groups.theta_kernel_adjoint(groups.su2_plus_su2())[0].shape[1] == 2


def test_center_contributes_nothing():
    u2 = groups.u_algebra(2)
    fam = groups.canonical_torsion_family(u2, [(0, 1, 2), (3,)])
    assert len(fam) == 1  # the center block yields the zero form


def test_theta_kernel_su2_plus_u1():
    # one simple ideal plus a center: kernel dimension stays 1
    su2 = groups.su_algebra(2)
    basis = []
    for b in su2:
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = b
        basis.append(m)
    center = np.zeros((3, 3), dtype=complex)
    center[2, 2] = 1j
    alg = np.array(basis + [center])
    assert groups.theta_kernel_adjoint(alg)[0].shape[1] == 1


def test_torsion_family_inside_theta_kernel():
    for alg, parts in [
        (groups.su_algebra(2), [(0, 1, 2)]),
        (groups.su_algebra(3), [tuple(range(8))]),
        (groups.su2_plus_su2(), [(0, 1, 2), (3, 4, 5)]),
    ]:
        kbasis, theta = groups.theta_kernel_adjoint(alg)
        fam = groups.canonical_torsion_family(alg, parts)
        assert len(fam) == kbasis.shape[1]
        for v in fam:
            assert np.linalg.norm(densify(*theta) @ v) <= 1e-9 * np.linalg.norm(v)


_LIE_ALGEBRAS = {
    "su2": (lambda: groups.su_algebra(2), [(0, 1, 2)]),
    "su3": (lambda: groups.su_algebra(3), [tuple(range(8))]),
    "su2+su2": (groups.su2_plus_su2, [(0, 1, 2), (3, 4, 5)]),
}


@pytest.mark.parametrize("name", sorted(_LIE_ALGEBRAS))
def test_theta_kernel_is_the_canonical_family(name):
    # biinvariant = canonical = characteristic: the kernel of Theta, solved
    # from its entries, is exactly the span of the per-ideal commutator forms
    build, parts = _LIE_ALGEBRAS[name]
    alg = build()
    kernel, _ = groups.theta_kernel_adjoint(alg)
    family, _ = np.linalg.qr(np.array(groups.canonical_torsion_family(alg, parts)).T)
    assert kernel.shape == family.shape
    # the sines of the principal angles between the two spans
    sines = np.linalg.svd(family - kernel @ (kernel.T @ family), compute_uv=False)
    assert sines.max() <= 1e-12


def test_theta_and_adjoint_part_complete_the_contraction():
    # Theta^T Theta + N^T N = 3 I on the su(3) adjoint: [N; Theta] is the whole
    # contraction T |-> sum_l e_l (x) (e_l _| T) onto g + m = so(8), whose Gram
    # is 3 I (sp(3)'s Theta^T Theta = 3 I - 2 N^T N is this with N over rho / 2)
    ad = groups.adjoint_generators(groups.su_algebra(3))
    on, _ = np.linalg.qr(pack_pairs(ad).T)
    theta = densify(*reps.theta_entries(reps.so_complement(ad)))
    N = densify(*reps.theta_entries(unpack_pairs(on.T, 8)))
    assert theta.shape == (8 * 20, 56) and N.shape == (8 * 8, 56)
    assert np.max(np.abs(theta.T @ theta + N.T @ N - 3 * np.eye(56))) <= 1e-13 * 3


def test_laquer_eta_closed_form_and_structure():
    X = 1j * np.diag([1.0, -1.0, 0.0])
    eta = groups.laquer_eta(X, X)
    expect = 1j * (2 * X @ X - (2.0 / 3.0) * np.trace(X @ X) * np.eye(3))
    assert np.max(np.abs(eta - expect)) < 1e-14
    assert abs(np.trace(eta)) < 1e-14
    assert np.max(np.abs(eta + eta.conj().T)) < 1e-14


def test_laquer_eta_symmetric_nu_antisymmetric():
    rng = np.random.default_rng(8)
    su3 = groups.su_algebra(3)
    u2 = groups.u_algebra(2)
    for _ in range(5):
        X, Y = (sum(c * b for c, b in zip(rng.standard_normal(8), su3)) for _ in range(2))
        assert np.max(np.abs(groups.laquer_eta(X, Y) - groups.laquer_eta(Y, X))) < 1e-12
        U, V = (sum(c * b for c, b in zip(rng.standard_normal(4), u2)) for _ in range(2))
        assert np.max(np.abs(groups.laquer_nu(U, V) + groups.laquer_nu(V, U))) < 1e-12


def test_laquer_eta_equivariance():
    rng = np.random.default_rng(9)
    su3 = groups.su_algebra(3)
    worst = 0.0
    for _ in range(20):
        A, X, Y = (sum(c * b for c, b in zip(rng.standard_normal(8), su3)) for _ in range(3))
        lhs = groups.laquer_eta(bracket(A, X), Y) + groups.laquer_eta(X, bracket(A, Y))
        rhs = bracket(A, groups.laquer_eta(X, Y))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-9


def test_nu_vanishes_on_tracefree():
    su5 = groups.su_algebra(5)
    assert np.max(np.abs(groups.laquer_nu(su5[0], su5[3]))) == 0.0


def test_metricity_defects():
    su3 = groups.su_algebra(3)
    g3 = groups.su_metric(3)
    half_comm = lambda X, Y: 0.5 * bracket(X, Y)
    assert groups.metricity_defect(half_comm, g3, list(su3)) <= 1e-9
    assert groups.metricity_defect(groups.laquer_eta, g3, list(su3)) > 1e-3

    u2 = groups.u_algebra(2)
    for c in (0.5, 1.0, 3.0):
        gu = groups.u_metric(2, center_coefficient=c)
        assert groups.metricity_defect(groups.laquer_nu, gu, list(u2)) > 1e-3
        assert groups.metricity_defect(half_comm, gu, list(u2)) <= 1e-9


def test_adjoint_generators_antisymmetric():
    for alg in (groups.su_algebra(3), groups.su2_plus_su2()):
        for ad in groups.adjoint_generators(alg):
            assert np.max(np.abs(ad + ad.T)) < 1e-12
