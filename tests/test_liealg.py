from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from gstruct import liealg, reps, sp3, spaces
from gstruct.errors import DimensionMismatch, NotClosed, NotReductive
from gstruct.groups import su_algebra
from gstruct.liealg import (
    ReductiveSplit,
    bracket,
    inner,
    is_naturally_reductive,
    isotropy_matrices,
    reductive_split,
    structure_constants,
    uniform_ip,
)


def test_bracket_antisymmetry_and_shapes():
    X = sp3.load().A[4]
    assert np.max(np.abs(bracket(X, X))) == 0.0
    with pytest.raises(DimensionMismatch):
        bracket(np.eye(3), np.eye(4))


def test_bracket_a5_a7_closed_form(sp3_data):
    # direct multiplication of the two listed 6x6 matrices
    got = bracket(sp3_data.A[4], sp3_data.A[6])
    assert np.max(np.abs(got - np.sqrt(2.0) * sp3_data.A[8])) < 1e-14


def test_jacobi_identity_sp3(sp3_data):
    rng = np.random.default_rng(0)
    A = sp3_data.A
    for _ in range(5):
        X, Y, Z = (
            sum(c * a for c, a in zip(rng.standard_normal(21), A)) for _ in range(3)
        )
        res = bracket(X, bracket(Y, Z)) + bracket(Y, bracket(Z, X)) + bracket(Z, bracket(X, Y))
        assert np.max(np.abs(res)) < 1e-12


def test_structure_constants_antisymmetric(sp3_data):
    c = structure_constants(sp3_data.A)
    assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) == 0.0


def test_structure_constants_su2_epsilon():
    su2 = su_algebra(2)
    c = structure_constants(su2)
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    scale = c[0, 1, 2]
    assert abs(scale) > 0.1
    assert np.max(np.abs(c - scale * eps)) < 1e-12


def test_structure_constants_abelian_torus():
    t2 = np.array([1j * np.diag([1.0, -1.0, 0.0]), 1j * np.diag([0.0, 1.0, -1.0])])
    assert np.max(np.abs(structure_constants(t2))) == 0.0


def test_not_closed_detection():
    bad = np.array([su_algebra(2)[0], su_algebra(2)[1]])
    with pytest.raises(NotClosed):
        structure_constants(bad)


def test_reductive_split_su6_sp3(sp3_data):
    su6 = np.concatenate([sp3_data.A, sp3_data.B])
    split = reductive_split(su6, list(sp3_data.A))
    assert split.dim_m == 14
    # the complement coincides with the span of the listed B basis
    M = np.array([np.concatenate([b.real.ravel(), b.imag.ravel()]) for b in sp3_data.B]).T
    Q, _ = np.linalg.qr(M)
    for m in split.m_basis:
        v = np.concatenate([m.real.ravel(), m.imag.ravel()])
        assert np.linalg.norm(v - Q @ (Q.T @ v)) < 1e-12


def test_reductive_split_su4_so2():
    su4 = su_algebra(4)
    H1 = 0.5j * np.diag([1.0, 1.0, -1.0, -1.0])
    split = reductive_split(su4, [H1])
    assert split.dim_m == 14


def test_reductive_split_h_equals_k():
    su2 = su_algebra(2)
    split = reductive_split(su2, list(su2))
    assert split.dim_m == 0


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-7])
def test_isotropy_rejects_small_non_reductive_m(s):
    # [X, sY] leaves h + m = span(X, Y) however small s is
    su2 = su_algebra(2)
    X, Y = su2[:2]
    split = ReductiveSplit(h_basis=[X], m_basis=[s * Y], ip=uniform_ip(1))
    with pytest.raises(NotReductive):
        isotropy_matrices(split)


@pytest.mark.parametrize("s", [1.0, 1e6, 1e14])
def test_isotropy_rejects_tilted_generator_at_any_scale(s):
    # H_0 + 0.3 sqrt(2s) K_0 = H_0 + 0.3 E_13 does not map m into itself;
    # its h-parts shrink with the frame as s grows
    K, H, ip = spaces.frames("su4-so2", spaces.MetricParams(alpha=s, beta=s, gamma=s))
    tilted = H[0] + 0.3 * np.sqrt(2 * s) * K[0]
    split = ReductiveSplit(h_basis=[tilted], m_basis=K, ip=ip)
    with pytest.raises(NotReductive):
        isotropy_matrices(split)


def test_isotropy_matrices_m1_identification(sp3_data, request):
    from conftest import pipeline

    space = pipeline("M1", alpha=1.4, beta=0.6, gamma=1.1)["space"]
    iso = isotropy_matrices(space.split)
    assert np.max(np.abs(iso[0] - np.sqrt(2.0) * sp3_data.rho[20])) < 1e-12
    for R in iso:
        assert np.max(np.abs(R + R.T)) < 1e-12


def test_isotropy_abelian_trivial():
    t2 = np.array([1j * np.diag([1.0, -1.0, 0.0]), 1j * np.diag([0.0, 1.0, -1.0])])
    split = reductive_split(t2, [t2[0]])
    iso = isotropy_matrices(split)
    assert np.max(np.abs(iso[0])) < 1e-14


def test_isotropy_representation_property():
    from conftest import pipeline

    space = pipeline("M4", alpha=1.0, beta=1.3, gamma=0.8)["space"]
    iso = isotropy_matrices(space.split)
    H = space.split.h_basis
    frame_iso = {i: iso[i] for i in range(len(H))}
    # rho([H_i, H_j]) = [rho(H_i), rho(H_j)] via h coordinates of the bracket
    for i in range(3):
        for j in range(i + 1, 4):
            scale = np.linalg.norm(H[i]) * np.linalg.norm(H[j])
            (ch,), (cm,) = space.split.split_stack(bracket(H[i], H[j])[None], scale)
            lhs = sum(c * frame_iso[r] for r, c in enumerate(ch))
            rhs = iso[i] @ iso[j] - iso[j] @ iso[i]
            assert np.max(np.abs(lhs - rhs)) < 1e-10
            assert np.linalg.norm(cm) < 1e-10


def test_naturally_reductive_biinvariant_su2():
    su2 = su_algebra(2)
    split = reductive_split(su2, [], ip=uniform_ip(3))
    flag, defect = is_naturally_reductive(split)
    assert flag and defect < 1e-12


def test_naturally_reductive_m3_equal_alphas():
    from conftest import pipeline

    space = pipeline("M3", alpha=1.2, beta=0.9, gamma=1.5)["space"]
    flag, _ = is_naturally_reductive(space.split)
    assert flag


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e14])
def test_naturally_reductive_m3_equal_alphas_at_scale(s):
    from conftest import pipeline

    space = pipeline("M3", alpha=1.2 * s, beta=0.9 * s, gamma=1.5 * s)["space"]
    flag, _ = is_naturally_reductive(space.split)
    assert flag


def test_not_naturally_reductive_m1_unequal():
    from conftest import pipeline

    space = pipeline("M1", alpha=1.0, alphas=(2.0, 1, 1, 1, 1, 1, 1))["space"]
    flag, defect = is_naturally_reductive(space.split)
    assert not flag and defect > 1e-4


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e14])
def test_not_naturally_reductive_m1_unequal_at_scale(s):
    from conftest import pipeline

    space = pipeline("M1", alpha=s, alphas=(2.0 * s,) + (s,) * 6, beta=s, gamma=s)["space"]
    flag, defect = is_naturally_reductive(space.split)
    # the defect scales like s^(-1/2)
    assert not flag and defect > 1e-4 / np.sqrt(s)


def test_gram_matrices_orthonormal():
    from conftest import pipeline

    for sid in ["M1", "M2", "M3", "M4"]:
        space = pipeline(sid, alpha=0.8, beta=1.7, gamma=0.6)["space"]
        G = space.split.gram_m()
        assert np.max(np.abs(G - np.eye(14))) < 1e-10


# ---------------------------------------------------------------------------
# Reference builders; test_reps imports the Sym^3 ones.


@lru_cache(maxsize=1)
def _sym3_basis(n: int = 14):
    """Orthonormal monomial basis of Sym^3(R^n) inside (R^n)^(x3).

    Returns (multisets, weights) with weights = sqrt(#distinct permutations);
    the basis vector of a multiset has entry 1/weight at each distinct
    permutation of its indices.
    """
    multis = []
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                multis.append((i, j, k))
    weights = np.array([np.sqrt(len(set(permutations(m)))) for m in multis])
    return multis, weights


def _sym3_tensors(n: int = 14):
    multis, weights = _sym3_basis(n)
    T = np.zeros((len(multis), n, n, n))
    for r, (m, w) in enumerate(zip(multis, weights)):
        for p in set(permutations(m)):
            T[r][p] = 1.0 / w
    return T


def _sym3_action(A, batch):
    """Derivative action of A on a batch of symmetric 3-tensors."""
    W1 = np.moveaxis(np.tensordot(A, batch, axes=(1, 1)), 0, 1)
    W2 = np.moveaxis(np.tensordot(A, batch, axes=(1, 2)), 0, 2)
    W3 = np.tensordot(batch, A, axes=(3, 1))
    return W1 + W2 + W3


def _symmetric_basis(n: int):
    """Reference: the symmetric n x n matrices E_pq + E_qp, p <= q."""
    mats = []
    for p in range(n):
        for q in range(p, n):
            m = np.zeros((n, n))
            m[p, q] = m[q, p] = 1.0
            mats.append(m)
    return mats


def test_commutant_block_matches_loop_reference():
    rng = np.random.default_rng(5)
    for R in [*sp3.load().rho, rng.standard_normal((14, 14))]:
        ref = np.array([(S @ R - R @ S).ravel() for S in _symmetric_basis(14)]).T
        assert np.array_equal(reps._commutant_block(R), ref)


def test_stack_coords_matches_least_squares_per_element():
    rng = np.random.default_rng(3)
    su3 = su_algebra(3)
    frame = liealg.CoordinateFrame(su3[:6])
    X = np.tensordot(rng.standard_normal((5, 8)), np.array(su3), axes=1)
    c, res = frame.stack_coords(X)
    S = liealg._stack(su3[:6])
    for k in range(5):
        v = np.concatenate([X[k].real.ravel(), X[k].imag.ravel()])
        want, *_ = np.linalg.lstsq(S, v, rcond=None)
        assert np.max(np.abs(c[k] - want)) <= 1e-13 * np.max(np.abs(want))
        assert abs(res[k] - np.linalg.norm(v - S @ want)) <= 1e-13 * np.linalg.norm(v)
        ck, rk = frame.coords(X[k])
        assert np.max(np.abs(ck - c[k])) <= 1e-14 * np.max(np.abs(want))
    assert frame.stack_coords(X[:0])[0].shape == (0, 6)
