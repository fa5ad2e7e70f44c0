from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from conftest import densify, is_naturally_reductive

from gstruct import liealg, reps, sp3, spaces
from gstruct.errors import DimensionMismatch, NotClosed, NotReductive
from gstruct.groups import su_algebra
from gstruct.linalg import DEFAULT_TOL
from gstruct.liealg import (
    CoordinateFrame,
    bracket,
    inner,
    isotropy_matrices,
    pair_brackets,
    split_coords,
    structure_constants,
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


def test_sp3_complement_spans_su6(sp3_data):
    # B is base-orthonormal and orthogonal to A, and A + B spans su(6)
    A, B = sp3_data.A, sp3_data.B
    assert np.max(np.abs(-np.einsum("iab,jba->ij", B, B).real - np.eye(14))) < 1e-14
    assert np.max(np.abs(np.einsum("iab,jba->ij", A, B).real)) < 1e-14
    assert np.linalg.matrix_rank(liealg._stack(np.concatenate([A, B]))) == 35


@pytest.mark.parametrize("s", [1.0, 1e-4, 1e-7])
def test_isotropy_rejects_small_non_reductive_m(s):
    # [X, sY] leaves h + m = span(X, Y) however small s is
    su2 = su_algebra(2)
    X, Y = su2[:2]
    with pytest.raises(NotReductive):
        isotropy_matrices(CoordinateFrame([X, s * Y]), 1)


@pytest.mark.parametrize("s", [1.0, 1e6, 1e14])
def test_isotropy_rejects_tilted_generator_at_any_scale(s):
    # H_0 + 0.3 sqrt(2s) K_0 = H_0 + 0.3 E_13 does not map m into itself;
    # its h-parts shrink with the frame as s grows
    K, H, _ = spaces.frames("su4-so2", spaces.MetricParams(alpha=s, beta=s, gamma=s))
    tilted = H[0] + 0.3 * np.sqrt(2 * s) * K[0]
    with pytest.raises(NotReductive):
        isotropy_matrices(CoordinateFrame(np.concatenate([[tilted], K])), 1)


def test_isotropy_matrices_m1_identification(sp3_data):
    K, H, _ = spaces.frames("M1", spaces.MetricParams(alpha=1.4, beta=0.6, gamma=1.1))
    iso = isotropy_matrices(CoordinateFrame(np.concatenate([H, K])), len(H))
    assert np.max(np.abs(iso[0] - np.sqrt(2.0) * sp3_data.rho[20])) < 1e-12
    for R in iso:
        assert np.max(np.abs(R + R.T)) < 1e-12


def test_isotropy_abelian_trivial():
    t2 = np.array([1j * np.diag([1.0, -1.0, 0.0]), 1j * np.diag([0.0, 1.0, -1.0])])
    # the base-orthogonal complement of t2[0] in span(t2)
    iso = isotropy_matrices(CoordinateFrame([t2[0], 1j * np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)]), 1)
    assert np.max(np.abs(iso[0])) < 1e-14


def test_isotropy_representation_property():
    K, H, _ = spaces.frames("M4", spaces.MetricParams(alpha=1.0, beta=1.3, gamma=0.8))
    frame = CoordinateFrame(np.concatenate([H, K]))
    iso = isotropy_matrices(frame, len(H))
    frame_iso = {i: iso[i] for i in range(len(H))}
    # rho([H_i, H_j]) = [rho(H_i), rho(H_j)] via h coordinates of the bracket
    for i in range(3):
        for j in range(i + 1, 4):
            scale = np.linalg.norm(H[i]) * np.linalg.norm(H[j])
            (ch,), (cm,) = split_coords(frame, len(H), bracket(H[i], H[j])[None], scale)
            lhs = sum(c * frame_iso[r] for r, c in enumerate(ch))
            rhs = iso[i] @ iso[j] - iso[j] @ iso[i]
            assert np.max(np.abs(lhs - rhs)) < 1e-10
            assert np.linalg.norm(cm) < 1e-10


def test_naturally_reductive_biinvariant_su2():
    flag, defect = is_naturally_reductive(structure_constants(su_algebra(2)))
    assert flag and defect < 1e-12


def test_naturally_reductive_m3_equal_alphas():
    from conftest import pipeline

    space = pipeline("M3", alpha=1.2, beta=0.9, gamma=1.5)["space"]
    flag, _ = is_naturally_reductive(space.pm)
    assert flag


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e14])
def test_naturally_reductive_m3_equal_alphas_at_scale(s):
    from conftest import pipeline

    space = pipeline("M3", alpha=1.2 * s, beta=0.9 * s, gamma=1.5 * s)["space"]
    flag, _ = is_naturally_reductive(space.pm)
    assert flag


def test_not_naturally_reductive_m1_unequal():
    from conftest import pipeline

    space = pipeline("M1", alpha=1.0, alphas=(2.0, 1, 1, 1, 1, 1, 1))["space"]
    flag, defect = is_naturally_reductive(space.pm)
    assert not flag and defect > 1e-4


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e14])
def test_not_naturally_reductive_m1_unequal_at_scale(s):
    from conftest import pipeline

    space = pipeline("M1", alpha=s, alphas=(2.0 * s,) + (s,) * 6, beta=s, gamma=s)["space"]
    flag, defect = is_naturally_reductive(space.pm)
    # the defect scales like s^(-1/2)
    assert not flag and defect > 1e-4 / np.sqrt(s)


def test_gram_matrices_orthonormal():
    # the frame is orthonormal for the metric: sqrt(c) K is base-orthonormal
    for sid in ["M1", "M2", "M3", "M4"]:
        K, _, c = spaces.frames(sid, spaces.MetricParams(alpha=0.8, beta=1.7, gamma=0.6))
        V = np.sqrt(c)[:, None, None] * K
        assert np.max(np.abs(-np.einsum("iab,jba->ij", V, V).real - np.eye(14))) < 1e-10


def _bracket_route_defect(K, H):
    """Reference: the natural-reductivity defect from n3[i, j, k] =
    g([K_i, K_j]_m, K_k), the m-coordinates of the brackets of an
    orthonormal frame, with the flag against the largest ||K_i||."""
    i, j, br, scale = pair_brackets(K)
    _, cm = split_coords(CoordinateFrame(np.concatenate([H, K])), len(H), br, scale)
    n3 = np.zeros((len(K),) * 3)
    n3[i, j], n3[j, i] = cm, -cm
    defect = float(np.max(np.abs(n3 + np.swapaxes(n3, 1, 2))))
    return not DEFAULT_TOL.exceeds(defect, np.linalg.norm(K, axis=(1, 2)).max()), defect


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e14])
@pytest.mark.parametrize("sid, abg, alpha2", [
    ("M1", (1.1, 0.8, 1.4), None), ("M1", (1.0, 1.0, 1.0), None), ("M1", (1.0, 1.0, 1.0), 2.0),
    ("M2", (1.1, 0.8, 1.4), None), ("M2", (1.0, 1.0, 1.0), 1.3),
    ("M3", (1.2, 0.9, 1.5), None), ("M3", (1.2, 0.9, 1.5), 0.7),
    ("M4", (1.0, 1.0, 1.0), None), ("M4", (1.0, 1.5, 0.7), None),
])
def test_natural_reductivity_table_matches_bracket_route(sid, abg, alpha2, scale):
    # the bracket table of a build gives the defect that the brackets of
    # its frame give, to round-off, and the same flag
    sid = spaces.canonical_id(sid)
    a, b, g = (scale * x for x in abg)
    extra = spaces._EXTRA_ALPHAS[sid]
    alphas = (scale * alpha2,) + (a,) * (extra - 1) if alpha2 else ()
    p = spaces.MetricParams(alpha=a, alphas=alphas, beta=b, gamma=g)
    pm = spaces.build(sid, p).pm
    K, H, _ = spaces.frames(sid, p)
    flag, defect = is_naturally_reductive(pm)
    ref_flag, ref_defect = _bracket_route_defect(K, H)
    assert flag == ref_flag
    assert abs(defect - ref_defect) <= 1e-14 * np.linalg.norm(pm)


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
        assert np.array_equal(densify(*reps._commutant_entries(R[None])), ref)


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
    assert frame.stack_coords(X[:0])[0].shape == (0, 6)
