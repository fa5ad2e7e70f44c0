import numpy as np

from gstruct import sp3
from gstruct.liealg import inner
from gstruct.linalg import rank


def test_basis_counts(sp3_data):
    assert len(sp3_data.A) == 21
    assert len(sp3_data.B) == 14
    assert len(sp3_data.rho) == 21


def test_b1_unit_norm(sp3_data):
    assert abs(-np.trace(sp3_data.B[0] @ sp3_data.B[0]).real - 1.0) < 1e-14


def test_torus_elements_orthogonal(sp3_data):
    assert abs(np.trace(sp3_data.A[8] @ sp3_data.A[9])) < 1e-14


def test_bases_orthonormal(sp3_data):
    for basis in (sp3_data.A, sp3_data.B):
        G = np.array([[inner(x, y) for y in basis] for x in basis])
        assert np.max(np.abs(G - np.eye(len(basis)))) < 1e-12


def test_a_basis_symplectic_condition(sp3_data):
    J = np.zeros((6, 6))
    J[:3, 3:] = np.eye(3)
    J[3:, :3] = -np.eye(3)
    for X in sp3_data.A:
        assert np.max(np.abs(X.T @ J + J @ X)) < 1e-14
    # and the complement basis fails it (it satisfies the opposite relation)
    for X in sp3_data.B:
        assert np.max(np.abs(X.T @ J - J @ X)) < 1e-14


def test_derive_isotropy_matches_transcription():
    derived = sp3.derive_isotropy()
    data = sp3.load()
    worst = max(float(np.max(np.abs(d - t))) for d, t in zip(derived, data.rho))
    assert worst <= 1e-12


def test_rho_antisymmetric(sp3_data):
    for R in sp3_data.rho:
        assert np.max(np.abs(R + R.T)) == 0.0


def test_rho_homomorphism():
    assert sp3.homomorphism_defect() <= 1e-9


def test_rho_injective(sp3_data):
    stacked = np.array([r.ravel() for r in sp3_data.rho])
    assert rank(stacked) == 21


def test_rho_span_complement_dimension(sp3_data):
    # rho(sp3) is 21-dimensional inside the 91-dimensional so(14)
    from gstruct.reps import so_complement

    comp = so_complement(list(sp3_data.rho), 14)
    assert len(comp) == 70


def test_subgroup_rows_span_subalgebras(sp3_data):
    from gstruct.liealg import CoordinateFrame, bracket

    for row in sp3.subgroup_rows():
        gens = [sp3_data.rho_of(v) for v in row.generators]
        frame = CoordinateFrame(gens)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                _, res = frame.stack_coords(bracket(gens[i], gens[j])[None])
                assert res[0] < 1e-10, row.name


def test_subgroup_expected_blocks():
    rows = {r.name: r.expected_blocks for r in sp3.subgroup_rows()}
    assert rows["u3"] == (8, 6)
    assert rows["so3"] == (9, 5)
    assert rows["sp2xsp1"] == (8, 5, 1)
    assert rows["so3xsp1"] == (9, 5)
    assert rows["sp2"] == (8, 5, 1)


def test_structure_constants_reproduce_brackets(sp3_data):
    F, rho = sp3.structure_constants(), sp3_data.rho
    brackets = rho[:, None] @ rho[None] - rho[None] @ rho[:, None]
    assert np.max(np.abs(np.tensordot(F, rho, axes=1) - brackets)) <= 1e-14
    # totally antisymmetric: the rho basis is orthonormal for an invariant form
    for axes in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.max(np.abs(F + F.transpose(axes))) <= 1e-14
