import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstruct.errors import NotSelfAdjoint
from gstruct.linalg import DEFAULT_TOL, ToleranceProfile, eig_selfadjoint, nullspace, rank


def test_rank_identity_and_zero():
    assert rank(np.eye(14)) == 14
    assert rank(np.zeros((5, 3))) == 0
    assert rank(np.zeros((0, 4))) == 0


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        ToleranceProfile(rank_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceProfile(rank_tol=2.0)
    with pytest.raises(ValueError):
        ToleranceProfile(residual_tol=-1e-9)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        rank(np.array([[1.0, np.nan]]))


def test_nullspace_simple():
    ker = nullspace(np.array([[1.0, -1.0]]))
    assert ker.shape == (2, 1)
    v = ker[:, 0]
    assert abs(abs(v @ np.ones(2) / np.sqrt(2)) - 1.0) < 1e-14
    assert nullspace(np.eye(4)).shape == (4, 0)


def test_rank_nullity_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, n, r = rng.integers(2, 12, 3)
        A = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        assert rank(A) + nullspace(A).shape[1] == n


def test_nullspace_residual_bound():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 9))
    ker = nullspace(A)
    res = np.linalg.norm(A @ ker, axis=0)
    assert np.all(res <= DEFAULT_TOL.residual_tol * np.linalg.norm(A))


def test_eig_selfadjoint_clusters():
    parts = eig_selfadjoint(np.diag([1.0, 1.0, 2.0]))
    assert [(ev, b.shape[1]) for ev, b in parts] == [(1.0, 2), (2.0, 1)]


def test_eig_selfadjoint_reconstruction_and_orthonormality():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    A = A + A.conj().T
    parts = eig_selfadjoint(A)
    assert sum(b.shape[1] for _, b in parts) == 9
    recon = sum(ev * (b @ b.conj().T) for ev, b in parts)
    assert np.linalg.norm(recon - A) <= DEFAULT_TOL.residual_tol * np.linalg.norm(A)


def test_eig_selfadjoint_rejects_nonhermitian():
    with pytest.raises(NotSelfAdjoint):
        eig_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_determinism():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((20, 11))
    k1, k2 = nullspace(A), nullspace(A)
    assert np.array_equal(k1, k2)
    e1 = eig_selfadjoint(A @ A.T)
    e2 = eig_selfadjoint(A @ A.T)
    assert all(np.array_equal(b1, b2) and ev1 == ev2 for (ev1, b1), (ev2, b2) in zip(e1, e2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 24),
    extra_rows=st.integers(1, 40),
    rank_frac=st.floats(0.0, 1.0),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_nullspace_tall_matches_full_svd(n, extra_rows, rank_frac, complex_, seed):
    """Tall input goes through the QR reduction; a planted rank with
    singular values in [1, 10] must give the full-SVD rank and kernel span."""
    rng = np.random.default_rng(seed)
    m, r = n + extra_rows, int(round(rank_frac * n))

    def unitary(size):
        X = rng.standard_normal((size, size))
        if complex_:
            X = X + 1j * rng.standard_normal((size, size))
        return np.linalg.qr(X)[0]

    A = unitary(m)[:, :r] @ np.diag(rng.uniform(1.0, 10.0, r)) @ unitary(n)[:r]
    ker = nullspace(A)
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    r_ref = int(np.count_nonzero(s > DEFAULT_TOL.rank_tol * s[0])) if s[0] > 0 else 0
    ref = vh[r_ref:].conj().T
    assert r_ref == r and ker.shape == (n, n - r)
    assert np.linalg.norm(ker @ ker.conj().T - ref @ ref.conj().T) <= 1e-10
    assert np.all(np.linalg.norm(A @ ker, axis=0) <= DEFAULT_TOL.residual_tol * np.linalg.norm(A))
