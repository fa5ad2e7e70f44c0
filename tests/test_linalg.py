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


def _full_svd_kernel(A):
    """Reference: one SVD of the whole matrix, cut at rank_tol * s_max."""
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    r = int(np.count_nonzero(s > DEFAULT_TOL.rank_tol * s[0])) if s.size and s[0] > 0 else 0
    return r, vh[r:].conj().T


_BLOCK = st.tuples(st.integers(1, 8), st.integers(1, 8), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(
    blocks=st.lists(_BLOCK, min_size=1, max_size=6),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_nullspace_block_split_matches_full_svd(blocks, complex_, seed):
    """Planted block-diagonal matrix, rows and columns permuted, 1 ulp of
    noise on every entry; the last block has rank >= 1, and with two or
    more blocks the first is scaled so that all its singular values fall
    under the global rank cut, which a per-block relative cut would keep."""
    rng = np.random.default_rng(seed)

    def unitary(size):
        X = rng.standard_normal((size, size))
        if complex_:
            X = X + 1j * rng.standard_normal((size, size))
        return np.linalg.qr(X)[0]

    scaled = len(blocks) > 1
    m, n = sum(b[0] for b in blocks), sum(b[1] for b in blocks)
    A = np.zeros((m, n), dtype=complex if complex_ else float)
    planted, i, j = 0, 0, 0
    for k, (rows, cols, frac) in enumerate(blocks):
        r = int(round(frac * min(rows, cols)))
        if k == len(blocks) - 1 or (k == 0 and scaled):
            r = max(r, 1)
        B = unitary(rows)[:, :r] @ np.diag(rng.uniform(1.0, 10.0, r)) @ unitary(cols)[:r]
        if k == 0 and scaled:
            B *= 1e-11  # singular values <= 1e-10, cut >= 1e-8
        else:
            planted += r
        A[i : i + rows, j : j + cols] = B
        i, j = i + rows, j + cols
    A = A[rng.permutation(m)][:, rng.permutation(n)]
    ulp = np.spacing(np.max(np.abs(A)))
    noise = rng.uniform(-1.0, 1.0, A.shape)
    if complex_:
        noise = (noise + 1j * rng.uniform(-1.0, 1.0, A.shape)) / np.sqrt(2.0)
    A = A + ulp * noise

    r_ref, ref = _full_svd_kernel(A)
    ker = nullspace(A)
    assert r_ref == planted and rank(A) == planted and ker.shape == (n, n - planted)
    assert np.linalg.norm(ker.conj().T @ ker - np.eye(n - planted)) <= 1e-12
    assert np.linalg.norm(ker @ ker.conj().T - ref @ ref.conj().T) <= 1e-10


def test_nullspace_transpose_is_c_contiguous():
    # solve_equivariant reshapes ker.T; a strided kernel would force a copy
    A = np.kron(np.eye(3), np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]))
    ker = nullspace(A[::-1])
    assert ker.shape == (9, 3) and ker.T.flags.c_contiguous


# The joint kernels of the catalog, solved block by block, against one SVD
# of the same stacked system.  At M3 (1e-6, 1, 1e6) the isotropy round-off
# reaches ~5.6e-11 of the largest entry, above the floor, so blocks merge.
_CATALOG_DIMS = {"M1": (98, 48), "M2": (30, 16), "M3": (18, 0), "M4": (7, 4)}
_CATALOG_POINTS = [(sid, s * 1.1, s * 0.8, s * 1.4) for sid in _CATALOG_DIMS for s in (1.0, 1e-8, 1e14)]


@pytest.mark.parametrize("sid,alpha,beta,gamma", _CATALOG_POINTS + [("M3", 1e-6, 1.0, 1e6)])
def test_catalog_kernels_match_single_svd(sid, alpha, beta, gamma):
    from gstruct import connections, spaces, spin

    space = spaces.build(sid, spaces.MetricParams(alpha=alpha, beta=beta, gamma=gamma))
    cl = spin.build_clifford(14)
    systems = (
        np.vstack([connections._equivariance_block(R) for R in space.generators()]),
        np.vstack([spin.spin_lift(cl, R) for R in space.generators()]),
    )
    for A, dim in zip(systems, _CATALOG_DIMS[sid]):
        ker = nullspace(A)
        _, ref = _full_svd_kernel(A)
        assert ker.shape[1] == ref.shape[1] == dim
        assert np.max(np.abs(ker @ ker.conj().T - ref @ ref.conj().T)) <= 1e-12


def test_m3_extreme_point_merges_blocks():
    from gstruct import connections, linalg, spaces

    def system(iso):
        return np.vstack([connections._equivariance_block(R) for R in iso])

    def cut(A):
        return 64 * np.finfo(float).eps * np.max(np.abs(A))

    def block_count(A):
        labels, _, _ = linalg._block_labels(np.abs(A) > cut(A))
        return np.unique(labels).size

    # the isotropy is exact to round-off at every scale, so the block
    # structure is too; noise above the 64-eps entry cut is planted: a
    # fixed draw at twice the cut on every entry joins blocks, and the
    # kernel of the merged system keeps its dimension
    iso = spaces.build("M3", spaces.MetricParams(alpha=1e-6, beta=1.0, gamma=1e6)).iso
    unmerged = block_count(system(iso))
    assert unmerged == block_count(system(spaces.build("M3", spaces.MetricParams(alpha=1.1, beta=0.8, gamma=1.4)).iso))
    noise = np.random.default_rng(7).choice([-2.0, 2.0], iso.shape) * cut(system(iso))
    merged = system(iso + noise)
    assert block_count(merged) < unmerged
    assert nullspace(merged).shape[1] == 18


def _clusters(w, vecs):
    """(eigenvalue, projector) per cluster of sorted eigenvalues, cut where
    neighbours differ by more than cluster_tol * max|w|."""
    cuts = np.flatnonzero(np.diff(w) > DEFAULT_TOL.cluster_tol * np.abs(w).max()) + 1
    return [(wc.mean(), vc @ vc.conj().T) for wc, vc in zip(np.split(w, cuts), np.split(vecs, cuts, axis=1))]


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_eig_selfadjoint_block_split_matches_full_eigh(sizes, complex_, seed):
    """Planted block-diagonal Hermitian matrix with integer eigenvalues in
    [-5, 5], eigenvalue 1 in every block, rows and columns permuted alike,
    1 ulp of noise on every entry; the clusters and their projectors must
    be those of one full eigh, merged across blocks."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    A = np.zeros((n, n), dtype=complex if complex_ else float)
    evs, i = [], 0
    for size in sizes:
        X = rng.standard_normal((size, size))
        if complex_:
            X = X + 1j * rng.standard_normal((size, size))
        U = np.linalg.qr(X)[0]
        lam = np.concatenate([[1.0], rng.integers(-5, 6, size - 1)])
        A[i : i + size, i : i + size] = U @ np.diag(lam) @ U.conj().T
        evs.extend(lam)
        i += size
    perm = rng.permutation(n)
    A = A[perm][:, perm]
    noise = rng.uniform(-1.0, 1.0, A.shape)
    if complex_:
        noise = (noise + 1j * rng.uniform(-1.0, 1.0, A.shape)) / np.sqrt(2.0)
    A = A + np.spacing(np.max(np.abs(A))) * noise

    parts = eig_selfadjoint(A)
    ref = _clusters(*np.linalg.eigh(0.5 * (A + A.conj().T)))
    values, counts = np.unique(evs, return_counts=True)
    assert [b.shape[1] for _, b in parts] == counts.tolist()
    assert len(ref) == len(parts)
    for (ev, basis), (ev_ref, P_ref), want in zip(parts, ref, values):
        assert abs(ev - ev_ref) <= 1e-10 and abs(ev - want) <= 1e-10
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
        assert np.linalg.norm(basis @ basis.conj().T - P_ref) <= 1e-10


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e8, 1e12])
def test_eig_selfadjoint_is_scale_free(s):
    """Scaling by s keeps the partition and scales the eigenvalues; the
    hermiticity test is relative, so a non-Hermitian matrix fails at any s."""
    rng = np.random.default_rng(4)
    for lam in ([1.0, 1.0, 2.0], [-3.0, 1.0, 1.0 + 1e-9, 2.0, 2.0]):
        Q = np.linalg.qr(rng.standard_normal((len(lam), len(lam))))[0]
        A = Q @ np.diag(lam) @ Q.T
        ref, parts = eig_selfadjoint(A), eig_selfadjoint(s * A)
        assert [b.shape[1] for _, b in parts] == [b.shape[1] for _, b in ref] == ([2, 1] if len(lam) == 3 else [1, 2, 2])
        for (ev, _), (ev_ref, _) in zip(parts, ref):
            assert abs(ev - s * ev_ref) <= 1e-12 * s * 3.0
    with pytest.raises(NotSelfAdjoint):
        eig_selfadjoint(s * 1e-12 * np.array([[0.0, 1.0], [0.0, 0.0]]))
