import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import densify
from gstruct.errors import NotSelfAdjoint
from gstruct.linalg import (CLUSTER_TOL, DEFAULT_TOL, RESIDUAL_TOL, ToleranceProfile, eig_selfadjoint,
                            eig_selfadjoint_entries, nullspace, nullspace_entries, orthonormal_columns, rank)


def test_rank_identity_and_zero():
    assert rank(np.eye(14)) == 14
    assert rank(np.zeros((5, 3))) == 0
    assert rank(np.zeros((0, 4))) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 3), m=st.integers(0, 9), n=st.integers(1, 7),
       complex_=st.booleans())
def test_rank_of_block_stack_is_rank_of_block_diagonal(seed, b, m, n, complex_):
    # a (b, m, n) stack is the block-diagonal matrix of its blocks: each
    # block of random rank, scaled over six decades, some rows zero in one
    # block only, some in all
    rng = np.random.default_rng(seed)
    stack = np.zeros((b, m, n), dtype=complex if complex_ else float)
    for block in stack:
        r = rng.integers(0, min(m, n) + 1)
        left = rng.standard_normal((m, r)) + (1j * rng.standard_normal((m, r)) if complex_ else 0)
        block[:] = 10.0 ** rng.uniform(-3, 3) * left @ rng.standard_normal((r, n))
        block[rng.random(m) < 0.3] = 0.0
    stack[:, rng.random(m) < 0.2] = 0.0
    dense = np.zeros((b * m, b * n), dtype=stack.dtype)
    for i, block in enumerate(stack):
        dense[i * m:(i + 1) * m, i * n:(i + 1) * n] = block
    assert rank(stack) == rank(dense)


def test_tolerance_profile_validation():
    with pytest.raises(ValueError):
        ToleranceProfile(rank_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceProfile(rank_tol=2.0)


def test_exceeds_is_elementwise_and_relative():
    tol = ToleranceProfile()
    for factor in (1, 100, 1e3, 1e4):
        for scale in (1e-12, 1.0, 1e12):
            value = np.array([0.9, 1.1]) * factor * 1e-9 * scale
            assert tol.exceeds(value, scale, factor).tolist() == [False, True]
    # the default factor is 1e3; scales pair up elementwise and are not floored
    assert tol.exceeds(np.array([2e-13, 2e-13]), np.array([1e-7, 1e-3])).tolist() == [True, False]
    assert tol.exceeds(np.array([[2e-13], [2e-9]]), np.array([1e-7, 1e-3])).tolist() == [
        [True, False], [True, True]]


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        rank(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        nullspace_entries([0, 0], [1, 1], [np.inf, 1.0], (1, 2))


@pytest.mark.parametrize("rows,cols", [([0, 2], [0, 1]), ([0, 1], [3, 0]), ([0, -1], [0, 0]), ([0, 0], [-1, 1])])
def test_nullspace_entries_rejects_entries_outside_the_matrix(rows, cols):
    # row-major positions would alias them onto cells inside it
    with pytest.raises(ValueError, match="outside the 2x3 matrix"):
        nullspace_entries(rows, cols, [1.0, 2.0], (2, 3))


def test_strided_complex_input():
    # the finiteness check reads complex entries in place, whatever the strides
    rng = np.random.default_rng(2)
    u, v = (np.array([1, 1j]) @ rng.standard_normal((2, n)) for n in (3, 4))
    M = np.outer(u, v)  # rank 1: M.T has a 2-dim kernel, M[:, ::2] a 1-dim one
    for view, dim in ((M.T, 2), (M[:, ::2], 1)):
        ker, ref = nullspace(view), nullspace(np.ascontiguousarray(view))
        assert ker.shape[1] == ref.shape[1] == dim and rank(view) == view.shape[1] - dim
        assert np.linalg.norm(ker @ ker.conj().T - ref @ ref.conj().T) <= 1e-12
        span, ref = orthonormal_columns(view), orthonormal_columns(np.ascontiguousarray(view))
        assert span.shape[1] == 1 and np.linalg.norm(span @ span.conj().T - ref @ ref.conj().T) <= 1e-12
    for bad in (np.nan, np.inf):
        N = M.copy()
        N[0, 0] = bad
        for view in (N.T, N[:, ::2]):
            with pytest.raises(ValueError, match="matrix contains NaN/Inf"):
                nullspace(view)


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
    assert np.all(res <= RESIDUAL_TOL * np.linalg.norm(A))


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
    assert np.linalg.norm(recon - A) <= RESIDUAL_TOL * np.linalg.norm(A)


def test_eig_selfadjoint_rejects_nonhermitian():
    with pytest.raises(NotSelfAdjoint):
        eig_selfadjoint(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # from entries: a cell whose transpose has none, and a non-square shape
    with pytest.raises(NotSelfAdjoint, match="hermiticity defect"):
        eig_selfadjoint_entries([0, 1], [1, 1], [1.0, 2.0], (2, 2))
    with pytest.raises(NotSelfAdjoint, match="not square"):
        eig_selfadjoint_entries([0], [0], [1.0], (2, 3))


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
    assert np.all(np.linalg.norm(A @ ker, axis=0) <= RESIDUAL_TOL * np.linalg.norm(A))


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


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# values in [-4, 4], exact zeros, and values under the round-off cut of
# any matrix whose largest entry exceeds 0.1
_VALUE = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, 1e-15, -7e-16, 1.0, -1.0]))


@st.composite
def _entry_lists(draw):
    """(rows, cols, vals, shape): at most 8 x 8, often with repeated
    positions and with rows and columns that have no entry."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)) if m and n else st.nothing()
    entries = draw(st.lists(st.tuples(cells, _VALUE, _VALUE), max_size=2 * m * n))
    rows, cols = (np.array([e[0][i] for e in entries], dtype=int) for i in (0, 1))
    vals = np.array([re for _, re, _ in entries])
    if draw(st.booleans()):
        vals = vals + 1j * np.array([im for _, _, im in entries])
    return rows, cols, vals, (m, n)


@settings(max_examples=300, deadline=None)
@given(_entry_lists())
def test_nullspace_entries_match_dense_nullspace(entries):
    # the round-off entries between blocks are dropped, those inside a block
    # are kept: the basis is the dense nullspace's bit for bit
    ker, ref = nullspace_entries(*entries), nullspace(densify(*entries))
    assert _bitwise_equal(ker, ref) and ker.strides == ref.strides


@pytest.mark.parametrize("rows,cols,vals,shape", [
    ([], [], np.zeros(0), (0, 4)),  # no rows
    ([], [], np.zeros(0), (3, 0)),  # no columns
    ([], [], np.zeros(0, complex), (2, 3)),  # no entries
    ([0, 1, 1], [2, 0, 0], [0.0, 1.5, -1.5], (2, 3)),  # entries that sum to zero
])
def test_nullspace_entries_of_zero_and_empty_matrices(rows, cols, vals, shape):
    ker = nullspace_entries(rows, cols, vals, shape)
    assert _bitwise_equal(ker, nullspace(densify(rows, cols, vals, shape)))
    assert _bitwise_equal(ker, np.eye(shape[1], dtype=np.result_type(np.asarray(vals).dtype, float)))


def test_nullspace_entries_sum_in_input_order():
    # (3 + 2e-16) + 2e-16 rounds to 3, 3 + (2e-16 + 2e-16) to the next float,
    # and the kernel of [[x, 1]] tells the two apart
    rows, cols, vals = [0, 0, 0, 0], [0, 0, 0, 1], [3.0, 2e-16, 2e-16, 1.0]
    ker = nullspace_entries(rows, cols, vals, (1, 2))
    assert _bitwise_equal(ker, nullspace(densify(rows, cols, vals, (1, 2))))
    assert _bitwise_equal(ker, nullspace(np.array([[3.0, 1.0]])))
    assert not _bitwise_equal(ker, nullspace(np.array([[np.nextafter(3.0, 4.0), 1.0]])))


# The joint kernels of the catalog, solved block by block, against one SVD
# of the same stacked system.  At M3 (1e-6, 1, 1e6) the isotropy round-off
# reaches ~5.6e-11 of the largest entry, above the floor, so blocks merge.
_CATALOG_POINTS = [(sid, s * 1.1, s * 0.8, s * 1.4) for sid in ("M1", "M2", "M3", "M4") for s in (1.0, 1e-8, 1e14)]


@pytest.mark.parametrize("sid,alpha,beta,gamma", _CATALOG_POINTS + [("M3", 1e-6, 1.0, 1e6)])
def test_catalog_kernels_match_single_svd(sid, alpha, beta, gamma):
    from gstruct import connections, spaces, spin

    space = spaces.build(sid, spaces.MetricParams(alpha=alpha, beta=beta, gamma=gamma))
    systems = (connections._equivariance_entries(space.iso), spin._lift_entries(space.iso, DEFAULT_TOL))
    fx = spaces.fixtures(sid)
    for entries, dim in zip(systems, (fx.expected_family_dim, fx.expected_spinor_dim)):
        A = densify(*entries)
        _assert_kernel_matches_single_svd(A, dim)
        assert _bitwise_equal(nullspace_entries(*entries), nullspace(A))


# dimension of the symmetric commutant of each row of ``sp3.subgroup_rows()``
_COMMUTANT_DIMS = {"u3": 2, "so3": 2, "sp2xsp1": 3, "so3xsp1": 2, "sp2": 3}


@pytest.mark.parametrize("name", sorted(_COMMUTANT_DIMS))
def test_commutant_kernels_match_single_svd(name):
    from gstruct import reps, sp3

    row = next(r for r in sp3.subgroup_rows() if r.name == name)
    A = densify(*reps._commutant_entries(sp3.load().rho_of(row.generators)))
    _assert_kernel_matches_single_svd(A, _COMMUTANT_DIMS[name])


def _assert_kernel_matches_single_svd(A, dim):
    ker = nullspace(A)
    _, ref = _full_svd_kernel(A)
    assert ker.shape[1] == ref.shape[1] == dim
    assert np.max(np.abs(ker @ ker.conj().T - ref @ ref.conj().T)) <= 1e-12


def test_m3_extreme_point_merges_blocks():
    from gstruct import connections, linalg, spaces

    def system(iso):
        return densify(*connections._equivariance_entries(iso))

    def cut(A):
        return 64 * np.finfo(float).eps * np.max(np.abs(A))

    def block_count(A):
        labels, _, _ = linalg._block_labels(*np.nonzero(np.abs(A) > cut(A)), A.shape[1])
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
    assert _bitwise_equal(nullspace_entries(*connections._equivariance_entries(iso + noise)), nullspace(merged))


def _clusters(w, vecs):
    """(eigenvalue, projector) per cluster of sorted eigenvalues, cut where
    neighbours differ by more than CLUSTER_TOL * max|w|."""
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_TOL * np.abs(w).max()) + 1
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
    # the same cells as a shuffled entry list give the same parts bit for bit
    r, c = np.nonzero(A)
    shuffle = rng.permutation(r.size)
    entries = eig_selfadjoint_entries(r[shuffle], c[shuffle], A[r, c][shuffle], A.shape)
    assert len(entries) == len(parts)
    assert all(ev == ev_e and _bitwise_equal(b, b_e) for (ev, b), (ev_e, b_e) in zip(parts, entries))
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


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12), n=st.integers(1, 12), complex_=st.booleans())
def test_orthonormal_columns_span_the_planted_block(seed, m, n, complex_):
    # a random rank-r block at random rows and columns, exactly zero
    # elsewhere, its columns scaled over three decades
    rng = np.random.default_rng(seed)
    rows, cols = np.flatnonzero(rng.random(m) < 0.7), np.flatnonzero(rng.random(n) < 0.7)
    r = rng.integers(0, min(rows.size, cols.size) + 1)
    left = np.zeros((m, r), dtype=complex if complex_ else float)
    left[rows] = rng.standard_normal((rows.size, r)) + (1j * rng.standard_normal((rows.size, r)) if complex_ else 0)
    V = np.zeros((m, n), dtype=left.dtype)
    V[:, cols] = (left @ rng.standard_normal((r, cols.size))) * 10.0 ** rng.uniform(-1.5, 1.5, cols.size)
    basis = orthonormal_columns(V)
    assert basis.shape[0] == m and basis.dtype == V.dtype
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
    s = np.linalg.svd(V, compute_uv=False)
    if r and s[r - 1] > 1e-3 * s[0]:
        # a wide gap: the rank is r, the sines of the principal angles to the
        # planted span are round-off (Wedin: eps s_0 / s_(r-1)), and so are
        # the rows of the basis at the zero rows of V
        planted = np.linalg.qr(left)[0]
        assert basis.shape[1] == r
        assert np.linalg.svd(basis - planted @ (planted.conj().T @ basis), compute_uv=False).max() <= 1e-12
        assert np.abs(basis[np.all(V == 0, axis=1)]).max(initial=0.0) <= 1e-12
    elif not r:
        assert basis.shape == (m, 0)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (4, 5)])
def test_orthonormal_columns_of_zero_and_empty_matrices(shape):
    assert orthonormal_columns(np.zeros(shape)).shape == (shape[0], 0)
