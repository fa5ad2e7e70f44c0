"""Real and complex linear algebra with an explicit tolerance policy.

Every floating-point decision elsewhere in the package (ranks, kernels,
eigenvalue clustering, residual assertions) is routed through a single
:class:`ToleranceProfile`, so identical inputs always produce identical
outputs.  Its one setting is the rank cut ``rank_tol``; the residual
tolerance ``RESIDUAL_TOL`` and the clustering width ``CLUSTER_TOL`` are
constants that only this module reads.  Every residual, defect and nonzero
test is one call of :meth:`ToleranceProfile.exceeds`.
The kernel and spectral solvers read a matrix as its entries (rows, cols,
vals), a dense one as its nonzero cells, and split it into the connected
components of its row/column pattern (the block-diagonal case of Pothen
and Fan, ACM TOMS 16, 1990); numpy's batched LAPACK calls solve the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSelfAdjoint


CLUSTER_TOL = 1e-6  # relative width of an eigenvalue cluster (``eig_selfadjoint``)
RESIDUAL_TOL = 1e-9  # of residual assertions (``ToleranceProfile.exceeds``)


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical policy: the relative rank cutoff, in (0, 1)."""

    rank_tol: float = 1e-8

    def __post_init__(self):
        if not self.rank_tol > 0:
            raise ValueError("tolerances must be strictly positive")
        if self.rank_tol >= 1:
            raise ValueError("rank_tol must be < 1")

    def exceeds(self, value, scale, factor: float = 1e3):
        """Elementwise ``value > factor * RESIDUAL_TOL * scale``, with scale
        the size of the operands the residual came from, never floored."""
        return value > factor * RESIDUAL_TOL * scale

    def round_off(self, amax, m: int, n: int):
        """tau: an entry of an m x n matrix of largest entry amax is round-off up to tau."""
        return amax * min(64 * np.finfo(float).eps, 1e-3 * self.rank_tol / np.sqrt(m * n))


DEFAULT_TOL = ToleranceProfile()


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, flagged read-only: for arrays that are cached or shared."""
    a.flags.writeable = False
    return a


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite 2-d array (raises on NaN/Inf)."""
    A = np.asarray(M)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix contains NaN/Inf")
    return A


def rank(M, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_tol`` times the largest one s_0,
    from one SVD of the nonzero rows of M.  It differs from the count of
    ``nullspace`` only for a singular value within 1e-3 rank_tol s_0 of the cut."""
    A = as_matrix(M)
    s = np.linalg.svd(A[np.any(A != 0, axis=1)], compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_tol * s[0])) if s.size else 0


def _block_labels(r: np.ndarray, c: np.ndarray, n: int):
    """Connected components of the bipartite row/column graph of the
    entries (r, c) of a matrix with n columns, r ascending.

    Returns (the label of every column, the rows with an entry, their
    labels); a label is the smallest column index of its component, and a
    column with no entry is its own component.  Min labels are propagated
    column -> row -> column, with one pointer jump per round, until nothing
    changes: each round only lowers labels and every label stays a column
    of its own component, so the fixed point is one label per component.
    """
    by_col = np.argsort(c.astype(np.min_scalar_type(n)), kind="stable")  # a radix sort, c < n
    row_start = np.flatnonzero(np.diff(r, prepend=-1))
    col_start = np.flatnonzero(np.diff(c[by_col], prepend=-1))
    row_slot = np.cumsum(np.diff(r, prepend=-1) != 0) - 1  # entry -> row_start index
    cols = c[by_col][col_start]
    label = np.arange(n)
    while True:
        row_label = np.minimum.reduceat(label[c], row_start)
        new = label.copy()
        new[cols] = np.minimum.reduceat(row_label[row_slot][by_col], col_start)
        new = new[new]
        if np.array_equal(new, label):
            return label, r[row_start], row_label
        label = new


# narrower tall blocks go straight to the SVD: there the extra QR call
# costs more than the smaller SVD saves
_QR_MIN_COLS = 32


def _block_svd(blocks: np.ndarray):
    """Singular values (descending) and right factors of a stack of equal
    blocks; full right factors when the blocks are wide.  Tall blocks of
    at least ``_QR_MIN_COLS`` columns are first reduced to the R factor of
    their QR decomposition, which has the same singular values and right
    singular vectors."""
    if blocks.shape[1] > blocks.shape[2] >= _QR_MIN_COLS:
        blocks = np.linalg.qr(blocks, mode="r")
    try:
        _, s, vh = np.linalg.svd(blocks, full_matrices=blocks.shape[1] < blocks.shape[2])
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; the Gram route is robust
        w, v = np.linalg.eigh(blocks.conj().swapaxes(1, 2) @ blocks)
        w = w[:, ::-1]
        w = np.where(w < 64 * np.finfo(float).eps * np.maximum(w[:, :1], 0.0), 0.0, w)
        s = np.sqrt(np.maximum(w, 0.0))
        vh = v[:, :, ::-1].conj().swapaxes(1, 2)
    return s, vh


def _summed(rows, cols, vals, shape):
    """(pos, v): the ascending positions r n + c of the cells of an m x n
    matrix that hold an entry, and their values summed in input order."""
    m, n = shape
    rows, cols, vals = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), np.asarray(vals)
    if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= m or cols.max() >= n):
        raise ValueError(f"an entry lies outside the {m}x{n} matrix")
    key = rows * n + cols
    order = np.argsort(key, kind="stable")  # np.unique's inverse, faster on the ascending runs of entry lists
    new = np.diff(key[order], prepend=-1) != 0
    pos, slot = key[order][new], np.empty_like(order)
    slot[order] = np.cumsum(new) - 1
    v = np.bincount(slot, vals.real, pos.size)
    v = v + 1j * np.bincount(slot, vals.imag, pos.size) if np.iscomplexobj(vals) else v
    if not np.all(np.isfinite(v)):
        raise ValueError("matrix contains NaN/Inf")
    return pos, v


def _blocks(pos, v, shape, tol: ToleranceProfile, diagonal: bool = False):
    """The independent blocks of the m x n matrix A with values v at the
    ascending positions pos, once its round-off entries are dropped.

    Entries of at most tau = max|A| * min(64 eps, 1e-3 rank_tol / sqrt(m n))
    (``ToleranceProfile.round_off``) are round-off.  The dropped part E has
    ||E||_2 <= sqrt(m n) tau <= 1e-3 rank_tol ||A||_2, which bounds the move
    of every singular value (and, A Hermitian, every eigenvalue), and no
    entry above 64 ulp of the largest is dropped.  ``diagonal`` keeps the
    diagonal, which pos must hold, so every block is a principal submatrix.
    None for a zero matrix, else (labels, groups): each block's label (its
    smallest column) and, per block shape, (ids, ri, ci, stack), the block
    ids, their ascending rows (blocks, h) and columns (blocks, w), and the
    stack A[ri, ci], round-off entries kept; a column with no entry has no rows."""
    m, n = shape
    a = np.abs(v)
    amax = a.max(initial=0.0)
    if amax == 0.0:
        return None
    keep = (a > tol.round_off(amax, m, n)) | ((pos // n == pos % n) & diagonal)
    col_label, rows, row_label = _block_labels(*np.divmod(pos[keep], n), n)
    labels, col_block = np.unique(col_label, return_inverse=True)
    row_block = np.searchsorted(labels, row_label)
    col_order = np.argsort(col_block, kind="stable")
    row_order = rows[np.argsort(row_block, kind="stable")]
    ncols, nrows = np.bincount(col_block, minlength=labels.size), np.bincount(row_block, minlength=labels.size)
    col_start = np.cumsum(ncols) - ncols
    row_start = np.cumsum(nrows) - nrows
    shape_key = nrows * (n + 1) + ncols
    # group equal keys by a sort: a plain np.unique imports numpy.ma
    by_key = np.argsort(shape_key, kind="stable")
    groups = [(ids, row_order[row_start[ids, None] + np.arange(nrows[ids[0]])],
               col_order[col_start[ids, None] + np.arange(ncols[ids[0]])])
              for ids in np.split(by_key, np.flatnonzero(np.diff(shape_key[by_key])) + 1)]
    # one buffer holds the stacks: per row its block and first cell, per column its block and place
    size = [ri.size * ci.shape[1] for _, ri, ci in groups]
    start = np.cumsum(size) - size
    row_id, row_at = np.full(m, -1), np.zeros(m, dtype=np.intp)
    col_id, col_at = np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp)
    for (ids, ri, ci), s in zip(groups, start):
        row_id[ri], row_at[ri] = ids[:, None], s + ci.shape[1] * np.arange(ri.size).reshape(ri.shape)
        col_id[ci], col_at[ci] = ids[:, None], np.arange(ci.shape[1])
    r, c = np.divmod(pos, n)
    inside = row_id[r] == col_id[c]
    buf = np.zeros(sum(size), dtype=np.result_type(v.dtype, float))
    buf[row_at[r[inside]] + col_at[c[inside]]] = v[inside]
    return labels, [(ids, ri, ci, buf[s:s + z].reshape(len(ids), ri.shape[1], ci.shape[1]))
                    for (ids, ri, ci), s, z in zip(groups, start, size)]


def nullspace(M, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal kernel basis, as the columns of an (n, k) array, k =
    ``cols(M) - rank(M)`` up to ``rank``'s caveat: ``nullspace_entries`` of
    the nonzero entries of M."""
    A = as_matrix(M)
    return _kernel(np.flatnonzero(A), A[A != 0], A.shape, tol)


def nullspace_entries(rows, cols, vals, shape, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """``nullspace`` of the m x n matrix (shape) with entry vals[i] at
    (rows[i], cols[i]), never formed; a repeated position holds the sum of
    its values in input order, as ``np.add.at`` would.

    The blocks of ``_blocks`` of equal shape are solved by one batched SVD.
    The rank cut stays global: ``rank_tol`` times the largest singular value
    over all blocks, i.e. of the matrix up to 0.1% of the cut.  A block
    without rows is a kernel vector as it stands; a zero or empty matrix
    has the full column space.  The basis is ordered by block (smallest
    column first), and its transpose is C-contiguous."""
    return _kernel(*_summed(rows, cols, vals, shape), shape, tol)


def _kernel(pos, v, shape, tol: ToleranceProfile) -> np.ndarray:
    """The kernel of the matrix with values v at the ascending positions pos."""
    n, dtype = shape[1], np.result_type(v.dtype, float)
    split = _blocks(pos, v, shape, tol)
    if split is None:
        return np.eye(n, dtype=dtype)
    labels, groups = split
    solved = [(ids, ci, *_block_svd(stack)) for ids, _, ci, stack in groups]
    cut = tol.rank_tol * max(s.max(initial=0.0) for _, _, s, _ in solved)
    # kernel vectors as (sort key, columns, values); the key orders by
    # block label, then by position in the block's right factor
    parts = []
    for ids, ci, s, vh in solved:
        keep = np.count_nonzero(s > cut, axis=1)
        owner, j = np.nonzero(np.arange(ci.shape[1]) >= keep[:, None])
        parts.append((labels[ids[owner]] * n + j, ci[owner], vh[owner, j].conj()))
    order = np.sort(np.concatenate([key for key, _, _ in parts]))
    ker = np.zeros((order.size, n), dtype=dtype)
    for key, ci, vals in parts:
        ker[np.searchsorted(order, key)[:, None], ci] = vals
    return ker.T


def eig_selfadjoint(M, tol: ToleranceProfile = DEFAULT_TOL):
    """Spectral decomposition of a (numerically) self-adjoint matrix:
    ``eig_selfadjoint_entries`` of the nonzero entries of M."""
    A = as_matrix(M)
    return _eig(np.flatnonzero(A), A[A != 0], A.shape, tol)


def eig_selfadjoint_entries(rows, cols, vals, shape, tol: ToleranceProfile = DEFAULT_TOL):
    """``eig_selfadjoint`` of the n x n matrix A (shape) with the entries
    of ``nullspace_entries``, never formed.

    ||A - A^H||_F may be at most ``RESIDUAL_TOL`` ||A||_F.  The blocks of
    H = (A + A^H) / 2 (``_blocks``, diagonal kept) of equal size share one
    batched ``eigh``.  The eigenvalues of all blocks are sorted together,
    and neighbours closer than ``CLUSTER_TOL`` times the largest |eigenvalue|
    are merged into one entry whose eigenspace collects their eigenvectors.
    Both tests are relative, so scaling A keeps the partition.  Returns
    ``(eigenvalue, basis)`` pairs sorted by eigenvalue, with ``basis`` an
    (n, multiplicity) array of orthonormal columns."""
    return _eig(*_summed(rows, cols, vals, shape), shape, tol)


def _eig(pos, v, shape, tol: ToleranceProfile):
    """The clustered eigenspaces of the matrix with values v at the ascending positions pos."""
    n = shape[0]
    if n != shape[1]:
        raise NotSelfAdjoint(f"matrix is {n}x{shape[1]}, not square")
    # A at every cell of A, of A^H and of the diagonal, ascending; a stable
    # (radix) sort by column lists the transposes of these cells in order
    cells = np.sort(np.concatenate([pos, pos % n * n + pos // n, np.arange(n) * (n + 1)]))
    cells = cells[np.diff(cells, prepend=-1) != 0]
    a = np.zeros(cells.size, dtype=v.dtype)
    a[np.searchsorted(cells, pos)] = v
    ah = a[np.argsort((cells % n).astype(np.min_scalar_type(n)), kind="stable")].conj()
    defect = np.linalg.norm(a - ah)
    if tol.exceeds(defect, np.linalg.norm(v), 1):
        raise NotSelfAdjoint(f"hermiticity defect {defect:.3e} exceeds tolerance")
    h = 0.5 * (a + ah)
    split = _blocks(cells, h, shape, tol, diagonal=True)
    if split is None:
        return [(0.0, np.eye(n, dtype=h.dtype))] if n else []
    solved = [np.linalg.eigh(stack) for *_, stack in split[1]]
    # eigenpair j of block b of a group, w[done + b k + j], fills columns ci[b] of vt's row row[done + b k + j]
    w = np.concatenate([bw.ravel() for bw, _ in solved])
    order = np.argsort(w, kind="stable")
    row, vt = np.empty(n, dtype=np.intp), np.zeros((n, n), dtype=h.dtype)
    row[order] = np.arange(n)
    done = 0
    for (_, _, ci, _), (_, bv) in zip(split[1], solved):
        vt[row[done:done + ci.size].reshape(ci.shape)[:, :, None], ci[:, None, :]] = bv.swapaxes(1, 2)
        done += ci.size
    w = w[order]
    cuts = np.flatnonzero(np.diff(w) > CLUSTER_TOL * np.abs(w).max()) + 1
    return [(float(np.mean(wc)), vc.T) for wc, vc in zip(np.split(w, cuts), np.split(vt, cuts))]


def orthonormal_columns(V, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column span of V (via SVD)."""
    A = as_matrix(V)
    if A.size == 0:
        return A.reshape(A.shape[0], 0)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return A[:, :0]
    r = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    return u[:, :r]
