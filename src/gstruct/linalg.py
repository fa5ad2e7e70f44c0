"""Dense complex linear algebra with an explicit tolerance policy.

Every floating-point decision elsewhere in the package (ranks, kernels,
eigenvalue clustering, residual assertions) is routed through a single
:class:`ToleranceProfile`, so identical inputs always produce identical
outputs.  Every residual, defect and nonzero test is one call of
:meth:`ToleranceProfile.exceeds`; only this module reads ``residual_tol``.
Backed by numpy's LAPACK bindings; matrices are plain
``numpy.ndarray`` objects (row-major, complex or real dtype).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSelfAdjoint


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical policy: relative rank cutoff, eigenvalue clustering
    width, and the tolerance used for residual assertions."""

    rank_tol: float = 1e-8
    cluster_tol: float = 1e-6
    residual_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rank_tol > 0 and self.cluster_tol > 0 and self.residual_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.rank_tol >= 1:
            raise ValueError("rank_tol must be < 1")

    def exceeds(self, value, scale, factor: float = 1e3):
        """Elementwise ``value > factor * residual_tol * scale``, with scale
        the size of the operands the residual came from, never floored."""
        return value > factor * self.residual_tol * scale

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
    """Number of singular values above ``rank_tol`` times the largest one:
    the column count minus the dimension of ``nullspace(M, tol)``."""
    ker = nullspace(M, tol)
    return ker.shape[0] - ker.shape[1]


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
    by_col = np.argsort(c, kind="stable")
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


def _split_blocks(A: np.ndarray, tol: ToleranceProfile, hermitian: bool = False):
    """The independent blocks of A once its round-off entries are dropped.

    Entries of at most tau = max|A| * min(64 eps, 1e-3 rank_tol / sqrt(m n))
    (``ToleranceProfile.round_off``) are round-off.  The dropped part E has
    ||E||_2 <= sqrt(m n) tau <= 1e-3 rank_tol ||A||_2, which bounds the move
    of every singular value (and, A Hermitian, every eigenvalue), and no
    entry above 64 ulp of the largest is dropped.  The blocks are the
    connected components of the row/column pattern of the rest
    (``_group_blocks``); ``hermitian`` adds the diagonal, so every block is
    a principal submatrix.  Returns None for a zero matrix.
    """
    absA = np.abs(A)
    amax = absA.max() if A.size else 0.0
    if amax == 0.0:
        return None
    mask = absA > tol.round_off(amax, *A.shape)
    if hermitian:
        np.fill_diagonal(mask, True)
    return _group_blocks(*np.nonzero(mask), A.shape[1])


def _group_blocks(r: np.ndarray, c: np.ndarray, n: int):
    """The blocks of the entries (r, c), r ascending, of a matrix with n
    columns, grouped by shape: (labels, groups), each block's label
    (smallest column), and per block shape (ids, ri, ci), the block ids and
    their ascending row and column indices as (blocks, rows) and (blocks,
    cols) arrays.  A column with no entry is a block without rows."""
    col_label, rows, row_label = _block_labels(r, c, n)
    labels, col_block = np.unique(col_label, return_inverse=True)
    row_block = np.searchsorted(labels, row_label)
    col_order = np.argsort(col_block, kind="stable")
    row_order = rows[np.argsort(row_block, kind="stable")]
    ncols = np.bincount(col_block, minlength=labels.size)
    nrows = np.bincount(row_block, minlength=labels.size)
    col_start = np.cumsum(ncols) - ncols
    row_start = np.cumsum(nrows) - nrows
    shape_key = nrows * (n + 1) + ncols
    # group equal keys by a sort: a plain np.unique imports numpy.ma
    by_key = np.argsort(shape_key, kind="stable")
    groups = []
    for ids in np.split(by_key, np.flatnonzero(np.diff(shape_key[by_key])) + 1):
        ri = row_order[row_start[ids, None] + np.arange(nrows[ids[0]])]
        ci = col_order[col_start[ids, None] + np.arange(ncols[ids[0]])]
        groups.append((ids, ri, ci))
    return labels, groups


def nullspace(M, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal kernel basis, returned as the columns of an (n, k) array.

    k equals ``cols(M) - rank(M)``; for a zero or empty matrix the kernel
    is the full column space.

    M is split into the independent blocks left after dropping its
    round-off entries (``_split_blocks``), and blocks of equal shape are
    solved together by one batched SVD.  The rank cut stays global:
    ``rank_tol`` times the largest singular value over all blocks, i.e. of
    M up to 0.1% of the cut.  A block without rows is a kernel vector as it
    stands.  The basis is ordered by block (smallest column index first),
    and its transpose is C-contiguous.  ``nullspace_entries`` solves a
    matrix given by its entries the same way.
    """
    A = as_matrix(M)
    return _kernel(_split_blocks(A, tol), lambda ri, ci: A[ri[:, :, None], ci[:, None, :]],
                   A.shape[1], np.result_type(A.dtype, float), tol)


def nullspace_entries(rows, cols, vals, shape, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """``nullspace`` of the matrix of the given shape with entry vals[i] at
    (rows[i], cols[i]), never formed.  A repeated position holds the sum of
    its values in input order, as ``np.add.at`` would, and a block every
    entry in its rows and columns, round-off ones too: the basis is bitwise
    that of the dense float64 or complex128 matrix."""
    m, n = shape
    rows, cols, vals = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp), np.asarray(vals)
    if rows.size and (min(rows.min(), cols.min()) < 0 or rows.max() >= m or cols.max() >= n):
        raise ValueError(f"an entry lies outside the {m}x{n} matrix")
    pos, slot = np.unique(rows * n + cols, return_inverse=True)  # unlike a plain np.unique, imports no numpy.ma
    v = np.bincount(slot, vals.real, pos.size)
    v = v + 1j * np.bincount(slot, vals.imag, pos.size) if np.iscomplexobj(vals) else v
    if not np.all(np.isfinite(v)):
        raise ValueError("matrix contains NaN/Inf")
    amax = np.abs(v).max(initial=0.0)
    split = _group_blocks(*np.divmod(pos[np.abs(v) > tol.round_off(amax, m, n)], n), n) if amax > 0.0 else None

    def gather(ri, ci):  # A[ri, ci]: the summed value at a cell with entries, else 0
        cell = ri[:, :, None] * n + ci[:, None, :]
        at = np.minimum(np.searchsorted(pos, cell), pos.size - 1)
        return np.where(pos[at] == cell, v[at], 0.0)

    return _kernel(split, gather, n, np.result_type(vals.dtype, float), tol)


def _kernel(split, gather, n: int, dtype, tol: ToleranceProfile) -> np.ndarray:
    """The kernel of n columns from ``_split_blocks``' blocks (None: a zero
    matrix), ``gather(ri, ci)`` giving the stack of the blocks of one shape."""
    if split is None:
        return np.eye(n, dtype=dtype)
    labels, groups = split
    solved = [(ids, ci, *_block_svd(gather(ri, ci))) for ids, ri, ci in groups]
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
    """Spectral decomposition of a (numerically) self-adjoint matrix.

    ||M - M^H||_F may be at most ``residual_tol`` ||M||_F.  The Hermitian
    part is split by ``_split_blocks``; blocks of equal size share one
    batched ``eigh``.  The eigenvalues of all blocks are sorted together,
    and neighbours closer than ``cluster_tol`` times the largest |eigenvalue|
    are merged into one entry whose eigenspace collects their eigenvectors.
    Both tests are relative, so scaling M keeps the partition.  Returns
    ``(eigenvalue, basis)`` pairs sorted by eigenvalue, with ``basis`` an
    (n, multiplicity) array of orthonormal columns.
    """
    A = as_matrix(M)
    n = A.shape[0]
    if n != A.shape[1]:
        raise NotSelfAdjoint(f"matrix is {n}x{A.shape[1]}, not square")
    Ah = np.ascontiguousarray(A.conj().T)  # the transposed read, made once
    defect = np.linalg.norm(A - Ah)
    if tol.exceeds(defect, np.linalg.norm(A), 1):
        raise NotSelfAdjoint(f"hermiticity defect {defect:.3e} exceeds tolerance")
    H = 0.5 * (A + Ah)
    split = _split_blocks(H, tol, hermitian=True)
    if split is None:
        return [(0.0, np.eye(n, dtype=H.dtype))] if n else []
    # eigenvector j of block b fills columns ci[b] of row done + b k + j
    w, vt = np.empty(n), np.zeros((n, n), dtype=H.dtype)
    done = 0
    for _, _, ci in split[1]:
        bw, bv = np.linalg.eigh(H[ci[:, :, None], ci[:, None, :]])
        rows = done + np.arange(ci.size).reshape(ci.shape)
        w[rows] = bw
        vt[rows[:, :, None], ci[:, None, :]] = bv.swapaxes(1, 2)
        done += ci.size
    order = np.argsort(w, kind="stable")
    w, vt = w[order], vt[order]
    cuts = np.flatnonzero(np.diff(w) > tol.cluster_tol * np.abs(w).max()) + 1
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
