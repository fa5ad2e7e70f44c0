"""Dense complex linear algebra with an explicit tolerance policy.

Every floating-point decision elsewhere in the package (ranks, kernels,
eigenvalue clustering, residual assertions) is routed through a single
:class:`ToleranceProfile`, so identical inputs always produce identical
outputs.  Backed by numpy's LAPACK bindings; matrices are plain
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


DEFAULT_TOL = ToleranceProfile()


def as_matrix(M) -> np.ndarray:
    """Coerce to a finite 2-d array (raises on NaN/Inf)."""
    A = np.asarray(M)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A.view(float) if np.iscomplexobj(A) else A)):
        raise ValueError("matrix contains NaN/Inf")
    return A


def rank(M, tol: ToleranceProfile = DEFAULT_TOL) -> int:
    """Number of singular values above ``rank_tol`` times the largest one."""
    A = as_matrix(M)
    if A.size == 0:
        return 0
    try:
        s = np.linalg.svd(A, compute_uv=False)
    except np.linalg.LinAlgError:
        G = A.conj().T @ A if A.shape[0] >= A.shape[1] else A @ A.conj().T
        w = np.linalg.eigvalsh(G)[::-1].copy()
        w[w < 64 * np.finfo(float).eps * max(w[0], 0.0)] = 0.0
        s = np.sqrt(np.maximum(w, 0.0))
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_tol * s[0]))


def nullspace(M, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal kernel basis, returned as the columns of an (n, k) array.

    k equals ``cols(M) - rank(M)``; for a zero or empty matrix the kernel
    is the full column space.  Tall input (rows > cols) is first reduced to
    the square R factor of its QR decomposition, which has the same
    singular values and right singular vectors, so the tall left factor
    is never formed.
    """
    A = as_matrix(M)
    n = A.shape[1]
    if A.size == 0:
        return np.eye(n, dtype=A.dtype if A.dtype.kind == "c" else float)
    if A.shape[0] > n:
        A = np.linalg.qr(A, mode="r")
    try:
        # the full right factor is only needed when rows < cols
        _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; the Gram route is robust
        w, v = np.linalg.eigh(A.conj().T @ A)
        w = w[::-1].copy()
        w[w < 64 * np.finfo(float).eps * max(w[0], 0.0)] = 0.0
        s = np.sqrt(np.maximum(w, 0.0))
        vh = v[:, ::-1].conj().T
    if s.size == 0 or s[0] == 0.0:
        r = 0
    else:
        r = int(np.count_nonzero(s > tol.rank_tol * s[0]))
    return vh[r:].conj().T


def eig_selfadjoint(M, tol: ToleranceProfile = DEFAULT_TOL):
    """Spectral decomposition of a (numerically) self-adjoint matrix.

    Eigenvalues closer than ``cluster_tol`` are merged into a single
    entry whose eigenspace collects the corresponding eigenvectors.
    Returns a list of ``(eigenvalue, basis)`` pairs sorted by eigenvalue,
    with ``basis`` an (n, multiplicity) array of orthonormal columns.
    """
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise NotSelfAdjoint(f"matrix is {A.shape[0]}x{A.shape[1]}, not square")
    scale = np.linalg.norm(A)
    defect = np.linalg.norm(A - A.conj().T)
    if defect > tol.residual_tol * max(scale, 1.0):
        raise NotSelfAdjoint(f"hermiticity defect {defect:.3e} exceeds tolerance")
    w, v = np.linalg.eigh(0.5 * (A + A.conj().T))
    out = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol.cluster_tol:
            block = v[:, start:i]
            out.append((float(np.mean(w[start:i])), block))
            start = i
    return out


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
