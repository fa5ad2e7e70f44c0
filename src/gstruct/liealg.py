"""Matrix Lie algebras: brackets, structure constants, coordinates over a
reductive split k = h + m (bare (r, n, n) and (d, n, n) bases of h and m),
isotropy representations, and the natural-reductivity check on a bracket
table.

Conventions fixed here and used everywhere else:

* base inner product  ``<X, Y> = -Re tr(XY)``  (the catalog bases are
  orthonormal for it);
* isotropy matrices act by columns,  ``[H, K_j] = sum_k rho(H)_{kj} K_k``;
* a set of k matrices of size n x n is one (k, n, n) array; the sets
  cached for the whole process (``sp3.load()``, ``reps.complement_action()``)
  are read-only, and so are the Clifford tables of ``spin._product_table``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NotClosed, NotReductive
from .linalg import DEFAULT_TOL, ToleranceProfile


def inner(X, Y) -> float:
    """Base invariant form -Re tr(XY) on anti-hermitian matrices."""
    return float(-np.real(np.trace(X @ Y)))


def bracket(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape != Y.shape or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


def _stack(mats) -> np.ndarray:
    """Real column-stack of complex matrices (re/im interleaved)."""
    M = np.asarray(mats)
    if not len(M):
        return np.zeros((0, 0))
    M = M.reshape(len(M), -1)
    return np.concatenate([M.real, M.imag], axis=1).T


def pair_brackets(mats):
    """(i, j, [mats_i, mats_j], ||mats_i|| ||mats_j||) over the pairs i < j
    of np.triu_indices, the brackets as one (pairs, n, n) stack; the last is
    their residual scale (a bracket may be zero up to round-off)."""
    B = np.asarray(mats)
    i, j = np.triu_indices(len(B), 1)
    norms = np.linalg.norm(B, axis=(1, 2))
    return i, j, B[i] @ B[j] - B[j] @ B[i], norms[i] * norms[j]


class CoordinateFrame:
    """Least-squares coordinates with respect to a fixed stack of matrices.
    The pseudo-inverse is taken of the frame with unit-norm columns and
    its rows are unscaled after, so coordinates do not lose digits when
    the frame mixes very different scales (a metric scaled by 1e14, say)."""

    def __init__(self, mats):
        self.mats = np.asarray(mats, dtype=complex)
        self._pinv = None
        if len(self.mats):
            S = _stack(self.mats)
            norms = np.linalg.norm(S, axis=0)
            norms[norms == 0] = 1.0
            self._pinv = np.linalg.pinv(S / norms) / norms[:, None]

    def stack_coords(self, X):
        """Coefficients (N, len(mats)) of a stack of N matrices, each with
        X_k ~ sum_i c[k, i] mats_i, plus the (N,) residual norms."""
        X = np.asarray(X)
        flat = X.reshape(len(X), math.prod(X.shape[1:]))
        if self._pinv is None:
            return np.zeros((len(X), 0)), np.linalg.norm(flat, axis=1)
        c = np.concatenate([flat.real, flat.imag], axis=1) @ self._pinv.T
        return c, np.linalg.norm(flat - c @ self.mats.reshape(len(self.mats), -1), axis=1)


def structure_constants(basis, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """c[i, j, k] with [b_i, b_j] = sum_k c[i, j, k] b_k, for a (d, n, n)
    basis closed under the bracket."""
    d = len(basis)
    i, j, br, scale = pair_brackets(basis)
    coef, res = CoordinateFrame(basis).stack_coords(br)
    bad = np.flatnonzero(tol.exceeds(res, scale, 1))
    if bad.size:
        k = bad[0]
        raise NotClosed(f"[b_{i[k]}, b_{j[k]}] leaves the span (residual {res[k]:.3e})")
    c = np.zeros((d, d, d))
    c[i, j], c[j, i] = coef, -coef
    return c


def split_coords(frame: CoordinateFrame, r: int, X, scale, tol: ToleranceProfile = DEFAULT_TOL):
    """(h-coordinates, m-coordinates) of a stack of N matrices over a frame
    whose first r matrices span h and the others m, as (N, r) and
    (N, len(frame.mats) - r) arrays; raises NotReductive if an element
    leaves h + m by more than round-off of ``scale``, the size of its
    operands."""
    c, res = frame.stack_coords(X)
    bad = np.flatnonzero(tol.exceeds(res, scale))
    if bad.size:
        raise NotReductive(f"element leaves h+m (residual {res[bad[0]]:.3e})")
    return c[:, :r], c[:, r:]


def isotropy_matrices(frame: CoordinateFrame, r: int, tol: ToleranceProfile = DEFAULT_TOL):
    """ad(h)|_m in the frame K of m, for a frame whose first r matrices are
    the basis H of h and the other d the frame K, as a real (r, d, d) stack.

    Raises NotReductive if some [H, K_j] leaves h + m or has an h-part
    (each bracket is measured against ||H|| ||K_j||)."""
    H, K = frame.mats[:r], frame.mats[r:]
    n, d = frame.mats.shape[1], len(K)
    br = (H[:, None] @ K[None] - K[None] @ H[:, None]).reshape(r * d, n, n)
    scale = np.outer(np.linalg.norm(H, axis=(1, 2)), np.linalg.norm(K, axis=(1, 2))).ravel()
    ch, cm = split_coords(frame, r, br, scale, tol)
    hpart = np.linalg.norm(ch, axis=1)
    bad = np.flatnonzero(tol.exceeds(hpart, scale))
    if bad.size:
        raise NotReductive(f"[h, m] leaves m (h-part {hpart[bad[0]]:.3e})")
    # R[:, j] holds the m-coordinates of [H, K_j]
    return cm.reshape(r, d, d).swapaxes(1, 2)
