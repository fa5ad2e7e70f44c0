"""Matrix Lie algebras: brackets, structure constants, reductive splits,
isotropy representations, and natural-reductivity checks.

Conventions fixed here and used everywhere else:

* base inner product  ``<X, Y> = -Re tr(XY)``  (the catalog bases are
  orthonormal for it);
* isotropy matrices act by columns,  ``[H, K_j] = sum_k rho(H)_{kj} K_k``;
* a set of k matrices of size n x n is one (k, n, n) array; the sets
  cached for the whole process (``sp3.load()``, ``reps.complement_action()``,
  ``spin.build_clifford``) are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotClosed, NotReductive
from .linalg import DEFAULT_TOL, ToleranceProfile, nullspace, orthonormal_columns


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


@dataclass(frozen=True)
class InnerProductSpec:
    """Blockwise positive rescaling of the base form on a fixed basis.

    ``blocks`` partitions the basis indices; block b carries coefficient
    ``coefficients[b]``, i.e. g = sum_b coeff_b * <pr_b X, pr_b Y>.
    """

    blocks: tuple
    coefficients: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.coefficients):
            raise ValueError("one coefficient per block required")
        if any(c <= 0 for c in self.coefficients):
            raise ValueError("coefficients must be positive")
        seen = sorted(i for blk in self.blocks for i in blk)
        if seen != list(range(len(seen))):
            raise ValueError("blocks must partition the index range")

    def element_coefficients(self) -> np.ndarray:
        """The coefficient of each basis index's block, as one array."""
        c = np.empty(sum(map(len, self.blocks)))
        for blk, coeff in zip(self.blocks, self.coefficients):
            c[list(blk)] = coeff
        return c


def uniform_ip(dim: int, coefficient: float = 1.0) -> InnerProductSpec:
    return InnerProductSpec((tuple(range(dim)),), (coefficient,))


@dataclass
class ReductiveSplit:
    """A decomposition k = h + m with [h, m] contained in m.

    ``h_basis`` and ``m_basis`` are complex (dim, n, n) arrays, either of
    them possibly empty (n is read from ``m_basis``, so an empty one is
    (0, n, n)); ``m_basis`` is orthonormal for the metric described
    by ``ip``; all coordinate extraction goes through a least-squares frame
    over the combined (h, m) basis, built on the first ``split_stack``.
    """

    h_basis: np.ndarray
    m_basis: np.ndarray
    ip: InnerProductSpec

    def __post_init__(self):
        self.m_basis = np.asarray(self.m_basis, dtype=complex)
        shape = (-1,) + self.m_basis.shape[1:]
        self.h_basis = np.reshape(np.asarray(self.h_basis, dtype=complex), shape)

    @cached_property
    def _frame(self) -> CoordinateFrame:
        return CoordinateFrame(np.concatenate([self.h_basis, self.m_basis]))

    @property
    def dim_h(self) -> int:
        return len(self.h_basis)

    @property
    def dim_m(self) -> int:
        return len(self.m_basis)

    def split_stack(self, X, scale, tol: ToleranceProfile = DEFAULT_TOL):
        """(h-coordinates, m-coordinates) of a stack of N matrices, as
        (N, dim_h) and (N, dim_m) arrays; raises if an element leaves h + m
        by more than round-off of ``scale``, the size of its operands."""
        c, res = self._frame.stack_coords(np.asarray(X))
        bad = np.flatnonzero(tol.exceeds(res, scale))
        if bad.size:
            raise NotReductive(f"element leaves h+m (residual {res[bad[0]]:.3e})")
        return c[:, : self.dim_h], c[:, self.dim_h:]

    def gram_m(self) -> np.ndarray:
        """Gram matrix of m_basis under the ip metric (identity if orthonormal).

        metric = sum_b coeff_b <pr_b X, pr_b Y>; with block-orthogonal bases
        this reduces to coeff-weighted base inner products, evaluated via
        projections onto each block's span."""
        V = _stack(self.m_basis)
        G = np.zeros((self.dim_m, self.dim_m))
        for blk, coeff in zip(self.ip.blocks, self.ip.coefficients):
            P = orthonormal_columns(V[:, list(blk)]).T @ V
            G += coeff * (P.T @ P)
        return G


def reductive_split(
    k,
    h_basis,
    ip: InnerProductSpec = None,
    m_basis=None,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> ReductiveSplit:
    """Split k = h + m, for a (d, n, n) basis k, with m the base-form
    orthogonal complement of h unless an explicit (already orthonormal)
    ``m_basis`` is supplied.

    Raises NotReductive if [h, m] does not stay inside m.
    """
    if m_basis is None:
        # complement of span(h) inside span(k) under -Re tr(XY):
        # the base form is the Euclidean form on the real stacking.
        K = _stack(k)
        Kon = orthonormal_columns(K)
        if len(h_basis):
            H = _stack(h_basis)
            proj = Kon.T @ H  # h expressed in the k-frame
            comp = nullspace(proj.T, tol)  # directions of k orthogonal to h
            vecs = Kon @ comp
        else:
            vecs = Kon
        n = np.shape(k)[1]
        mats = (vecs[: n * n] + 1j * vecs[n * n:]).T.reshape(vecs.shape[1], n, n)
        norms = -np.einsum("kab,kba->k", mats, mats).real
        m_basis = mats / np.sqrt(np.maximum(norms, 1e-300))[:, None, None]
    if ip is None:
        ip = uniform_ip(len(m_basis))
    split = ReductiveSplit(h_basis=h_basis, m_basis=m_basis, ip=ip)
    isotropy_matrices(split, tol)  # raises NotReductive
    return split


def isotropy_matrices(split: ReductiveSplit, tol: ToleranceProfile = DEFAULT_TOL):
    """ad(h)|_m in the orthonormal m basis, as a real (dim h, dim m, dim m)
    stack.

    Raises NotReductive if some [H, K_j] has an h-part (each bracket is
    measured against ||H|| ||K_j||)."""
    r, d, n = split.dim_h, split.dim_m, split.m_basis.shape[1]
    H = split.h_basis.reshape(r, 1, n, n)
    K = split.m_basis.reshape(1, d, n, n)
    br = (H @ K - K @ H).reshape(r * d, n, n)
    scale = np.outer(np.linalg.norm(H, axis=(2, 3)), np.linalg.norm(K, axis=(2, 3))).ravel()
    ch, cm = split.split_stack(br, scale, tol)
    hpart = np.linalg.norm(ch, axis=1)
    bad = np.flatnonzero(tol.exceeds(hpart, scale))
    if bad.size:
        raise NotReductive(f"[h, m] leaves m (h-part {hpart[bad[0]]:.3e})")
    # R[:, j] holds the m-coordinates of [H, K_j]
    return cm.reshape(r, d, d).swapaxes(1, 2)


def is_naturally_reductive(split: ReductiveSplit, tol: ToleranceProfile = DEFAULT_TOL):
    """(flag, max defect) for g([X,Y]_m, Z) + g(Y, [X,Z]_m) over basis triples,
    measured against the largest m basis element, the size of n3."""
    n = split.dim_m
    # n3[i, j, k] = g([K_i, K_j]_m, K_k); with orthonormal m the metric
    # coefficients are already absorbed into the basis.
    i, j, br, scale = pair_brackets(split.m_basis)
    _, cm = split.split_stack(br, scale, tol)
    n3 = np.zeros((n, n, n))
    n3[i, j], n3[j, i] = cm, -cm
    defect = float(np.max(np.abs(n3 + np.swapaxes(n3, 1, 2))))
    return not tol.exceeds(defect, np.linalg.norm(split.m_basis, axis=(1, 2)).max()), defect
