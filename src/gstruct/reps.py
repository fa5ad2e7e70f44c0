"""Representation machinery on top of the 14-dimensional isotropy module:
Casimir operators and isotypic splittings (of 3-forms and of tensor
products), the skew-torsion compatibility map, and subgroup branching.
An action is the (k, N, N) stack of its generators, one per basis element
of the source algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import sp3
from .errors import NotClosed, StructureViolation
from .liealg import CoordinateFrame, pair_brackets
from .linalg import (DEFAULT_TOL, ToleranceProfile, _block_labels, eig_selfadjoint, eig_selfadjoint_entries, nullspace,
                     nullspace_entries, read_only)


@dataclass(frozen=True)
class IsotypicDecomposition:
    parts: tuple  # (casimir eigenvalue, dimension, orthonormal basis columns)

    @property
    def dim(self) -> int:
        return sum(dim for _, dim, _ in self.parts)


def casimir(gens: np.ndarray) -> np.ndarray:
    """Sum of squared generators (for an orthonormal source basis)."""
    return np.matmul(gens, gens).sum(axis=0)


def decompose_casimir(C, tol: ToleranceProfile = DEFAULT_TOL) -> IsotypicDecomposition:
    """Eigenspace decomposition of a Casimir, given as a matrix or as the
    entries (rows, cols, vals, shape) of one; one part per clustered eigenvalue."""
    parts = eig_selfadjoint_entries(*C, tol) if isinstance(C, tuple) else eig_selfadjoint(C, tol)
    return IsotypicDecomposition(tuple((ev, b.shape[1], b) for ev, b in parts))


# Theta^T Theta on the 3-forms, Theta = ``sp3_theta``: one row (eigenvalue
# lambda, Casimir eigenvalue -6 - 4 lambda, dimension) per irreducible part
LAMBDA3_SPECTRUM = tuple((lam, round(-6 - 4 * lam), dim)
                         for lam, dim in ((0.5, 21), (1.5, 70), (2.5, 189), (3.0, 84)))


@lru_cache(maxsize=4)
def lambda3_decomposition(tol: ToleranceProfile = DEFAULT_TOL) -> IsotypicDecomposition:
    """Casimir splitting 21 + 70 + 84 + 189 of the 3-forms on the 14-dim
    sp(3) module, built once per process and tolerance profile; every
    caller shares it, so the bases are read-only.

    The Casimir of the derivative action is C = -6 I - 4 Theta^T Theta,
    with Theta = ``sp3_theta``, so no 364 x 364 generator is built; its
    eigenspaces are those of ``LAMBDA3_SPECTRUM``."""
    theta = sp3_theta(tol)
    dec = decompose_casimir(-6.0 * np.eye(theta.shape[1]) - 4.0 * (theta.T @ theta), tol)
    for _, _, basis in dec.parts:
        read_only(basis)
    return dec


# ---------------------------------------------------------------------------
# so(n) bookkeeping: a 2-form sum_{a<b} w_ab e_a^e_b corresponds to the
# matrix sum_{a<b} w_ab E_ab, and the pairs basis {E_ab} is orthonormal
# for <A, B> = -tr(AB)/2.


@lru_cache(maxsize=8)
def _pair_rows_cols(n: int):
    """Row and column indices of the pairs a < b, in lexicographic order."""
    return np.triu_indices(n, 1)


def pack_so(M, n: int) -> np.ndarray:
    """Pair coordinates of an n x n matrix, or (..., pairs) of a stack."""
    return np.asarray(M)[(..., *_pair_rows_cols(n))]


def unpack_so(v, n: int) -> np.ndarray:
    """Antisymmetric matrix of pair coordinates; a (..., pairs) stack gives
    a (..., n, n) stack."""
    v = np.asarray(v)
    M = np.zeros(v.shape[:-1] + (n, n))
    M[(..., *_pair_rows_cols(n))] = v
    return M - np.swapaxes(M, -1, -2)


def so_complement(group_gens, n: int, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the complement of span(group_gens) in so(n), as
    a (q, n, n) stack."""
    comp = nullspace(pack_so(np.reshape(group_gens, (len(group_gens), n, n)), n), tol)
    return unpack_so(comp.T, n)


@lru_cache(maxsize=8)
def theta_index(n: int):
    """(slot, row, col, sign), each (3, C(n, 3)): column c = (i, j, k) of
    Theta contracts e_l into e_i^e_j^e_k for l = slot[:, c] = i, j, k, which
    leaves sign * e_row^e_col with row < col.  Read-only."""
    i, j, k = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    sign = np.outer([1.0, -1.0, 1.0], np.ones(i.size))
    return tuple(read_only(x) for x in (np.stack([i, j, k]), np.stack([j, i, i]),
                                       np.stack([k, k, j]), sign))


def theta_map(group_gens, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Skew-torsion compatibility map of a subalgebra g of so(n), given by
    a (k, n, n) stack: T |-> sum_l e_l (x) pr_m(e_l _| T), with m the
    complement of g, as an (n * dim m, C(n, 3)) matrix; block l holds the
    coordinates over the orthonormal basis ``so_complement`` of m."""
    n = np.shape(group_gens)[-1]
    F = so_complement(group_gens, n, tol)
    slot, row, col, sign = theta_index(n)
    N = slot.shape[1]
    theta = np.zeros((n, len(F), N))
    theta[slot, :, np.arange(N)] = (sign * F[:, row, col]).transpose(1, 2, 0)
    return theta.reshape(n * len(F), N)


@lru_cache(maxsize=4)
def sp3_theta(tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """``theta_map`` of rho(sp3) in so(14), the (980, 364) matrix, built once
    per process and tolerance profile; read-only."""
    return read_only(theta_map(sp3.load().rho, tol))


# ---------------------------------------------------------------------------
# Branching of the 14-dimensional module under subalgebras of sp(3).


@lru_cache(maxsize=1)
def _symmetric_coords(n: int) -> np.ndarray:
    """The (n, n) table of the coordinate of the pair {p, q} in
    ``np.triu_indices(n)`` order, at (p, q) and (q, p); read-only."""
    p, q = np.triu_indices(n)
    coord = np.empty((n, n), dtype=np.intp)
    coord[p, q] = coord[q, p] = np.arange(p.size)
    return read_only(coord)


def _commutant_entries(gens: np.ndarray):
    """[S, R] = 0 for every R of a (k, n, n) stack, over the symmetric
    S = sum_{p <= q} s_pq (E_pq + E_qp) (E_pp for p = q), as the entries
    (rows, cols, vals, shape) of a (k n^2, n(n+1)/2) matrix: row g n^2 + i n + j
    is entry (i, j) of S R_g - R_g S, column (p, q) in ``_symmetric_coords``
    order.  R_g[a, b] != 0 puts R_g[a, b] s_ia in (S R_g)_ib and R_g[a, b] s_bj
    in (R_g S)_aj for every i and j, so a cell sums at most two entries."""
    k, n, _ = gens.shape
    coord, i = _symmetric_coords(n), np.arange(n)
    g, a, b = np.nonzero(gens)
    val = np.repeat(gens[g, a, b], n)
    rows = np.concatenate([(g * n * n + b)[:, None] + n * i, (g * n * n + a * n)[:, None] + i]).ravel()
    cols = np.concatenate([coord[a], coord[b]]).ravel()
    return rows, cols, np.concatenate([val, -val]), (k * n * n, coord[-1, -1] + 1)


def subgroup_decompose(row: sp3.SubgroupRow, tol: ToleranceProfile = DEFAULT_TOL):
    """Invariant-block dimensions of the 14-dim module under a subalgebra.

    Solves for the symmetric commutant of the generator images from the
    entries of [S, R] = 0 (``_commutant_entries``), eigen-splits a generic
    commutant element S*, and merges the eigenblocks that some commutant
    element links (same isotypic type): the parts are the connected
    components of the linked block pairs.
    """
    gens = sp3.load().rho_of(row.generators)
    # closure check of the generator span
    _, _, br, scale = pair_brackets(gens)
    _, res = CoordinateFrame(gens).stack_coords(br)
    if np.any(tol.exceeds(res, scale)):
        raise NotClosed(f"{row.name}: generators do not span a subalgebra")

    # the symmetric S with [S, R] = 0 for every generator R: S[p, q] = S[q, p] = s_pq
    commutant = nullspace_entries(*_commutant_entries(gens), tol).T[:, _symmetric_coords(14)]

    # fixed closed-form weights, not a seeded draw: no ``numpy.random`` import
    weights = np.sin(np.sqrt(np.arange(1, len(commutant) + 1)) * 20140314)
    Sstar = np.tensordot(weights, commutant, axes=1)
    bases = [basis for _, basis in eig_selfadjoint(0.5 * (Sstar + Sstar.T), tol)]
    dims = np.array([b.shape[1] for b in bases])
    starts = np.cumsum(dims) - dims
    Q = np.hstack(bases)
    # squared Frobenius norm of every eigenblock pair of Q^T C Q, per C;
    # Q and ker are orthonormal, so the scale is 1
    sq = np.add.reduceat(np.add.reduceat((Q.T @ commutant @ Q) ** 2, starts, axis=1), starts, axis=2)
    linked = np.any(tol.exceeds(np.sqrt(sq), 1.0), axis=0)
    labels, _, _ = _block_labels(*np.nonzero(linked | np.eye(len(dims), dtype=bool)), len(dims))
    sizes = np.bincount(labels, weights=dims)
    return tuple(sorted(int(d) for d in sizes[sizes > 0]))


# ---------------------------------------------------------------------------
# Invariant symmetric cubics on the 14-dimensional module.


def sym3_casimir(gens: np.ndarray):
    """Casimir of Sym^3(R^n) under a (k, n, n) stack, on the orthonormal
    monomial basis (multisets i <= j <= l in lexicographic order).

    On V (x) V (x) V, sum_a D(R_a)^2 = sum_slots C_V + 2 sum_{s<t} Omega_st
    with Omega = sum_a R_a (x) R_a; the three pair terms agree on Sym^3, so
    C = S^T ((3 C_V (x) I + 6 Omega) (x) I) S.  Returns (C, S), S the
    (n^3, N) isometric embedding of the basis.  S^T is applied by gathering
    the six permuted rows of each monomial, not as a product.
    """
    k, n, _ = gens.shape
    idx = np.indices((n, n, n)).reshape(3, -1)
    mono = idx[:, (idx[0] <= idx[1]) & (idx[1] <= idx[2])]
    # flat index of every permutation of every monomial, (6, N)
    flat = n ** np.arange(2, -1, -1) @ mono[np.array(list(permutations(range(3))))]
    N = mono.shape[1]
    S = np.zeros((n ** 3, N))
    S[flat, np.arange(N)] = 1.0
    w = np.sqrt(S.sum(axis=0))  # sqrt of the number of distinct permutations
    S /= w
    R = gens.reshape(k, n * n)
    omega = (R.T @ R).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    # C_V (x) I, broadcast: entry ((i, a), (j, b)) is C_V[i, j] delta_ab
    pair = 3 * (casimir(gens)[:, None, :, None] * np.eye(n)[:, None]).reshape(n * n, n * n) + 6 * omega
    Y = (pair @ S.reshape(n * n, n * N)).reshape(n ** 3, N)
    # row r of S^T Y sums Y at the distinct permutations over w_r, and the
    # six permutations visit each of them 6 / w_r^2 times
    return Y[flat].sum(axis=0) * (w / 6)[:, None], S


def invariant_cubics(tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of invariant symmetric 3-tensors on the 14-dim
    module, as one (k, 14, 14, 14) array: the kernel of the Sym^3 Casimir
    of all the sp(3) generators (``sym3_casimir``), of unit norm: S is an
    isometry."""
    n = 14
    C, S = sym3_casimir(sp3.load().rho)
    U = (S @ nullspace(C, tol)).T.reshape(-1, n, n, n)
    for perm in ((0, 1, 3, 2), (0, 2, 1, 3)):
        if np.any(tol.exceeds(np.abs(U - U.transpose(perm)).max(axis=(1, 2, 3)), 1.0, 1)):
            raise StructureViolation("invariant cubic is not totally symmetric")
    if np.any(tol.exceeds(np.linalg.norm(np.einsum("uiik->uk", U), axis=1), 1.0, 1)):
        raise StructureViolation("invariant cubic is not trace-free")
    return U


# ---------------------------------------------------------------------------
# The tensor product of the 14-dim module with its so(14)-complement.


@lru_cache(maxsize=1)
def complement_action():
    """(complement basis of rho(sp3) in so(14), the induced actions), as
    read-only (70, 14, 14) and (21, 70, 70) stacks."""
    rho = sp3.load().rho
    F = so_complement(rho, 14)
    # acts[r, k, l] = <F_k, [rho_r, F_l]> with <A, B> = -tr(AB)/2
    Br = (rho[:, None] @ F - F @ rho[:, None]).reshape(len(rho), len(F), -1)
    acts = -0.5 * (F.swapaxes(1, 2).reshape(len(F), -1) @ Br.swapaxes(1, 2))
    return read_only(F), read_only(acts)


def v14_v70_casimir():
    """Casimir of the product module by the split-Casimir identity
    C = C14 (x) I + I (x) C70 + 2 sum_a R_a (x) ad_a = sum_t X_t (x) Y_t,
    without the 980 x 980 generators and never formed: its entries (rows,
    cols, vals, shape), one per pair of nonzero entries X_t[p, q] and
    Y_t[r, s] of the same t; the solvers sum those that meet at a cell."""
    R, ad = sp3.load().rho, complement_action()[1]
    m, n = R.shape[1], ad.shape[1]
    X = np.concatenate([casimir(R)[None], np.eye(m)[None], 2 * R])
    Y = np.concatenate([np.eye(n)[None], casimir(ad)[None], ad])
    a, p, q = np.nonzero(X)
    b, r, s = np.nonzero(Y)
    # pair k joins X entry x[k] with Y entry y[k], the nonzeros of Y_t in turn
    count = np.bincount(b, minlength=len(Y))
    per = count[a]
    x = np.repeat(np.arange(a.size), per)
    y = np.arange(x.size) + np.repeat((np.cumsum(count) - count)[a] - (np.cumsum(per) - per), per)
    return p[x] * n + r[y], q[x] * n + s[y], X[a, p, q][x] * Y[b, r, s][y], (m * n, m * n)
