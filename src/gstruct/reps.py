"""Representation machinery on top of the 14-dimensional isotropy module:
Casimir operators and isotypic splittings (of 3-forms and of tensor
products), the skew-torsion compatibility map and its kernel,
joint invariants, and subgroup branching.  An action is the (k, N, N)
stack of its generators, one per basis element of the source algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from . import sp3
from .errors import NotClosed, StructureViolation
from .liealg import CoordinateFrame, pair_brackets
from .linalg import DEFAULT_TOL, ToleranceProfile, _block_labels, eig_selfadjoint, nullspace, read_only


@dataclass(frozen=True)
class IsotypicDecomposition:
    parts: tuple  # (casimir eigenvalue, dimension, orthonormal basis columns)

    @property
    def dim(self) -> int:
        return sum(dim for _, dim, _ in self.parts)


def triples(n: int):
    return list(combinations(range(n), 3))


def casimir(gens: np.ndarray) -> np.ndarray:
    """Sum of squared generators (for an orthonormal source basis)."""
    return np.matmul(gens, gens).sum(axis=0)


def decompose_casimir(C: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> IsotypicDecomposition:
    """Eigenspace decomposition of a Casimir; one part per clustered eigenvalue."""
    return IsotypicDecomposition(tuple((ev, b.shape[1], b) for ev, b in eig_selfadjoint(C, tol)))


def isotypic_decompose(gens: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> IsotypicDecomposition:
    """Casimir eigenspace decomposition; one part per clustered eigenvalue."""
    return decompose_casimir(casimir(gens), tol)


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


def invariant_vectors(gens: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the joint kernel of a (k, d, d) stack
    of generators; all of R^d for an empty stack."""
    return nullspace(gens.reshape(-1, gens.shape[-1]), tol)


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
    i, j, k = np.array(triples(n), dtype=np.intp).reshape(-1, 3).T
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


def theta_kernel(theta: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL):
    """(kernel dimension, orthonormal kernel basis as columns over triples)."""
    ker = nullspace(theta, tol)
    return ker.shape[1], ker


# ---------------------------------------------------------------------------
# Branching of the 14-dimensional module under subalgebras of sp(3).


@lru_cache(maxsize=1)
def _symmetric_embedding(n: int) -> np.ndarray:
    """The (n * n, n(n+1)/2) 0/1 matrix whose column (p, q), p <= q in
    ``np.triu_indices`` order, is vec(E_pq + E_qp) (vec(E_pp) for p = q):
    coordinates of the symmetric matrices to their row-major entries.
    Read-only."""
    p, q = np.triu_indices(n)
    P = np.zeros((n * n, p.size))
    P[p * n + q, np.arange(p.size)] = P[q * n + p, np.arange(p.size)] = 1.0
    return read_only(P)


def _commutant_block(R: np.ndarray) -> np.ndarray:
    """S |-> vec(S R - R S) on symmetric n x n matrices S, over the
    coordinates of ``_symmetric_embedding``: vec(S R) = (I (x) R^T) vec S
    and vec(R S) = (R (x) I) vec S for row-major vec."""
    I = np.eye(len(R))
    return (np.kron(I, R.T) - np.kron(R, I)) @ _symmetric_embedding(len(R))


def subgroup_decompose(row: sp3.SubgroupRow, tol: ToleranceProfile = DEFAULT_TOL):
    """Invariant-block dimensions of the 14-dim module under a subalgebra.

    Finds the symmetric commutant of the generator images, eigen-splits a
    generic commutant element S*, and merges the eigenblocks that some
    commutant element links (same isotypic type): the parts are the
    connected components of the linked block pairs.
    """
    gens = sp3.load().rho_of(row.generators)
    # closure check of the generator span
    _, _, br, scale = pair_brackets(gens)
    _, res = CoordinateFrame(gens).stack_coords(br)
    if np.any(tol.exceeds(res, scale)):
        raise NotClosed(f"{row.name}: generators do not span a subalgebra")

    # the symmetric S with [S, R] = 0 for every generator R
    ker = nullspace(np.vstack([_commutant_block(R) for R in gens]), tol)
    commutant = (_symmetric_embedding(14) @ ker).T.reshape(-1, 14, 14)

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
    pair = 3 * np.kron(casimir(gens), np.eye(n)) + 6 * omega
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


def trace_cubic() -> np.ndarray:
    """The invariant cubic built directly from the ambient triple trace,
    Im tr(sym(B_i B_j B_k)); an independent construction used as an oracle."""
    B = sp3.load().B
    t = np.imag(np.einsum("iab,jbc,kca->ijk", B, B, B))
    return sum(np.transpose(t, p) for p in permutations(range(3))) / 6.0


def metric_reconstructor(tol: ToleranceProfile = DEFAULT_TOL):
    """A scaled invariant cubic U with U_v^2 v = |v|^2 v for every v.

    Uses the ambient-trace construction, fixes the scale on one sample
    vector, and returns (tensor, scale applied).
    """
    t = trace_cubic()
    rng = np.random.default_rng(7)
    v = rng.standard_normal(14)
    v /= np.linalg.norm(v)
    M = np.einsum("ijk,k->ij", t, v)
    denom = float(v @ (M @ M) @ v)
    if denom <= 0:
        raise RuntimeError("trace cubic degenerate on the sample vector")
    c = 1.0 / np.sqrt(denom)
    return c * t, c


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


def v14_v70_rep() -> np.ndarray:
    """Action on the 980-dimensional product module, a (21, 980, 980) stack."""
    R, acts = sp3.load().rho, complement_action()[1]
    I14, I70 = np.eye(14), np.eye(70)
    out = np.empty((len(R), 980, 980))
    for g, r, ad in zip(out, R, acts):
        g[:] = np.kron(r, I70) + np.kron(I14, ad)
    return out


def v14_v70_casimir() -> np.ndarray:
    """Casimir of the product module by the split-Casimir identity
    C = C14 (x) I + I (x) C70 + 2 sum_a R_a (x) ad_a, without the 980x980
    generators; the cross term is one product."""
    R, ad = sp3.load().rho, complement_action()[1]
    c14, c70 = casimir(R), casimir(ad)
    cross = (R.reshape(21, 196).T @ ad.reshape(21, 4900)).reshape(14, 14, 70, 70)
    return (np.kron(c14, np.eye(70)) + np.kron(np.eye(14), c70)
            + 2 * cross.transpose(0, 2, 1, 3).reshape(980, 980))
