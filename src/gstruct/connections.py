"""Invariant metric connections with image in the symplectic subalgebra:
the equivariant-family solver, torsion and curvature and the covariant
derivative of torsion, the Levi-Civita connection and the unique
skew-torsion (characteristic) connection, intrinsic-type classification,
holonomy, and parallel vector fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import reps, sp3
from .errors import Infeasible, NotSkew
from .linalg import DEFAULT_TOL, ToleranceProfile, nullspace, orthonormal_columns, read_only
from .spaces import HomogeneousSpaceInstance

# nabla T (or T itself) counts as zero up to this multiple of its scale
_PARALLEL_REL = 1e-7


@dataclass(frozen=True)
class EquivariantFamily:
    """All isotropy-equivariant maps of the tangent space into rho(sp3),
    encoded as (dim, 14, 21) coefficient stacks over the tangent/A bases."""

    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class InvariantConnection:
    """The map Lambda of an invariant connection.  Its so(14) stack, torsion
    and curvature depend on these two fields alone, so each is computed
    once, on first use, and handed out read-only."""

    space: HomogeneousSpaceInstance
    lambda_coeffs: np.ndarray  # (14, 21) over the A basis

    def so_matrices(self) -> np.ndarray:
        """(14, 14, 14) stack: entry [j] is the so(14) matrix of Lambda(K_j)."""
        return self._stack

    @cached_property
    def _stack(self) -> np.ndarray:
        return read_only(np.einsum("ja,akl->jkl", self.lambda_coeffs, sp3.load().rho))

    @cached_property
    def _torsion(self) -> TorsionTensor:
        return torsion_of_map(self.space, self._stack)

    @cached_property
    def _curvature(self) -> np.ndarray:
        return curvature_of_map(self.space, self._stack)

    def nonzero_entries(self):
        """[(K index, A index, coefficient)] with 1-based indices."""
        L = self.lambda_coeffs
        return [(int(j) + 1, int(a) + 1, float(L[j, a])) for j, a in np.argwhere(L != 0)]


@dataclass(frozen=True)
class TorsionTensor:
    t12: np.ndarray  # t12[k, i, j]: K_k component of T(K_i, K_j)
    t3: np.ndarray  # t3[i, j, k] = g(T(K_i, K_j), K_k) = t12[k, i, j]

    @property
    def norm2_increasing(self) -> float:
        """Sum of squared coefficients over strictly increasing triples."""
        i, j, k = np.indices(self.t3.shape)
        return float(np.sum(self.t3[(i < j) & (j < k)] ** 2))


@dataclass(frozen=True)
class HolonomyResult:
    basis: np.ndarray  # (dim, 14, 14) antisymmetric
    dim: int
    label: str


def _equivariance_block(R: np.ndarray) -> np.ndarray:
    """Rows of the equivariance system for one isotropy generator R; row
    (j, c), column (k, a) holds R[k, j] delta_ac - delta_jk m[a, c], with m
    the matrix of [R, .] on the rho basis."""
    R21 = sp3.load().rho
    # [R, rho_a] expanded over the rho basis
    br = np.einsum("kl,alm->akm", R, R21) - np.einsum("akl,lm->akm", R21, R)
    m = np.einsum("akm,cmk->ac", br, R21) / (-4.0)  # <., .> = -tr(..)/4
    return np.kron(R.T, np.eye(21)) - np.kron(np.eye(14), m.T)


def solve_equivariant(space: HomogeneousSpaceInstance, tol: ToleranceProfile = DEFAULT_TOL) -> EquivariantFamily:
    """Nullspace of the infinitesimal equivariance system
    Lambda(rho(h) X) = [rho(h), Lambda(X)] over coefficient stacks.

    The system is a representation of the isotropy algebra on the maps, so
    it is stacked only over ``space.generators(tol)``; the family depends
    on the isotropy alone and is shared like it (``isotropy_result``)."""
    def solve(owner):
        ker = nullspace(np.vstack([_equivariance_block(R) for R in owner.generators(tol)]), tol)
        return EquivariantFamily(basis=read_only(ker.T.reshape(-1, 14, 21)))

    return space.isotropy_result("family", tol, solve)


def torsion_of_map(space: HomogeneousSpaceInstance, lam: np.ndarray) -> TorsionTensor:
    """Torsion of an arbitrary connection map (stack of so(14) matrices):
    T(X, Y) = Lambda(X)Y - Lambda(Y)X - [X, Y]_m, as read-only arrays."""
    t12 = read_only(np.einsum("ikj->kij", lam) - np.einsum("jki->kij", lam) - np.einsum("ijk->kij", space.pm))
    return TorsionTensor(t12=t12, t3=np.einsum("kij->ijk", t12))


def torsion(conn: InvariantConnection) -> TorsionTensor:
    return conn._torsion


def curvature_of_map(space: HomogeneousSpaceInstance, lam: np.ndarray) -> np.ndarray:
    """R4[i, j] = R(K_i, K_j) = [Lambda(K_i), Lambda(K_j)] - Lambda([K_i, K_j]_m)
    - rho([K_i, K_j]_h), an so(14) matrix acting on frame coordinates; read-only."""
    comm = np.einsum("iab,jbc->ijac", lam, lam)
    comm = comm - np.swapaxes(comm, 0, 1)
    lam_m = np.einsum("ijk,kab->ijab", space.pm, lam)
    rho_h = np.einsum("ijr,rab->ijab", space.ph, space.iso)
    return read_only(comm - lam_m - rho_h)


def curvature(conn: InvariantConnection) -> np.ndarray:
    return conn._curvature


def levi_civita(space: HomogeneousSpaceInstance) -> np.ndarray:
    """Connection map of the Levi-Civita connection,
    Lambda(X)Y = [X,Y]_m/2 + U(X,Y)  with
    2 g(U(X,Y), Z) = g([Z,X]_m, Y) + g(X, [Z,Y]_m)."""
    pm = space.pm
    lam = 0.5 * np.einsum("ijk->ikj", pm)
    lam += 0.5 * (np.einsum("kij->ikj", pm) + np.einsum("kji->ikj", pm))
    return lam


def _rho_coords(stack: np.ndarray) -> np.ndarray:
    """(14, 21) rho coordinates of the rho(sp3) part of each matrix of a
    (14, 14, 14) stack; the rho basis is orthonormal for -tr/4."""
    return -0.25 * np.einsum("jkl,alk->ja", stack, sp3.load().rho)


def _pr_m(stack: np.ndarray) -> np.ndarray:
    """The m part of each matrix of a (14, 14, 14) stack."""
    return stack - np.einsum("jb,bkl->jkl", _rho_coords(stack), sp3.load().rho)


def _three_form(v: np.ndarray) -> np.ndarray:
    """The antisymmetric (14, 14, 14) array of a 3-form given over the
    increasing triples; slice l is the matrix of e_l _| T."""
    slot, row, col, sign = reps.theta_index(14)
    t3 = np.zeros((14, 14, 14))
    t3[slot, row, col] = sign * v
    t3[slot, col, row] = -sign * v
    return t3


def _theta_t(stack: np.ndarray) -> np.ndarray:
    """Theta^T of a stack of m matrices, over the increasing triples
    (Theta itself is ``_pr_m(_three_form(v))``)."""
    slot, row, col, sign = reps.theta_index(14)
    return np.sum(sign * stack[slot, row, col], axis=0)


# (Theta^T Theta)^-1 as the cubic in Theta^T Theta that inverts its four
# eigenvalues 1/2, 3/2, 5/2, 3 (Lagrange interpolation of 1/x), highest first
_INVERSE_CUBIC = (-8 / 45, 4 / 3, -154 / 45, 17 / 5)


def characteristic_connection(space: HomogeneousSpaceInstance,
                              tol: ToleranceProfile = DEFAULT_TOL) -> InvariantConnection:
    """The unique invariant connection with image in rho(sp3) and totally
    antisymmetric torsion T.

    Its map is Lambda = Lambda_LC - T/2, so T/2 solves Theta(T/2) = Gamma,
    the intrinsic torsion Gamma = pr_m(Lambda_LC).  Theta is injective, so
    T/2 = (Theta^T Theta)^-1 Theta^T Gamma, the inverse applied as a cubic
    in Theta^T Theta by Horner's rule.  Raises Infeasible when the residual
    ||Theta(T/2) - Gamma|| shows Gamma outside the image of Theta.  The
    residual and the round-off clamp of the coefficients are measured
    against ||pm||, which scales with both under a uniform metric scaling.
    """
    lc = levi_civita(space)
    gamma = _pr_m(lc)
    rhs = _theta_t(gamma)
    half_t = _INVERSE_CUBIC[0] * rhs
    for c in _INVERSE_CUBIC[1:]:
        half_t = _theta_t(_pr_m(_three_form(half_t))) + c * rhs
    half_t3 = _three_form(half_t)
    resid = float(np.linalg.norm(_pr_m(half_t3) - gamma))
    pnorm = float(np.linalg.norm(space.pm))
    if resid > 1e3 * tol.residual_tol * pnorm:
        raise Infeasible(f"{space.space_id}: no skew-torsion member (residual {resid:.3e})")
    L = _rho_coords(lc - half_t3)
    L[np.abs(L) < 1e-12 * pnorm] = 0.0
    return InvariantConnection(space=space, lambda_coeffs=read_only(L))


def nabla_torsion(lam: np.ndarray, t12: np.ndarray) -> np.ndarray:
    """(nabla_V T)(X, Y) over all frame directions: nt[v, k, i, j]."""
    return (
        np.einsum("vkl,lij->vkij", lam, t12)
        - np.einsum("vli,klj->vkij", lam, t12)
        - np.einsum("vlj,kil->vkij", lam, t12)
    )


def torsion_is_parallel(conn: InvariantConnection):
    """(flag, max |nabla T| / (||pm|| ||T||)).

    Under a uniform metric scaling by s the bracket table pm and T scale
    like s^(-1/2) and nabla T like s^(-1), so both tests are scale-free:
    T vanishes (and is parallel) when ||T|| <= _PARALLEL_REL ||pm||, and is
    parallel when the ratio is <= _PARALLEL_REL."""
    T = torsion(conn)
    tnorm = float(np.sqrt(T.norm2_increasing))
    pnorm = float(np.linalg.norm(conn.space.pm))
    if tnorm <= _PARALLEL_REL * pnorm:
        return True, 0.0
    nt = nabla_torsion(conn.so_matrices(), T.t12)
    ratio = float(np.max(np.abs(nt)) / (pnorm * tnorm))
    return ratio <= _PARALLEL_REL, ratio


def classify_type(t3: np.ndarray, tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Squared norms of the 3-form over the Casimir eigenspaces of the
    3-form module; the keys are the (integer) Casimir eigenvalues."""
    skew_defect = max(
        float(np.max(np.abs(t3 + np.swapaxes(t3, 1, 2)))),
        float(np.max(np.abs(t3 + np.swapaxes(t3, 0, 1)))),
    )
    scale = max(float(np.max(np.abs(t3))), 1.0)
    if skew_defect > 1e3 * tol.residual_tol * scale:
        raise NotSkew(f"tensor is not a 3-form (defect {skew_defect:.3e})")
    v = t3[tuple(np.array(reps.triples(14)).T)]
    return {
        round(ev): float(np.linalg.norm(basis.T @ v) ** 2)
        for ev, _, basis in reps.lambda3_decomposition(tol).parts
    }


def holonomy_algebra(
    conn: InvariantConnection, tol: ToleranceProfile = DEFAULT_TOL
) -> HolonomyResult:
    """Nested-bracket closure of the curvature span: seed with the
    R(K_i, K_j), i < j, then close under bracketing with the image of
    Lambda until the rank stabilizes.  The basis is kept as orthonormal
    pair coordinates (``reps.pack_so``).  A round skips the SVD of
    S = [on, new] when r = new - on on^T new has ||r||_F <= rank_tol and
    rank_tol ||S||_F < 1 - rank_tol: as on is orthonormal, the SVD would
    then keep sigma_k(S) >= 1 - ||r|| and drop sigma_(k+1)(S) <= ||r||."""
    lam = conn.so_matrices()
    on = orthonormal_columns(reps.pack_so(curvature(conn)[np.triu_indices(14, 1)], 14).T, tol)
    basis = reps.unpack_so(on.T, 14)
    for _ in range(91):
        new = reps.pack_so((lam[:, None] @ basis - basis @ lam[:, None]).reshape(-1, 14, 14), 14).T
        norm_s = np.sqrt(on.shape[1] + np.linalg.norm(new) ** 2)
        if (np.linalg.norm(new - on @ (on.T @ new)) <= tol.rank_tol
                and tol.rank_tol * norm_s < 1 - tol.rank_tol):
            break
        grown = orthonormal_columns(np.hstack([on, new]), tol)
        if grown.shape[1] == on.shape[1]:
            break
        on, basis = grown, reps.unpack_so(grown.T, 14)
    return HolonomyResult(basis=basis, dim=len(basis), label=_holonomy_label(on, tol))


def _holonomy_label(on: np.ndarray, tol: ToleranceProfile) -> str:
    """Name of the smallest listed subalgebra of rho(sp3) that holds the
    basis, given as (pairs, dim) pair coordinates."""
    rho = reps.pack_so(sp3.load().rho, 14)
    dim = on.shape[1]

    def inside(target_idx):
        Ton = orthonormal_columns(rho[list(target_idx)].T, tol)
        resid = np.linalg.norm(on - Ton @ (Ton.T @ on), axis=0)
        scale = np.maximum(np.linalg.norm(on, axis=0), 1.0)
        return bool(np.all(resid <= 1e3 * tol.residual_tol * scale))

    if dim <= 3 and inside([8, 9, 20]):
        return "torus"
    if dim == 10 and inside(range(10)):
        return "sp2"
    if dim == 11 and inside(list(range(10)) + [18, 19, 20]):
        return "sp2+w1"
    if dim == 21 and inside(range(21)):
        return "sp3"
    return f"other({dim})" if not inside(range(21)) else f"sp3-subalgebra({dim})"


def parallel_vector_fields(conn: InvariantConnection, holonomy: HolonomyResult,
                           tol: ToleranceProfile = DEFAULT_TOL):
    """Frame vectors killed by both the holonomy algebra of ``conn`` (as
    ``holonomy_algebra`` returns it) and the isotropy, together with the
    2-forms obtained by contracting them into the torsion.

    Returns (vectors as columns, list of 14x14 antisymmetric 2-forms).
    """
    mats = np.concatenate([holonomy.basis, conn.space.iso])
    vecs = nullspace(mats.reshape(-1, 14), tol)
    T = torsion(conn)
    omegas = [np.einsum("i,ijk->jk", v, T.t3) for v in vecs.T]
    return vecs, omegas
