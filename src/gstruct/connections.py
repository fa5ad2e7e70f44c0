"""Invariant metric connections with image in the symplectic subalgebra:
the equivariant-family solver, torsion and curvature and the covariant
derivative of torsion, the Levi-Civita connection and the unique
skew-torsion (characteristic) connection, intrinsic-type classification,
and holonomy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import reps, sp3
from .errors import Infeasible, NotSkew
from .linalg import DEFAULT_TOL, ToleranceProfile, nullspace_entries, orthonormal_columns, read_only
from .spaces import HomogeneousSpaceInstance


@dataclass(frozen=True)
class InvariantConnection:
    """The map Lambda of an invariant connection.  Its so(14) stack, torsion,
    ad(Lambda(K_i)) and curvature depend on these two fields alone, so each
    is computed once, on first read, and handed out read-only."""

    space: HomogeneousSpaceInstance
    lambda_coeffs: np.ndarray  # (14, 21) over the A basis

    @cached_property
    def stack(self) -> np.ndarray:
        """(14, 14, 14): entry [j] is the so(14) matrix of Lambda(K_j)."""
        return read_only((self.lambda_coeffs @ sp3.load().rho.reshape(21, -1)).reshape(14, 14, 14))

    @cached_property
    def torsion(self) -> TorsionTensor:
        return torsion_of_map(self.space, self.stack)

    @cached_property
    def ad(self) -> np.ndarray:
        """(14, 21, 21): [Lambda(K_i), rho_b] = sum_c ad[i, b, c] rho_c."""
        return read_only((self.lambda_coeffs @ sp3.structure_constants().reshape(21, -1)).reshape(14, 21, 21))

    @cached_property
    def curvature(self) -> np.ndarray:
        """(14, 14, 21): the curvature R(K_i, K_j) of this map, in rho coordinates."""
        space, L = self.space, self.lambda_coeffs
        rest = space.pm.reshape(-1, 14) @ L + space.ph.reshape(196, -1) @ _rho_coords(space.iso)
        return read_only(L @ self.ad - rest.reshape(14, 14, 21))

    def nonzero_entries(self):
        """[(K index, A index, coefficient)] with 1-based indices."""
        L = self.lambda_coeffs
        return [(int(j) + 1, int(a) + 1, float(L[j, a])) for j, a in np.argwhere(L != 0)]


class TorsionTensor(NamedTuple):
    t12: np.ndarray  # t12[k, i, j]: K_k component of T(K_i, K_j)
    t3: np.ndarray  # t3[i, j, k] = g(T(K_i, K_j), K_k) = t12[k, i, j]

    @property
    def norm2_increasing(self) -> float:
        """Sum of squared coefficients over strictly increasing triples."""
        slot, row, col, _ = reps.theta_index(len(self.t3))  # row 0: the triples i < j < k in order
        return float(np.sum(self.t3[slot[0], row[0], col[0]] ** 2))


class HolonomyResult(NamedTuple):
    basis: np.ndarray  # (dim, 14, 14) antisymmetric, orthonormal in pair coordinates
    dim: int
    label: str


def _equivariance_entries(iso: np.ndarray):
    """(rows, cols, vals, shape) of the equivariance system R^T (x) I_21 -
    I_14 (x) m^T over the generators R = iso[g]: row g*294 + (j, c) and
    column (k, a) hold R[k, j] delta_ac - delta_jk m[a, c], with m the
    matrix of [R, .] on the rho basis."""
    R21 = sp3.load().rho
    br = iso[:, None] @ R21 - R21 @ iso[:, None]  # [R, rho_a]
    m = br.reshape(len(iso), 21, -1) @ R21.transpose(0, 2, 1).reshape(21, -1).T / (-4.0)  # <., .> = -tr(..)/4
    g, k, j = np.nonzero(iso)  # R[k, j] at rows (g, j, e), columns (k, e)
    h, a, c = np.nonzero(m)  # -m[a, c] at rows (h, l, c), columns (l, a)
    e, l = np.arange(21)[:, None], np.arange(14)[:, None]
    rows = np.r_[(294 * g + 21 * j + e).ravel(), (294 * h + 21 * l + c).ravel()]
    cols = np.r_[(21 * k + e).ravel(), (21 * l + a).ravel()]
    return rows, cols, np.r_[np.tile(iso[g, k, j], 21), np.tile(-m[h, a, c], 14)], (294 * len(iso), 294)


def solve_equivariant(space: HomogeneousSpaceInstance, tol: ToleranceProfile = DEFAULT_TOL) -> np.ndarray:
    """All isotropy-equivariant maps of the tangent space into rho(sp3), as
    a read-only (dim, 14, 21) stack of coefficients over the tangent/A
    bases: the nullspace of the infinitesimal equivariance system
    Lambda(rho(h) X) = [rho(h), Lambda(X)].

    The system of the isotropy generators ``space.iso`` is solved from its
    entries; the family depends on the isotropy alone, so every build of a
    catalog space shares it (``isotropy_result``) and a process solves it
    once per space."""
    def solve():
        return read_only(nullspace_entries(*_equivariance_entries(space.iso), tol).T.reshape(-1, 14, 21))

    return space.isotropy_result("family", tol, solve)


def torsion_of_map(space: HomogeneousSpaceInstance, lam: np.ndarray) -> TorsionTensor:
    """Torsion of an arbitrary connection map (stack of so(14) matrices):
    T(X, Y) = Lambda(X)Y - Lambda(Y)X - [X, Y]_m, as read-only arrays."""
    t12 = read_only(lam.transpose(1, 0, 2) - lam.transpose(1, 2, 0) - space.pm.transpose(2, 0, 1))
    return TorsionTensor(t12=t12, t3=t12.transpose(1, 2, 0))


def levi_civita(space: HomogeneousSpaceInstance) -> np.ndarray:
    """Connection map of the Levi-Civita connection,
    Lambda(X)Y = [X,Y]_m/2 + U(X,Y)  with
    2 g(U(X,Y), Z) = g([Z,X]_m, Y) + g(X, [Z,Y]_m)."""
    pm = space.pm
    lam = 0.5 * pm.transpose(0, 2, 1)
    lam += 0.5 * (pm.transpose(1, 0, 2) + pm.transpose(2, 0, 1))
    return lam


def _rho_coords(stack: np.ndarray) -> np.ndarray:
    """(k, 21) rho coordinates of the rho(sp3) part of each matrix of a
    (k, 14, 14) stack; the rho basis is orthonormal for -tr/4."""
    return 0.25 * stack.reshape(len(stack), -1) @ sp3.load().rho.reshape(21, -1).T


def _pr_m(stack: np.ndarray) -> np.ndarray:
    """The m part of each matrix of a (14, 14, 14) stack."""
    return stack - (_rho_coords(stack) @ sp3.load().rho.reshape(21, -1)).reshape(14, 14, 14)


def _three_form(v: np.ndarray) -> np.ndarray:
    """The antisymmetric (14, 14, 14) array of a 3-form given over the
    increasing triples; slice l is the matrix of e_l _| T."""
    slot, row, col, sign = reps.theta_index(14)
    t3 = np.zeros((14, 14, 14))
    t3[slot, row, col] = sign * v
    t3[slot, col, row] = -sign * v
    return t3


def _theta_t(stack: np.ndarray) -> np.ndarray:
    """Theta^T of a stack of m matrices over the increasing triples, for any
    antisymmetric stack its full contraction (Theta is ``_pr_m(_three_form(v))``)."""
    slot, row, col, sign = reps.theta_index(14)
    return np.sum(sign * stack[slot, row, col], axis=0)


def _rho_part(x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """N x = ``_rho_coords(_three_form(x)).ravel()``, or N^T x, from ``reps.theta_rho_entries``."""
    rows, cols, vals = reps.theta_rho_entries()
    rows, cols = (cols, rows) if transpose else (rows, cols)
    return np.bincount(rows, vals * x[cols], 364 if transpose else 294)


# row k: the coefficients, constant term first, of the cubic that is 1 at the
# eigenvalue lambda_k of Theta^T Theta and 0 at the other three
_LAMBDAS = np.array([lam for lam, _, _ in reps.LAMBDA3_SPECTRUM])
_LAGRANGE = np.linalg.inv(np.vander(_LAMBDAS, increasing=True)).T


def _spectral_parts(v: np.ndarray) -> np.ndarray:
    """(4, 364) parts P_k v of a 3-form v over the increasing triples, one per
    row of ``reps.LAMBDA3_SPECTRUM``: those cubics in G = Theta^T Theta applied
    to the Krylov powers v, Gv, G^2 v, G^3 v, each G w = 3 w - 2 N^T N w (``_rho_part``)."""
    krylov = [v]
    for _ in range(3):
        krylov.append(3.0 * krylov[-1] - 2.0 * _rho_part(_rho_part(krylov[-1]), transpose=True))
    return _LAGRANGE @ np.array(krylov)


def characteristic_connection(space: HomogeneousSpaceInstance,
                              tol: ToleranceProfile = DEFAULT_TOL) -> InvariantConnection:
    """The unique invariant connection with image in rho(sp3) and totally
    antisymmetric torsion T.

    Its map is Lambda = Lambda_LC - T/2, so T/2 solves Theta(T/2) = Gamma,
    the intrinsic torsion Gamma = pr_m(Lambda_LC).  Theta is injective, so
    T/2 = (Theta^T Theta)^-1 Theta^T Gamma = sum_k P_k Theta^T Gamma / lambda_k
    (``_spectral_parts``); Theta^T Gamma = _theta_t(Lambda_LC) - 2 N^T rho(Lambda_LC)
    and rho(Lambda) = rho(Lambda_LC) - N(T/2) (``_rho_part``).  Raises Infeasible
    when ||Theta(T/2) - Gamma|| = ||pr_m(T/2 - Lambda_LC)|| shows Gamma outside
    the image of Theta.  That residual and the round-off clamp of the coefficients
    are measured against ||pm||, which scales with both under a uniform metric scaling.
    """
    lc = levi_civita(space)
    lc_rho = _rho_coords(lc)
    half = (1 / _LAMBDAS) @ _spectral_parts(_theta_t(lc) - 2.0 * _rho_part(lc_rho.ravel(), transpose=True))
    resid = float(np.linalg.norm(_pr_m(_three_form(half) - lc)))
    pnorm = float(np.linalg.norm(space.pm))
    if tol.exceeds(resid, pnorm):
        raise Infeasible(f"{space.space_id}: no skew-torsion member (residual {resid:.3e})")
    L = lc_rho - _rho_part(half).reshape(14, 21)
    L[np.abs(L) < 1e-12 * pnorm] = 0.0
    return InvariantConnection(space=space, lambda_coeffs=read_only(L))


def _max_nabla_t(lam: np.ndarray, t3: np.ndarray) -> float:
    """max |nabla_V T| over the directions v and the triples i < j < k, for
    antisymmetric lam[v] and a 3-form t3: nabla_V T is a 3-form, -(X[v, i, j, k]
    + X[v, j, k, i] + X[v, k, i, j]) with X[v, i, j, k] = sum_l lam[v, l, i] t3[l, j, k]."""
    X = (lam.transpose(0, 2, 1).reshape(196, 14) @ t3.reshape(14, 196)).reshape(14, 14, 14, 14)
    i, j, k = reps.theta_index(14)[0]  # row 0: the triples i < j < k in order
    return float(np.max(np.abs(X[:, i, j, k] + X[:, j, k, i] + X[:, k, i, j])))


def torsion_is_parallel(conn: InvariantConnection, tol: ToleranceProfile = DEFAULT_TOL):
    """(flag, max |nabla T| / (||pm|| ||T||)), the max of ``_max_nabla_t``.

    Under a uniform metric scaling by s the bracket table pm and T scale
    like s^(-1/2) and nabla T like s^(-1), so both tests are scale-free:
    T vanishes (and is parallel) unless it exceeds ||pm||, and nabla T
    unless the ratio exceeds 1, both at factor 100."""
    T = conn.torsion
    tnorm = float(np.sqrt(T.norm2_increasing))
    pnorm = float(np.linalg.norm(conn.space.pm))
    if not tol.exceeds(tnorm, pnorm, 100):
        return True, 0.0
    ratio = _max_nabla_t(conn.stack, T.t3) / (pnorm * tnorm)
    return not tol.exceeds(ratio, 1.0, 100), ratio


def classify_type(t3: np.ndarray, scale: float, tol: ToleranceProfile = DEFAULT_TOL) -> dict:
    """Squared norms ||P_k v||^2 of the spectral parts (``_spectral_parts``)
    of the 3-form, keyed by their (integer) Casimir eigenvalues.  The skew
    defect is measured against ``scale``, the size of the operands t3 came
    from: ||pm|| for a torsion, which may vanish up to round-off of it."""
    skew_defect = max(
        float(np.max(np.abs(t3 + np.swapaxes(t3, 1, 2)))),
        float(np.max(np.abs(t3 + np.swapaxes(t3, 0, 1)))),
    )
    if tol.exceeds(skew_defect, scale):
        raise NotSkew(f"tensor is not a 3-form (defect {skew_defect:.3e})")
    parts = _spectral_parts(t3[tuple(reps.theta_index(14)[0])])
    return {cas: float(np.linalg.norm(p) ** 2) for (_, cas, _), p in zip(reps.LAMBDA3_SPECTRUM, parts)}


def holonomy_algebra(
    conn: InvariantConnection, tol: ToleranceProfile = DEFAULT_TOL
) -> HolonomyResult:
    """Nested-bracket closure of the curvature span in rho coordinates: seed
    with the R(K_i, K_j), i < j, then close under ad(Lambda(K_i)) until the
    rank stabilizes.  On rho(sp3) the so(14) pair coordinates are sqrt(2)
    times an isometry of these, so the rank decisions are theirs.  A round
    skips the SVD of S = [on, new] when r = new - on on^T new has
    ||r||_F <= rank_tol and rank_tol ||S||_F < 1 - rank_tol: as on is
    orthonormal, the SVD would then keep sigma_k(S) >= 1 - ||r|| and drop
    sigma_(k+1)(S) <= ||r||.  No round runs once on spans rho(sp3), 21
    columns, and at most 21 run.  The basis is pair-orthonormal so(14) matrices."""
    on = orthonormal_columns(conn.curvature[np.triu_indices(14, 1)].T, tol)
    for _ in range(21):
        if on.shape[1] == 21:
            break
        new = (on.T @ conn.ad).reshape(-1, 21).T  # column (i, p): [Lambda(K_i), x_p]
        norm_s = np.sqrt(on.shape[1] + np.linalg.norm(new) ** 2)
        if (np.linalg.norm(new - on @ (on.T @ new)) <= tol.rank_tol
                and tol.rank_tol * norm_s < 1 - tol.rank_tol):
            break
        grown = orthonormal_columns(np.hstack([on, new]), tol)
        if grown.shape[1] == on.shape[1]:
            break
        on = grown
    basis = (on.T @ sp3.load().rho.reshape(21, -1)).reshape(-1, 14, 14) / np.sqrt(2.0)
    return HolonomyResult(basis=basis, dim=len(basis), label=_holonomy_label(on, tol))


def _holonomy_label(on: np.ndarray, tol: ToleranceProfile) -> str:
    """Name of the algebra h with orthonormal rho-coordinate basis ``on``:
    sp3 at dim 21, else by (dim h, dim [h, h], dim of its centre), which no
    conjugation in Sp(3) changes: torus (k, 0, k), sp2 (10, 10, 0), sp2+w1
    (11, 10, 1), sp3-subalgebra(dim) otherwise.  The ranks cut at rank_tol
    itself, as the basis has unit norm; a cut relative to the brackets
    would count round-off as rank on an abelian h."""
    dim = on.shape[1]
    if dim == 21:
        return "sp3"
    # br[p, q] = [x_p, x_q] in rho coordinates
    br = on.T @ (on.T @ sp3.structure_constants().reshape(21, -1)).reshape(dim, 21, 21)
    derived, ad_rank = (int(np.count_nonzero(np.linalg.svd(M, compute_uv=False) > tol.rank_tol))
                   for M in (br.reshape(dim * dim, 21), br.reshape(dim, dim * 21)))
    names = {(dim, 0, dim): "torus", (10, 10, 0): "sp2", (11, 10, 1): "sp2+w1"}
    return names.get((dim, derived, dim - ad_rank), f"sp3-subalgebra({dim})")
