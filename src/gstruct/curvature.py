"""Curvature and Ricci tensors of invariant connections and of the
Levi-Civita connection, scalar curvatures, and the Einstein defect.

The curvature of an invariant connection given by a map Lambda is
R(X, Y) = [Lambda(X), Lambda(Y)] - Lambda([X,Y]_m) - rho([X,Y]_h): in rho
coordinates, (14, 14, 21), for a connection with image in rho(sp3)
(``InvariantConnection.curvature``); the Levi-Civita Ricci tensor is contracted
from its map without forming R; both are certified end to end by
reproducing the four closed-form Ricci tables of the catalog spaces.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import sp3
from .connections import InvariantConnection, levi_civita
from .errors import StructureViolation
from .linalg import DEFAULT_TOL, ToleranceProfile
from .spaces import HomogeneousSpaceInstance


class CurvatureReport(NamedTuple):
    ricci_conn: np.ndarray  # 14x14, characteristic connection (or None)
    ricci_riem: np.ndarray  # 14x14, Levi-Civita
    scal_conn: float
    scal_riem: float
    einstein_defect: float


def ricci_connection(conn: InvariantConnection) -> np.ndarray:
    """Ric[j, k] = sum_(i, c) R[i, j, c] rho_c[i, k] of the cached curvature R."""
    rho = sp3.load().rho
    return conn.curvature.transpose(1, 0, 2).reshape(14, -1) @ rho.transpose(1, 0, 2).reshape(-1, 14)


def _identity_route(conn: InvariantConnection, ric_conn: np.ndarray) -> np.ndarray:
    """Ric^g = Ric^conn + (1/4) sum_i g(T(X,K_i), T(Y,K_i))."""
    t = conn.torsion.t12.transpose(1, 0, 2).reshape(14, -1)
    return ric_conn + 0.25 * (t @ t.T)


def ricci_riemannian(space: HomogeneousSpaceInstance) -> np.ndarray:
    """The Levi-Civita Ricci tensor Ric[j, b] = sum_i R(K_i, K_j)[i, b], with
    R(K_i, K_j) = [L_i, L_j] - sum_k pm[i, j, k] L_k - sum_r ph[i, j, r] iso_r."""
    lam = levi_civita(space)
    pm, ph = (t.transpose(1, 0, 2).reshape(14, -1) for t in (space.pm, space.ph))
    lam_k, iso_k = (t.transpose(1, 0, 2).reshape(-1, 14) for t in (lam, space.iso))
    return np.trace(lam) @ lam - lam.reshape(14, -1) @ lam.reshape(-1, 14) - pm @ lam_k - ph @ iso_k


def curvature_report(
    space: HomogeneousSpaceInstance,
    conn: InvariantConnection = None,
    tol: ToleranceProfile = DEFAULT_TOL,
) -> CurvatureReport:
    ric_g = ricci_riemannian(space)
    scal_g = float(np.trace(ric_g))
    if conn is not None:
        ric_c = ricci_connection(conn)
        scal_c = float(np.trace(ric_c))
        # against ||pm||^2, the size of the products that cancel in Ric_g (far smaller when beta << alpha)
        dev = np.max(np.abs(_identity_route(conn, ric_c) - ric_g))
        if tol.exceeds(dev, np.linalg.norm(space.pm) ** 2, 1e4):
            raise StructureViolation(f"Riemannian Ricci routes disagree by {dev:.3e}")
    else:
        ric_c, scal_c = None, float("nan")
    defect = float(np.linalg.norm(ric_g - (scal_g / 14.0) * np.eye(14)))
    return CurvatureReport(
        ricci_conn=ric_c,
        ricci_riem=ric_g,
        scal_conn=scal_c,
        scal_riem=scal_g,
        einstein_defect=defect,
    )
