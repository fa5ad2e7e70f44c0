"""The analysis of one catalog space at one metric, as in the paper: the
equivariant family, the characteristic connection, its torsion type and
holonomy, the Ricci curvatures, and the Dirac operator on invariant
spinors.  The CLI, the verification suite and the tests all run it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import connections as con
from . import curvature as curv
from . import spaces
from . import spin as spin_mod
from .errors import Infeasible
from .linalg import DEFAULT_TOL, ToleranceProfile


@dataclass(frozen=True)
class Analysis:
    """Every stage's result.  ``conn`` and the stages that need it are None
    when no family member has skew torsion; a stage switched off is None."""

    space: spaces.HomogeneousSpaceInstance
    family: con.EquivariantFamily
    conn: con.InvariantConnection = None
    torsion: con.TorsionTensor = None
    parallel: tuple = None  # (flag, ratio) of con.torsion_is_parallel
    type_components: dict = None
    holonomy: con.HolonomyResult = None
    curvature: curv.CurvatureReport = None
    spinors: spin_mod.SpinorSubspace = None
    dirac: spin_mod.DiracReport = None


def analyze(space_id: str, params: spaces.MetricParams, tol: ToleranceProfile = DEFAULT_TOL, *,
            holonomy: bool = True, curvature: bool = True, spin: bool = True) -> Analysis:
    """Run each stage once.  The curvature report and the invariant spinors
    exist with or without a characteristic connection; the eigenvalue
    estimates are filled in only for parallel torsion with curvature on."""
    space = spaces.build(space_id, params, tol)
    family = con.solve_equivariant(space, tol)
    try:
        conn = con.characteristic_connection(space, family, tol)
    except Infeasible:
        conn = None
    out = {"space": space, "family": family, "conn": conn}
    if conn is not None:
        T = con.torsion(conn)
        out.update(torsion=T, parallel=con.torsion_is_parallel(conn),
                   type_components=con.classify_type(T.t3, tol))
        if holonomy:
            out["holonomy"] = con.holonomy_algebra(conn, tol)
    if curvature:
        out["curvature"] = curv.curvature_report(space, conn, tol)
    if spin:
        sub = out["spinors"] = spin_mod.invariant_spinors(space, tol)
        if conn is not None and sub.dim > 0:
            drep = spin_mod.dirac_on_invariants(space, conn, tol, sub=sub)
            if out["parallel"][0] and curvature:
                drep = spin_mod.eigenvalue_estimates(
                    drep, out["curvature"].scal_riem, parallel_checked=True, tol=tol
                )
            out["dirac"] = drep
    return Analysis(**out)
