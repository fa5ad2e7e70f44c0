"""The analysis of one catalog space at one metric, as in the paper: the
equivariant family, the characteristic connection, its torsion type and
holonomy, the Ricci curvatures, and the Dirac operator on invariant
spinors.  The CLI, the verification suite and the tests all run it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import connections as con
from . import curvature as curv
from . import spaces
from . import spin as spin_mod
from .errors import Infeasible
from .linalg import DEFAULT_TOL, ToleranceProfile


@dataclass(frozen=True)
class Analysis:
    """Every stage's result.  ``conn`` and the stages that need it are None
    when no family member has skew torsion; a stage switched off is None.
    The torsion type and the Dirac operator are computed on first access,
    so a caller that reads neither does not pay for them."""

    space: spaces.HomogeneousSpaceInstance
    family: con.EquivariantFamily
    tol: ToleranceProfile = DEFAULT_TOL
    conn: con.InvariantConnection = None
    torsion: con.TorsionTensor = None
    parallel: tuple = None  # (flag, ratio) of con.torsion_is_parallel
    holonomy: con.HolonomyResult = None
    curvature: curv.CurvatureReport = None
    spinors: spin_mod.SpinorSubspace = None

    @functools.cached_property
    def type_components(self) -> dict:
        return None if self.torsion is None else con.classify_type(
            self.torsion.t3, np.linalg.norm(self.space.pm), self.tol)

    @functools.cached_property
    def dirac(self) -> spin_mod.DiracReport:
        """The eigenvalue estimates are filled in only for parallel torsion
        with curvature on."""
        if self.conn is None or self.spinors is None or self.spinors.dim == 0:
            return None
        drep = spin_mod.dirac_on_invariants(self.conn, self.tol, sub=self.spinors)
        if self.parallel[0] and self.curvature is not None:
            drep = spin_mod.eigenvalue_estimates(drep, self.curvature.scal_riem, self.parallel, self.tol)
        return drep


def analyze(space_id: str, params: spaces.MetricParams, tol: ToleranceProfile = DEFAULT_TOL, *,
            holonomy: bool = True, curvature: bool = True, spin: bool = True) -> Analysis:
    """Run each stage once.  The curvature report and the invariant spinors
    exist with or without a characteristic connection."""
    space = spaces.build(space_id, params, tol)
    family = con.solve_equivariant(space, tol)
    try:
        conn = con.characteristic_connection(space, tol)
    except Infeasible:
        conn = None
    out = {"space": space, "family": family, "tol": tol, "conn": conn}
    if conn is not None:
        out.update(torsion=con.torsion(conn), parallel=con.torsion_is_parallel(conn, tol))
        if holonomy:
            out["holonomy"] = con.holonomy_algebra(conn, tol)
    if curvature:
        out["curvature"] = curv.curvature_report(space, conn, tol)
    if spin:
        out["spinors"] = spin_mod.invariant_spinors(space, tol)
    return Analysis(**out)
