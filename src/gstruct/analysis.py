"""The analysis of one homogeneous space at one metric, as in the paper: the
equivariant family, the characteristic connection, its torsion type and
holonomy, the Ricci curvatures, and the Dirac operator on invariant
spinors.  The CLI, the verification suite and the tests all run it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import connections as con
from . import curvature as curv
from . import spin as spin_mod
from .errors import Infeasible
from .linalg import DEFAULT_TOL, ToleranceProfile
from .spaces import HomogeneousSpaceInstance


@dataclass(frozen=True)
class Analysis:
    """Every stage's result for a built space (``spaces.build`` or
    ``spaces.assemble``), computed on first read and then kept: a stage
    nobody reads is never computed.  ``conn`` and the stages that need it
    are None when no family member has skew torsion; the curvature report
    and the invariant spinors exist without it."""

    space: HomogeneousSpaceInstance
    tol: ToleranceProfile = DEFAULT_TOL

    @cached_property
    def family(self) -> np.ndarray:
        return con.solve_equivariant(self.space, self.tol)

    @cached_property
    def conn(self) -> con.InvariantConnection:
        try:
            return con.characteristic_connection(self.space, self.tol)
        except Infeasible:
            return None

    @cached_property
    def torsion(self) -> con.TorsionTensor:
        return None if self.conn is None else self.conn.torsion

    @cached_property
    def parallel(self) -> tuple:
        """(flag, ratio) of ``connections.torsion_is_parallel``."""
        return None if self.conn is None else con.torsion_is_parallel(self.conn, self.tol)

    @cached_property
    def holonomy(self) -> con.HolonomyResult:
        return None if self.conn is None else con.holonomy_algebra(self.conn, self.tol)

    @cached_property
    def curvature(self) -> curv.CurvatureReport:
        return curv.curvature_report(self.space, self.conn, self.tol)

    @cached_property
    def spinors(self) -> spin_mod.SpinorSubspace:
        return spin_mod.invariant_spinors(self.space, self.tol)

    @cached_property
    def type_components(self) -> dict:
        return None if self.conn is None else con.classify_type(
            self.torsion.t3, np.linalg.norm(self.space.pm), self.tol)

    @cached_property
    def dirac(self) -> spin_mod.DiracReport:
        """None without a characteristic connection or invariant spinors."""
        if self.conn is None or self.spinors.dim == 0:
            return None
        return spin_mod.dirac_on_invariants(self.conn, self.spinors, self.tol)

    @cached_property
    def estimates(self) -> spin_mod.Estimates:
        """None unless there is a Dirac report and the torsion is parallel."""
        if self.dirac is None or not self.parallel[0]:
            return None
        return spin_mod.eigenvalue_estimates(self.dirac, self.curvature.scal_riem, self.parallel, self.tol)
