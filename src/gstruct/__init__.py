"""Numerical workbench for invariant metric connections with skew torsion
on the 14-dimensional homogeneous spaces carrying a symplectic frame
reduction: equivariant-connection solving, torsion and its type splitting,
holonomy, curvature, and Dirac spectra on invariant spinors.

Importing the package loads only ``errors``; each submodule and each name of
``__all__`` is imported on first use (PEP 562), so a command loads only the
modules it runs.
"""

from .errors import (BadDimension, BadParams, ConventionMismatch, DimensionMismatch, GstructError, Infeasible,
                     NoInvariantSpinors, NotAnIdeal, NotAntisymmetric, NotClosed, NotReductive, NotSelfAdjoint, NotSkew,
                     StructureViolation, TorsionNotParallel)

__version__ = "0.1.0"

__all__ = [
    "ALIASES",
    "DEFAULT_TOL",
    "MetricParams",
    "SPACE_IDS",
    "ToleranceProfile",
    "build",
    "connections",
    "curvature",
    "eig_selfadjoint",
    "fixtures",
    "groups",
    "liealg",
    "linalg",
    "nullspace",
    "rank",
    "reps",
    "sp3",
    "spaces",
    "spin",
]

_SUBMODULES = {"analysis", "cli", "connections", "curvature", "groups", "liealg", "linalg", "reps", "sp3", "spaces",
               "spin", "verify"}
# each name of ``__all__`` that is not a submodule, by the submodule that defines it
_HOMES = {**dict.fromkeys(("DEFAULT_TOL", "ToleranceProfile", "eig_selfadjoint", "nullspace", "rank"), "linalg"),
          **dict.fromkeys(("ALIASES", "SPACE_IDS", "MetricParams", "build", "fixtures"), "spaces")}


def __getattr__(name):
    """A submodule or a name of ``__all__``, imported on first use and then
    kept as a package attribute, so each name is looked up here once."""
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it on the package
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value
