"""Exception types shared across the package."""


class GstructError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GstructError, ValueError):
    pass


class BadDimension(GstructError, ValueError):
    pass


class BadParams(GstructError, ValueError):
    pass


class NotSelfAdjoint(GstructError, ValueError):
    pass


class NotClosed(GstructError, ValueError):
    """A purported Lie algebra basis is not closed under the bracket."""


class NotReductive(GstructError, ValueError):
    """[h, m] does not stay inside m."""


class NotAnIdeal(GstructError, ValueError):
    pass


class NotSkew(GstructError, ValueError):
    pass


class NotAntisymmetric(GstructError, ValueError):
    pass


class StructureViolation(GstructError, RuntimeError):
    """An internal invariant of the computation failed (CLI exit code 3)."""


class ConventionMismatch(GstructError, RuntimeError):
    """Transcribed data matches neither the derived matrix nor its transpose."""


class Infeasible(GstructError, RuntimeError):
    """No connection with totally skew torsion exists at these parameters."""


class NoInvariantSpinors(GstructError, RuntimeError):
    pass


class TorsionNotParallel(GstructError, RuntimeError):
    """The eigenvalue estimates require parallel characteristic torsion."""
