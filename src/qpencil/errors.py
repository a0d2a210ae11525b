"""Exception types raised across the package.

Validation errors signal malformed or inconsistent input; numerical errors
signal a computation that could not be completed reliably.  The CLI maps the
two families to distinct exit codes.
"""

from __future__ import annotations


class QPencilError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QPencilError):
    """Input violates a structural precondition."""


class NumericalError(QPencilError):
    """A numerical procedure failed or would return garbage."""


class DuplicateIndexError(ValidationError):
    """The same nonzero index appears twice in raw spectral data."""


class SignConflictError(ValidationError):
    """Equal eigenvalues at opposite-sign indices cannot form one consecutive group."""


class IndexMismatchError(ValidationError):
    """Two spectral data sets cannot be aligned index-by-index."""


class GridMismatchError(ValidationError):
    """Two grid functions live on different grids."""


class NegativeDeltaError(ValidationError):
    """A splitting parameter must be nonnegative."""


class NonFiniteInputError(ValidationError):
    """Potential values or spectral parameters contain NaN/Inf."""


class OrderTooHighError(ValidationError):
    """A derivative order beyond the supported maximum was requested."""


class RootNotConvergedError(NumericalError):
    """Root search failed."""


class WindingAmbiguousError(NumericalError):
    """Argument-principle winding count is unstable under contour refinement."""


class PoleTooCloseError(NumericalError):
    """A residue contour cannot separate an eigenvalue group from the rest."""


class ContourTouchesPoleError(NumericalError):
    """A pole of the rational Weyl difference lies (numerically) on the contour."""


class SingularSystemError(NumericalError):
    """The per-node linear system is numerically singular."""

    def __init__(self, message: str, x: float | None = None, cond: float | None = None):
        super().__init__(message)
        self.x = x
        self.cond = cond


class DegenerateSeriesError(NumericalError):
    """1 + (leading series)^2 vanishes, and the q1 recovery divides by it."""
