"""Exception types shared across the package."""

from __future__ import annotations


class MatPolyEqError(Exception):
    """Base class for library errors; may carry structured diagnostics."""

    def __init__(self, message: str = "", diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics) if diagnostics else []


class DimensionMismatch(MatPolyEqError, ValueError):
    """Operands have incompatible shapes, arities, or orientations."""


class NonFiniteInput(MatPolyEqError, ValueError):
    """NaN or infinite entries, in an input or in a computed fold or determinant."""


class SingularMatrix(MatPolyEqError, ArithmeticError):
    """Smallest singular value fell at or below the rank tolerance."""


class ConvergenceFailure(MatPolyEqError, ArithmeticError):
    """Eigenvalue iteration hit its cap without converging."""


class IdenticallySingular(MatPolyEqError):
    """The determinant of the polynomial matrix is the zero polynomial."""


class DegreeZero(MatPolyEqError):
    """Root finding was asked for the roots of a constant polynomial."""


class InsufficientRoots(MatPolyEqError):
    """The candidate eigenvalue pool is smaller than the matrix dimension."""


class NoPointsFound(MatPolyEqError):
    """Variety sampling produced no usable zeros."""


class TransformSingular(MatPolyEqError):
    """No invertible eigenvector stack was assembled within the retry budget."""


class NotASolution(MatPolyEqError):
    """A candidate failed the residual test, as a family's unknowns or as a matrix to factor."""


class FactorCheckFailed(MatPolyEqError):
    """The sampled quotient identity exceeded its tolerance."""


class NotSimultaneouslyDiagonalizable(MatPolyEqError):
    """No shared eigenvector basis exists within tolerance."""


class InvalidSetting(MatPolyEqError, ValueError):
    """A setting out of range: tolerance, class cap, side, count, seed, --fix, --pivot, plant n."""


class DocumentError(MatPolyEqError, ValueError):
    """A JSON document failed validation; the message names the field path."""
