"""Spectral solver for structured matrix polynomial equations.

Equations in one or several unknown matrices, with all unknowns on one
side of the coefficients, are solved through the spectrum of the
associated polynomial matrix: its eigenvalues carry the candidate
eigenvalues, null vectors there carry the shared eigenvectors, and an
invertible stack of those vectors reconstructs every unknown as
X_s = T F_s T^{-1}.  One unknown takes its eigenvalues from the roots of
the determinant polynomial; several take them from a block companion
eigensolve of each univariate slice.  Planted instances provide ground
truth for testing.
"""

from .errors import (
    ConvergenceFailure,
    DegreeZero,
    DimensionMismatch,
    DocumentError,
    FactorCheckFailed,
    IdenticallySingular,
    InsufficientRoots,
    InvalidSetting,
    MatPolyEqError,
    NoPointsFound,
    NonFiniteInput,
    NotASolution,
    NotSimultaneouslyDiagonalizable,
    SingularMatrix,
    TransformSingular,
)
from .instances import PlantedInstance, plant_instance
from .polymatrix import (
    MatrixPolynomial,
    ScalarPolynomial,
    VarietySample,
    det_poly_univariate,
    evaluate,
    fix_all_but,
    null_vectors_at,
    poly_roots,
    sample_variety,
    total_degree,
)
from .solver import (
    Diagnostic,
    Orientation,
    SandwichProbeRow,
    SolutionFamily,
    SolveResult,
    SolverConfig,
    StructuredEquation,
    commutation_check,
    eigen_candidates,
    equation_lhs,
    family_from_points,
    quotient_factor,
    sandwich_probe,
    solve_multivariate,
    solve_univariate,
    verify_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "DegreeZero",
    "Diagnostic",
    "DimensionMismatch",
    "DocumentError",
    "FactorCheckFailed",
    "IdenticallySingular",
    "InsufficientRoots",
    "InvalidSetting",
    "MatPolyEqError",
    "MatrixPolynomial",
    "NoPointsFound",
    "NonFiniteInput",
    "NotASolution",
    "NotSimultaneouslyDiagonalizable",
    "Orientation",
    "PlantedInstance",
    "SandwichProbeRow",
    "ScalarPolynomial",
    "SingularMatrix",
    "SolutionFamily",
    "SolveResult",
    "SolverConfig",
    "StructuredEquation",
    "TransformSingular",
    "VarietySample",
    "commutation_check",
    "det_poly_univariate",
    "eigen_candidates",
    "equation_lhs",
    "evaluate",
    "family_from_points",
    "fix_all_but",
    "null_vectors_at",
    "plant_instance",
    "poly_roots",
    "quotient_factor",
    "sample_variety",
    "sandwich_probe",
    "solve_multivariate",
    "solve_univariate",
    "total_degree",
    "verify_residual",
]
