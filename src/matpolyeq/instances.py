"""Planted instances: equations built around a known exact solution.

Planting draws co-diagonalizable unknowns and chooses the constant
coefficient so that the equation holds exactly.  Planted instances back the
round-trip tests of every solve path and the ``plant`` command.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSetting
from .polymatrix import MatrixPolynomial
from .solver import (
    SANDWICH_SLOTS,
    Orientation,
    StructuredEquation,
    equation_lhs,
)

#: Condition-number ceiling for planted transforms.
TRANSFORM_COND_CAP = 100.0
#: Minimum pairwise separation inside each planted eigenvalue diagonal.
EIGEN_SEPARATION = 0.1
_REJECTION_CAP = 1000


@dataclass(frozen=True)
class PlantedInstance:
    """An equation built to have known unknowns, transform, and spectra."""

    equation: StructuredEquation
    truth_unknowns: list[np.ndarray]
    truth_transform: np.ndarray
    truth_eigenvalues: list[np.ndarray]


def _draw_transform(rng: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(_REJECTION_CAP):
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(t) <= TRANSFORM_COND_CAP:
            return t
    raise InvalidSetting(f"could not draw a well-conditioned transform at n = {n}")


def _draw_eigenvalues(rng: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(_REJECTION_CAP):
        radii = rng.uniform(0.5, 2.0, size=n)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        vals = radii * np.exp(1j * angles)
        close = np.abs(vals[:, None] - vals) < EIGEN_SEPARATION
        np.fill_diagonal(close, False)
        if not close.any():
            return vals
    raise InvalidSetting(f"could not draw separated eigenvalues at n = {n}")


def _draw_integer_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    # all-zero draws would degenerate the instance; redraw them
    for _ in range(_REJECTION_CAP):
        a = rng.integers(-5, 6, size=(n, n)).astype(np.complex128)
        if np.any(a != 0):
            return a
    raise InvalidSetting(f"could not draw a nonzero integer matrix at n = {n}")


def _support(m: int, degree: int, sandwich: bool) -> list[tuple[int, ...]]:
    if sandwich:
        return [key for key in sorted(SANDWICH_SLOTS.values()) if sum(key) >= 1]
    exps = itertools.product(range(degree + 1), repeat=m)
    return sorted(e for e in exps if 1 <= sum(e) <= degree)


def plant_instance(
    n: int, m: int, degree: int, orientation: Orientation, seed: int
) -> PlantedInstance:
    """Generate an equation with a known exact solution.

    Draws a transform T with condition <= 100, per-unknown eigenvalue
    diagonals from the annulus 0.5 <= |z| <= 2 with pairwise separation
    >= 0.1, and integer coefficient matrices with entries in [-5, 5] for
    every non-constant term; the constant term is then the negation of the
    evaluated non-constant part, so the planted unknowns solve exactly.
    """
    if min(operator.index(n), operator.index(m), operator.index(degree)) < 1:
        raise DimensionMismatch("n, m, degree must all be >= 1")
    if operator.index(seed) < 0:
        raise InvalidSetting("seed must be >= 0")
    sandwich = orientation is Orientation.SANDWICH_BIVARIATE
    if sandwich and (m != 2 or degree != 2):
        raise DimensionMismatch("sandwich instances require m = 2 and degree = 2")
    rng = np.random.default_rng(seed)
    transform = _draw_transform(rng, n)
    transform_inv = np.linalg.inv(transform)
    eigenvalues = [_draw_eigenvalues(rng, n) for _ in range(m)]
    unknowns = [transform @ np.diag(vals) @ transform_inv for vals in eigenvalues]
    terms: dict[tuple[int, ...], np.ndarray] = {
        exps: _draw_integer_matrix(rng, n) for exps in _support(m, degree, sandwich)
    }
    partial = StructuredEquation(
        poly=MatrixPolynomial(arity=m, dim=n, terms=terms), orientation=orientation
    )
    constant = -equation_lhs(partial, unknowns)
    terms[(0,) * m] = constant
    equation = StructuredEquation(
        poly=MatrixPolynomial(arity=m, dim=n, terms=terms), orientation=orientation
    )
    return PlantedInstance(
        equation=equation,
        truth_unknowns=unknowns,
        truth_transform=transform,
        truth_eigenvalues=eigenvalues,
    )
