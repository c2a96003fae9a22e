"""Ground-truth instance generation and exact small-case oracles.

Planted instances start from known co-diagonalizable unknowns and choose
the constant coefficient so the equation holds exactly; they back the
round-trip tests of every solve path.  The symbolic determinant oracle
works over exact Gaussian-integer polynomial arithmetic and validates the
numeric evaluation-interpolation route.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSetting, NonIntegerInput
from .polymatrix import MatrixPolynomial, ScalarPolynomial, _coefficients, poly_roots
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
    seed: int


def _draw_transform(rng: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(_REJECTION_CAP):
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(t) <= TRANSFORM_COND_CAP:
            return t
    raise RuntimeError("could not draw a well-conditioned transform")


def _draw_eigenvalues(rng: np.random.Generator, n: int) -> np.ndarray:
    for _ in range(_REJECTION_CAP):
        radii = rng.uniform(0.5, 2.0, size=n)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        vals = radii * np.exp(1j * angles)
        close = np.abs(vals[:, None] - vals) < EIGEN_SEPARATION
        np.fill_diagonal(close, False)
        if not close.any():
            return vals
    raise RuntimeError("could not draw separated eigenvalues")


def _draw_integer_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    # all-zero draws would degenerate the instance; redraw them
    for _ in range(_REJECTION_CAP):
        a = rng.integers(-5, 6, size=(n, n)).astype(np.complex128)
        if np.any(a != 0):
            return a
    raise RuntimeError("could not draw a nonzero integer matrix")


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
    if n < 1 or m < 1 or degree < 1:
        raise DimensionMismatch("n, m, degree must all be >= 1")
    if seed < 0:
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
        seed=seed,
    )


def scalar_oracle(eq: StructuredEquation) -> list[complex]:
    """Roots of the degenerate 1x1 equation, multiplicities expanded."""
    if eq.dim != 1 or eq.arity != 1:
        raise DimensionMismatch("scalar_oracle needs dim 1 and arity 1")
    roots = poly_roots(ScalarPolynomial(_coefficients(eq.poly)[:, 0, 0]))
    out: list[complex] = []
    for root, mult in roots:
        out.extend([root] * mult)
    return out


# Exact Gaussian-integer polynomial arithmetic: a polynomial is a list of
# (re, im) int pairs, ascending degree.  Python ints keep it overflow-free.

def _gtrim(p):
    while p and p[-1] == (0, 0):
        p = p[:-1]
    return p


def _gadd(p, q):
    out = []
    for k in range(max(len(p), len(q))):
        a = p[k] if k < len(p) else (0, 0)
        b = q[k] if k < len(q) else (0, 0)
        out.append((a[0] + b[0], a[1] + b[1]))
    return _gtrim(out)


def _gmul(p, q):
    if not p or not q:
        return []
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (a, b) in enumerate(p):
        if (a, b) == (0, 0):
            continue
        for j, (c, d) in enumerate(q):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return _gtrim(out)


def _gneg(p):
    return [(-a, -b) for a, b in p]


def _gdet(rows):
    if len(rows) == 1:
        return rows[0][0]
    acc: list[tuple[int, int]] = []
    for j in range(len(rows)):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = _gmul(rows[0][j], _gdet(minor))
        acc = _gadd(acc, term if j % 2 == 0 else _gneg(term))
    return acc


def symbolic_det_oracle(p: MatrixPolynomial) -> ScalarPolynomial:
    """Exact determinant polynomial by cofactor expansion, for n <= 4.

    Requires Gaussian-integer coefficient entries; serves as the
    independent reference for the numeric interpolation route.
    """
    if p.arity != 1:
        raise DimensionMismatch("symbolic_det_oracle needs arity 1")
    n = p.dim
    if n > 4:
        raise DimensionMismatch("symbolic_det_oracle is limited to n <= 4")
    entry_polys = [[[] for _ in range(n)] for _ in range(n)]
    for (k,), a in p.terms.items():
        for i in range(n):
            for j in range(n):
                re, im = a[i, j].real, a[i, j].imag
                if re != int(re) or im != int(im):
                    raise NonIntegerInput(
                        f"entry ({i},{j}) of the degree-{k} coefficient is not a Gaussian integer"
                    )
                if (re, im) == (0.0, 0.0):
                    continue
                cell = entry_polys[i][j]
                while len(cell) <= k:
                    cell.append((0, 0))
                cell[k] = (int(re), int(im))
    rows = [[_gtrim(entry_polys[i][j]) for j in range(n)] for i in range(n)]
    det = _gdet(rows)
    if not det:
        det = [(0, 0)]
    return ScalarPolynomial(np.array([complex(a, b) for a, b in det]))
