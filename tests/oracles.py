"""Independent references that the tests check the library against.

- :func:`scalar_oracle`: the roots of a 1 x 1 univariate equation, with
  multiplicities expanded, from ``poly_roots`` of its one scalar polynomial.
- :func:`symbolic_det_oracle`: the exact determinant polynomial of a
  univariate P of dimension n <= 4 with Gaussian-integer coefficient
  entries, by cofactor expansion in Python integers; it checks the numeric
  evaluation-interpolation route.
- :func:`cyclic_reduction`: the minimal solvent of a quadratic equation
  whose spectrum splits at a known radius, by a matrix iteration without
  any eigensolve; :func:`plant_minimal_solvent` builds such equations with
  a known minimal solvent, at any n.
- :func:`dual_equation`: the transpose dual of an equation, whose solutions
  are the reversed transposes of the original's.
"""

import numpy as np

from matpolyeq.errors import DimensionMismatch
from matpolyeq.polymatrix import MatrixPolynomial, ScalarPolynomial, _coefficients, poly_roots
from matpolyeq.solver import Orientation, StructuredEquation


def dual_equation(eq: StructuredEquation) -> StructuredEquation:
    """Transpose-dual: coefficients transposed, exponent tuples reversed.

    If (X_1, ..., X_m) solves the original, then the reversed transposes
    (X_m^T, ..., X_1^T) solve the dual with the opposite orientation.
    """
    if eq.orientation is Orientation.SANDWICH_BIVARIATE:
        raise DimensionMismatch("the sandwich template has no transpose dual")
    flipped = (
        Orientation.UNKNOWNS_RIGHT
        if eq.orientation is Orientation.UNKNOWNS_LEFT
        else Orientation.UNKNOWNS_LEFT
    )
    terms = {exps[::-1]: a.T for exps, a in eq.poly.terms.items()}
    return StructuredEquation(
        poly=MatrixPolynomial(arity=eq.arity, dim=eq.dim, terms=terms),
        orientation=flipped,
    )


class NonIntegerInput(ValueError):
    """The exact oracle needs Gaussian-integer coefficient entries."""


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
    independent reference for the numeric interpolation route.  The result
    has no trailing zero coefficient (the zero polynomial is ``[0]``).
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


def plant_minimal_solvent(n: int, seed: int) -> tuple[StructuredEquation, np.ndarray]:
    """A right quadratic equation whose minimal solvent X is known, and X.

    P(z) = (z A2 + Q0)(z I - X) with Q0 = -A2 W, so A2 X^2 + A1 X + A0 = 0
    for A1 = Q0 - A2 X and A0 = -Q0 X.  X and W are similar to diagonals
    with eigenvalue moduli in [0.5, 2] and [4, 8], through complex
    transforms of condition <= 100, so the n smallest eigenvalues of P are
    those of X.  A2 is an integer matrix with entries in [-5, 5], redrawn
    until its condition is <= 100: a singular A2 would make the middle
    coefficients of cyclic reduction singular too.
    """
    rng = np.random.default_rng(seed)

    def similar(lo, hi):
        vals = rng.uniform(lo, hi, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        while True:
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(t) <= 100:
                return t @ np.diag(vals) @ np.linalg.inv(t)

    while True:
        a2 = rng.integers(-5, 6, (n, n)).astype(np.complex128)
        if np.linalg.cond(a2) <= 100:
            break
    x, q0 = similar(0.5, 2.0), -a2 @ similar(4.0, 8.0)
    terms = {(2,): a2, (1,): q0 - a2 @ x, (0,): -q0 @ x}
    return StructuredEquation(MatrixPolynomial(1, n, terms), Orientation.UNKNOWNS_RIGHT), x


def cyclic_reduction(a0, a1, a2, r: float, steps: int = 30) -> tuple[np.ndarray, int]:
    """Minimal solvent G of A2 G^2 + A1 G + A0 = 0, and the steps it took.

    Cyclic reduction (Bini & Meini, SIAM J. Matrix Anal. Appl. 1996): with
    K = A1^{-1}, each step sets A0 <- -A0 K A0, A2 <- -A2 K A2,
    A1 <- A1 - A0 K A2 - A2 K A0 and A_hat <- A_hat - A2 K A0, from
    A_hat = A1.  It converges quadratically when the n smallest eigenvalue
    moduli of P lie inside the unit circle and the others outside, so z is
    scaled by ``r``, a radius in the gap, first; then G = -r A_hat^{-1} A0.
    No eigensolve is involved.
    """
    base, a1, a2 = a0, r * a1, r * r * a2
    hat = a1
    for step in range(1, steps + 1):
        k0, k2 = np.linalg.solve(a1, a0), np.linalg.solve(a1, a2)
        update = a2 @ k0
        hat = hat - update
        a1 = a1 - a0 @ k2 - update
        a0, a2 = -a0 @ k0, -a2 @ k2
        if np.linalg.norm(update) <= 1e-16 * np.linalg.norm(hat):
            return -r * np.linalg.solve(hat, base), step
    raise AssertionError(f"cyclic reduction did not converge in {steps} steps")
