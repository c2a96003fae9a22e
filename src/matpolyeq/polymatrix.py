"""Polynomial matrices in one or several scalar variables.

A :class:`MatrixPolynomial` is P(z1, ..., zm) = sum_i z1^{i1} ... zm^{im} A_i
with square complex coefficient matrices A_i.  This module provides
evaluation, univariate slicing, extraction of the scalar determinant
polynomial by evaluation and interpolation on scaled roots of unity,
companion-matrix root finding with relative clustering, and sampling of
the zero set of det P together with attached null vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegreeZero,
    DimensionMismatch,
    IdenticallySingular,
    NoPointsFound,
)

#: Relative snap-to-zero threshold for interpolated/trimmed coefficients.
COEFF_SNAP = 1e-9
#: Relative clustering radius when merging nearby roots into multiplicities.
ROOT_CLUSTER_TOL = 1e-7
#: Relative singular-value acceptance for null vectors at sampled zeros.
DEFAULT_TOL_ZERO = 1e-6
#: Relative threshold declaring the determinant identically zero.
DET_ZERO_REL = 1e-12


@dataclass(frozen=True)
class MatrixPolynomial:
    """Multivariate polynomial with square matrix coefficients.

    ``terms`` maps exponent tuples of length ``arity`` to ``dim x dim``
    complex matrices.  Exact-zero coefficients are dropped on construction
    and the stored matrices are frozen.
    """

    arity: int
    dim: int
    terms: dict[tuple[int, ...], np.ndarray]

    def __post_init__(self):
        if self.arity < 1:
            raise DimensionMismatch("arity must be >= 1")
        if self.dim < 1:
            raise DimensionMismatch("dim must be >= 1")
        clean: dict[tuple[int, ...], np.ndarray] = {}
        for exps, coeff in self.terms.items():
            key = tuple(int(e) for e in exps)
            if len(key) != self.arity:
                raise DimensionMismatch(
                    f"exponent tuple {key} has length {len(key)}, expected arity {self.arity}"
                )
            if any(e < 0 for e in key):
                raise DimensionMismatch(f"exponent tuple {key} has a negative entry")
            a = linalg.as_matrix(coeff)
            if a.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"coefficient for {key} has shape {a.shape}, expected {(self.dim, self.dim)}"
                )
            if np.any(a != 0):
                a = a.copy()
                a.flags.writeable = False
                clean[key] = a
        object.__setattr__(self, "terms", clean)


@dataclass(frozen=True)
class ScalarPolynomial:
    """Scalar polynomial as ascending complex coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=np.complex128))
        if c.ndim != 1 or c.size < 1:
            raise DimensionMismatch("coefficients must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
            raise DimensionMismatch("coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def trimmed(self, rel_tol: float = COEFF_SNAP) -> "ScalarPolynomial":
        """Drop trailing coefficients below ``rel_tol`` times the largest modulus."""
        c = np.asarray(self.coefficients)
        mags = np.abs(c)
        cmax = mags.max()
        if cmax == 0.0:
            return ScalarPolynomial(np.zeros(1, dtype=np.complex128))
        keep = np.nonzero(mags > rel_tol * cmax)[0]
        return ScalarPolynomial(c[: keep[-1] + 1])

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in self.coefficients[::-1]:
            acc = acc * z + c
        return complex(acc)

    def derivative(self) -> "ScalarPolynomial":
        c = self.coefficients
        if len(c) == 1:
            return ScalarPolynomial(np.zeros(1, dtype=np.complex128))
        return ScalarPolynomial(c[1:] * np.arange(1, len(c)))


@dataclass(frozen=True)
class VarietyPoint:
    """A zero of det P with an attached unit null vector of P at that zero."""

    values: np.ndarray
    null_vector: np.ndarray
    side: str
    det_residual: float

    def __post_init__(self):
        object.__setattr__(self, "values", linalg.as_vector(self.values))
        object.__setattr__(self, "null_vector", linalg.as_vector(self.null_vector))
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")


def total_degree(p: MatrixPolynomial) -> int:
    """Largest exponent-tuple sum over nonzero terms (0 for the zero polynomial)."""
    if not p.terms:
        return 0
    return max(sum(exps) for exps in p.terms)


def evaluate(p: MatrixPolynomial, point) -> np.ndarray:
    """Evaluate P at a scalar point, one value per variable."""
    z = linalg.as_vector(point)
    if z.shape[0] != p.arity:
        raise DimensionMismatch(f"point has length {z.shape[0]}, expected arity {p.arity}")
    acc = np.zeros((p.dim, p.dim), dtype=np.complex128)
    for exps in sorted(p.terms):
        factor = 1.0 + 0j
        for s, e in enumerate(exps):
            if e:
                factor *= z[s] ** e
        acc += factor * p.terms[exps]
    return acc


def fix_all_but(p: MatrixPolynomial, pivot: int, fixed) -> MatrixPolynomial:
    """Substitute values for all variables except ``pivot``.

    Returns a univariate polynomial in the pivot variable whose evaluation
    agrees with evaluating ``p`` at the merged point.
    """
    if p.arity < 2:
        raise DimensionMismatch("fix_all_but needs arity >= 2")
    if not 0 <= pivot < p.arity:
        raise DimensionMismatch(f"pivot {pivot} out of range for arity {p.arity}")
    vals = linalg.as_vector(fixed) if len(fixed) else np.zeros(0, dtype=np.complex128)
    if vals.shape[0] != p.arity - 1:
        raise DimensionMismatch(
            f"fixed values have length {vals.shape[0]}, expected {p.arity - 1}"
        )
    others = [s for s in range(p.arity) if s != pivot]
    new_terms: dict[tuple[int, ...], np.ndarray] = {}
    for exps in sorted(p.terms):
        factor = 1.0 + 0j
        for j, s in enumerate(others):
            if exps[s]:
                factor *= vals[j] ** exps[s]
        key = (exps[pivot],)
        contrib = factor * p.terms[exps]
        if key in new_terms:
            new_terms[key] = new_terms[key] + contrib
        else:
            new_terms[key] = contrib
    return MatrixPolynomial(arity=1, dim=p.dim, terms=new_terms)


def merge_point(fixed, pivot: int, value: complex) -> np.ndarray:
    """Insert a pivot value back into the fixed-values vector."""
    vals = list(np.asarray(fixed, dtype=np.complex128))
    vals.insert(pivot, complex(value))
    return np.array(vals, dtype=np.complex128)


def _interp_radius(p: MatrixPolynomial) -> float:
    exps = sorted(e for (e,) in p.terms)
    lo, hi = exps[0], exps[-1]
    if hi == lo:
        return 1.0
    ratio = np.linalg.norm(p.terms[(lo,)]) / np.linalg.norm(p.terms[(hi,)])
    return float(max(1.0, ratio ** (1.0 / (hi - lo))))


def det_poly_univariate(
    p: MatrixPolynomial, det_zero_tol: float = DET_ZERO_REL
) -> ScalarPolynomial:
    """Determinant of a univariate polynomial matrix, as a scalar polynomial.

    det P has degree at most n * p_max, so it is recovered exactly (up to
    roundoff) from n * p_max + 1 determinant evaluations.  The sample nodes
    are roots of unity scaled to a radius balancing the lowest and highest
    coefficient norms, which makes the interpolation an inverse FFT.
    Coefficients below ``COEFF_SNAP`` times the largest modulus are snapped
    to zero and trailing zeros are trimmed.

    Raises IdenticallySingular when every sampled determinant is at or
    below ``det_zero_tol`` times ``||P||_F ** n`` at that node, i.e. when
    det P is the zero polynomial.  The bound scales with P as the
    determinant does, so the test is scale-free; it stops at the first
    node that clears it.  It exceeds Hadamard's bound (the product of the
    column norms) by up to ``n ** (n / 2)``, so planted instances of
    dimension 16 and more are still read as singular.
    """
    if p.arity != 1:
        raise DimensionMismatch(f"det_poly_univariate needs arity 1, got {p.arity}")
    n = p.dim
    if not p.terms:
        raise IdenticallySingular("zero polynomial matrix")
    pmax = max(e for (e,) in p.terms)
    count = n * pmax + 1
    radius = _interp_radius(p)
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
    dets = np.empty(count, dtype=np.complex128)
    nonzero = False
    for j, z in enumerate(nodes):
        pz = evaluate(p, [z])
        dets[j] = np.linalg.det(pz)
        if not nonzero:
            nonzero = abs(dets[j]) > det_zero_tol * float(np.linalg.norm(pz)) ** n
    if not nonzero:
        raise IdenticallySingular("determinant vanishes at every sample node")
    # values at radius * exp(+2 pi i j / M) invert through the forward DFT
    coeffs = np.fft.fft(dets) / count
    coeffs = coeffs / radius ** np.arange(count)
    cmax = np.abs(coeffs).max()
    coeffs[np.abs(coeffs) <= COEFF_SNAP * cmax] = 0.0
    return ScalarPolynomial(coeffs).trimmed()


def _cluster_roots(raw: np.ndarray, cluster_tol: float) -> list[tuple[complex, int]]:
    # single-linkage union-find; the pools are small enough for O(d^2)
    d = len(raw)
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            tol = cluster_tol * (1.0 + max(abs(raw[i]), abs(raw[j])))
            if abs(raw[i] - raw[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    clustered = [
        (complex(np.mean(raw[idx])), len(idx)) for idx in groups.values()
    ]
    clustered.sort(key=lambda rm: linalg.lex_key(rm[0]))
    return clustered


def _newton_polish(sp: ScalarPolynomial, z: complex, iterations: int = 3) -> complex:
    dp = sp.derivative()
    for _ in range(iterations):
        pv = sp(z)
        dv = dp(z)
        if abs(dv) < 1e-300:
            break
        step = pv / dv
        z_new = z - step
        if abs(sp(z_new)) < abs(pv):
            z = z_new
        else:
            break
    return z


def poly_roots(
    sp: ScalarPolynomial, cluster_tol: float = ROOT_CLUSTER_TOL
) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, via the companion matrix.

    Roots within ``cluster_tol * (1 + |root|)`` of each other are merged
    into a single root (their centroid) with summed multiplicity; simple
    roots are polished with a few Newton steps.  The result is sorted
    lexicographically by (real, imag).
    """
    trimmed = sp.trimmed()
    c = trimmed.coefficients
    if np.all(c == 0):
        raise DegreeZero("zero polynomial has no well-defined roots")
    if trimmed.degree == 0:
        raise DegreeZero("nonzero constant polynomial has no roots")
    raw = np.roots(c[::-1])  # companion-matrix eigenvalues, balanced by geev
    clustered = _cluster_roots(raw, cluster_tol)
    polished = [
        (_newton_polish(trimmed, root) if mult == 1 else root, mult)
        for root, mult in clustered
    ]
    polished.sort(key=lambda rm: linalg.lex_key(rm[0]))
    return polished


def term_scale(p: MatrixPolynomial, point) -> float:
    """Triangle-inequality magnitude bound for ``evaluate(p, point)``."""
    z = np.asarray(point, dtype=np.complex128)
    total = 0.0
    for exps, coeff in p.terms.items():
        factor = 1.0
        for s, e in enumerate(exps):
            if e:
                factor *= abs(z[s]) ** e
        total += factor * float(np.linalg.norm(coeff))
    return total


def null_vectors_at(p: MatrixPolynomial, point, side: str) -> list[np.ndarray]:
    """Unit null vectors of P(point), smallest singular direction first.

    Acceptance is sigma <= ``DEFAULT_TOL_ZERO`` * max(sigma_max, term_scale);
    the second reference keeps 1x1 and fully vanishing evaluations decidable.
    """
    pz = evaluate(p, point)
    u, s, vh = np.linalg.svd(pz)
    ref = max(float(s[0]), term_scale(p, point))
    if ref == 0.0:
        count = p.dim
    else:
        count = int(np.sum(s <= DEFAULT_TOL_ZERO * ref))
    vectors = []
    for i in range(p.dim - 1, p.dim - 1 - count, -1):
        if side == "right":
            vectors.append(vh[i].conj())
        else:
            vectors.append(u[:, i].conj())
    return vectors


def sample_variety(
    p: MatrixPolynomial,
    side: str,
    count: int,
    seed: int,
    strategy: str = "grid",
) -> list[VarietyPoint]:
    """Sample zeros of the multivariate determinant polynomial.

    Parameters
    ----------
    p : MatrixPolynomial with arity >= 2.
    side : 'left' or 'right'; which null vectors to attach.
    count : stop once at least this many points were collected.
    seed : seeds the random strategy and phases the grid strategy.
    strategy : 'grid' walks equispaced points on the unit circle; 'random'
        draws fixed values uniformly from the annulus 0.5 <= |z| <= 2.

    At most ``4 * count + 8`` slices are taken.  Each slice fixes every
    variable except a round-robin pivot, extracts the determinant
    polynomial of the univariate slice, and turns each of its roots into a
    full point with the null vectors of P there, accepted at the relative
    threshold ``DEFAULT_TOL_ZERO``.  Slices that lose all degree contribute
    nothing; an identically singular slice propagates IdenticallySingular.
    """
    if p.arity < 2:
        raise DimensionMismatch(f"sample_variety needs arity >= 2, got {p.arity}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    m = p.arity
    rng = np.random.default_rng(seed)
    budget = 4 * count + 8
    phase = math.fmod(seed * 0.6180339887498949, 1.0)
    points: list[VarietyPoint] = []
    for sl in range(budget):
        if len(points) >= count:
            break
        pivot = sl % m
        if strategy == "grid":
            pos = (sl + phase) / budget
            fixed = np.array(
                [np.exp(2j * np.pi * (pos + j / m)) for j in range(m - 1)],
                dtype=np.complex128,
            )
        elif strategy == "random":
            radii = rng.uniform(0.5, 2.0, size=m - 1)
            angles = rng.uniform(0.0, 2.0 * np.pi, size=m - 1)
            fixed = radii * np.exp(1j * angles)
        else:
            raise ValueError(f"strategy must be 'grid' or 'random', got {strategy!r}")
        slice_poly = fix_all_but(p, pivot, fixed)
        try:
            det_slice = det_poly_univariate(slice_poly)
            roots = poly_roots(det_slice)
        except DegreeZero:
            continue
        for root, _mult in roots:
            point = merge_point(fixed, pivot, root)
            vectors = null_vectors_at(p, point, side)
            if not vectors:
                continue
            dres = abs(np.linalg.det(evaluate(p, point)))
            for vec in vectors:
                points.append(
                    VarietyPoint(
                        values=point, null_vector=vec, side=side, det_residual=dres
                    )
                )
    if not points:
        raise NoPointsFound(
            f"no variety points found in {budget} slices (strategy {strategy!r})"
        )
    return points
