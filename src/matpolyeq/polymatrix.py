"""Polynomial matrices in one or several scalar variables.

A :class:`MatrixPolynomial` is P(z1, ..., zm) = sum_i z1^{i1} ... zm^{im} A_i
with square complex coefficient matrices A_i.  This module provides
evaluation, univariate slicing, extraction of the scalar determinant
polynomial by evaluation and interpolation on scaled roots of unity, and
sampling of the zero set of det P together with attached null vectors,
returned as one :class:`VarietySample` of stacked arrays, a row per point.
Every root list comes from one scaled block companion eigensolve with
relative clustering, and no root is polished: the roots of a scalar
polynomial are its 1x1 case, and the sampler takes the eigenvalues of each
univariate slice from the linearization of the slice itself (a reversed one
when the leading coefficient is singular), not from its determinant
polynomial.  The same eigensolve offers the sampler its null vectors, the
top blocks of the eigenvectors (of the transposed slice on the left).  The
sampler folds, linearizes and eigensolves its slices a batch at a time, as
stacks, with the stop rule and the budget of 4 count + 8 slices of a walk of
one slice at a time; LAPACK treats each matrix of a stack as it treats it
alone, so the sample is the same bit for bit.  One routine,
``_null_spaces``, holds the rule for every null vector: it keeps an offered
vector whose backward error passes, and otherwise takes an SVD of P.  The
points of one polynomial are evaluated as one stack, never chunked: the
n d + 1 interpolation nodes of its determinant and the at most n d roots
where its null spaces are taken.  Every eigensolve goes through
``linalg.eigensolve``, which raises LAPACK's non-convergence as
ConvergenceFailure.
P is held as one sorted table of exponent tuples with the matching stack of
coefficients, and every evaluation, slice and term scale reads that table:
the monomials of all points and terms are one array expression, and P sums
their products with the coefficients in real arithmetic.  A single point is
a stack of one and takes the same array arithmetic, so a stacked result
equals the single-point one bit for bit.  The Frobenius norms of the
coefficients and the total degree are computed once per polynomial, on
first use, so that a polynomial that is only built or parsed never takes
them.  A norm whose squares leave the double range is inf, without a
warning, and the term scales and residual normalisations that read it are
inf or nan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    DegreeZero,
    DimensionMismatch,
    IdenticallySingular,
    InvalidSetting,
    NonFiniteInput,
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
#: Fixed points at which a slice with a singular leading coefficient is
#: tested for rank; the best conditioned one becomes the reversal shift.
SHIFT_COUNT = 3
#: Smallest positive normal double.
_TINY = np.finfo(np.float64).tiny
#: Eigenvalues of a reversed slice at or below this modulus, relative to its
#: root scale, are its infinite ones.  A Jordan chain of length k at infinity
#: is computed only to about eps^(1/k), 1e-8 for k = 2.
INFINITE_ROOT_TOL = 1e-5
#: The sides a null vector can be taken on: P v = 0 or v^T P = 0.
_SIDES = ("left", "right")


@dataclass(frozen=True, eq=False)
class MatrixPolynomial:
    """Multivariate polynomial with square matrix coefficients.

    ``terms`` maps exponent tuples of length ``arity`` to ``dim x dim``
    complex matrices.  Exact-zero coefficients are dropped on construction.
    The polynomial is stored once, as the (T, arity) integer table
    ``exponents`` of its nonzero terms in ascending lexicographic order and
    the matching (T, dim, dim) coefficient ``stack``; both are copies of the
    input and read-only.  ``terms`` is rebuilt in that order, its values
    being read-only views of ``stack``.  The Frobenius norms of the
    coefficients and the total degree are computed on first use and kept.
    """

    arity: int
    dim: int
    terms: dict[tuple[int, ...], np.ndarray]
    exponents: np.ndarray = field(init=False, repr=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if operator.index(self.arity) < 1:
            raise DimensionMismatch("arity must be >= 1")
        if operator.index(self.dim) < 1:
            raise DimensionMismatch("dim must be >= 1")
        blocks: dict[tuple[int, ...], np.ndarray] = {}
        for exps, coeff in self.terms.items():
            key = tuple(map(operator.index, exps))
            if len(key) != self.arity:
                raise DimensionMismatch(
                    f"exponent tuple {key} has length {len(key)}, expected arity {self.arity}"
                )
            if any(e < 0 for e in key):
                raise DimensionMismatch(f"exponent tuple {key} has a negative entry")
            a = np.asarray(coeff, dtype=np.complex128)
            if a.shape != (self.dim, self.dim):
                raise DimensionMismatch(
                    f"coefficient for {key} has shape {a.shape}, expected {(self.dim, self.dim)}"
                )
            blocks[key] = a
        keys = sorted(blocks)
        stack = np.array([blocks[k] for k in keys], dtype=np.complex128)
        stack = stack.reshape(len(keys), self.dim, self.dim)
        if not np.isfinite(stack).all():
            raise NonFiniteInput("matrix entries must be finite")
        nonzero = np.any(stack != 0, axis=(1, 2))
        if not nonzero.all():
            keys, stack = [k for k, a in zip(keys, nonzero) if a], stack[nonzero]
        exponents = np.array(keys, dtype=np.int64).reshape(len(keys), self.arity)
        exponents.flags.writeable = stack.flags.writeable = False
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "terms", dict(zip(keys, stack)))

    @cached_property
    def _norms(self) -> np.ndarray:
        # the (T,) Frobenius norms of the coefficients; a norm whose squares
        # leave the double range is inf
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.stack, axis=(1, 2))
        norms.flags.writeable = False
        return norms

    @cached_property
    def _degree(self) -> int:
        return int(self.exponents.sum(axis=1).max(initial=0))


@dataclass(frozen=True)
class ScalarPolynomial:
    """Scalar polynomial as ascending complex coefficients.

    ``coefficients`` is a scalar or a non-empty 1-d sequence, read through
    ``linalg._checked``: a wrong shape raises DimensionMismatch and a
    non-finite entry NonFiniteInput.  It is held as a read-only copy.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        c = linalg._checked(np.atleast_1d(self.coefficients), (None,), "coefficients")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def trimmed(self) -> "ScalarPolynomial":
        """Drop trailing coefficients below ``COEFF_SNAP`` times the largest modulus."""
        c = np.asarray(self.coefficients)
        mags = np.abs(c)
        cmax = mags.max()
        if cmax == 0.0:
            return ScalarPolynomial(np.zeros(1, dtype=np.complex128))
        keep = np.nonzero(mags > COEFF_SNAP * cmax)[0]
        return ScalarPolynomial(c[: keep[-1] + 1])


@dataclass(frozen=True)
class VarietySample:
    """Zeros of det P, one row per point, each with a unit null vector of P.

    ``values`` is (K, arity), ``null_vectors`` is (K, n) and
    ``det_residuals`` holds |det P| at each of the K points; ``side`` says
    which null vectors they are.
    """

    values: np.ndarray
    null_vectors: np.ndarray
    det_residuals: np.ndarray
    side: str

    def __len__(self) -> int:
        return len(self.det_residuals)


def total_degree(p: MatrixPolynomial) -> int:
    """Largest exponent-tuple sum over nonzero terms (0 for the zero polynomial)."""
    return p._degree


def _point(p: MatrixPolynomial, point) -> np.ndarray:
    # a point as the one-row stack the array arithmetic takes
    return linalg._checked(point, (p.arity,), "point")[None]


def _monomials(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    # (K, T) monomial values of K points (rows) at T exponent tuples (rows),
    # with one array arithmetic for a stack and for a single point
    return np.prod(points[:, None, :] ** exponents, axis=2)


def _evaluate_stack(p: MatrixPolynomial, points: np.ndarray) -> np.ndarray:
    """P at each row of a (K, arity) stack of points, as a (K, n, n) stack."""
    factors = _monomials(points, p.exponents)
    # f C = Re(f) C + Im(f) (i C), summed in real arithmetic on (re, im)
    # pairs: numpy rounds a real product once in every loop, but may fuse the
    # multiply-add of a complex one in its vector loops and not in its
    # one-element loop, so 1 x 1 values of a stack could differ from those
    # of one point in the last bit
    re, im = factors.real, factors.imag
    coeffs, turned = p.stack.view(np.float64), (1j * p.stack).view(np.float64)
    acc = np.zeros((len(points), p.dim, 2 * p.dim))
    for t in range(len(coeffs)):
        acc += re[:, t, None, None] * coeffs[t]
        acc += im[:, t, None, None] * turned[t]
    return acc.view(np.complex128)


def evaluate(p: MatrixPolynomial, point) -> np.ndarray:
    """Evaluate P at a scalar point, one value per variable."""
    return _evaluate_stack(p, _point(p, point))[0]


def _fold(p: MatrixPolynomial, pivot: int, fixed: np.ndarray) -> np.ndarray:
    # the dense coefficient stacks (B, d + 1, n, n) of the slices of P at the
    # rows of a (B, arity - 1) stack of fixed values: each term, times its
    # monomial in the fixed values, adds to the block of its pivot power.  A
    # sum that overflows is left inf or nan: both callers check finiteness
    powers = p.exponents[:, pivot]
    folded = np.zeros((powers.max(initial=0) + 1, len(fixed), p.dim, p.dim), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = _monomials(fixed, np.delete(p.exponents, pivot, axis=1))
        np.add.at(folded, powers, factors.T[:, :, None, None] * p.stack[:, None])
    return folded.transpose(1, 0, 2, 3)


def fix_all_but(p: MatrixPolynomial, pivot: int, fixed) -> MatrixPolynomial:
    """Substitute values for all variables except ``pivot``.

    Returns a univariate polynomial in the pivot variable whose evaluation
    agrees with evaluating ``p`` at the merged point; the zero polynomial
    gives the zero polynomial, with nothing folded.
    """
    if p.arity < 2:
        raise DimensionMismatch("fix_all_but needs arity >= 2")
    if not 0 <= operator.index(pivot) < p.arity:
        raise DimensionMismatch(f"pivot {pivot} out of range for arity {p.arity}")
    vals = linalg._checked(fixed, (p.arity - 1,), "fixed")
    if not p.terms:
        return MatrixPolynomial(arity=1, dim=p.dim, terms={})
    folded = _fold(p, pivot, vals[None])[0]
    return MatrixPolynomial(arity=1, dim=p.dim, terms={(k,): a for k, a in enumerate(folded)})


def _coefficients(p: MatrixPolynomial) -> np.ndarray:
    """The coefficients A_0, ..., A_d of a univariate P as a (d + 1, n, n) stack.

    Absent terms are zero blocks; P without terms gives one zero block.
    """
    coeffs = np.zeros((total_degree(p) + 1, p.dim, p.dim), dtype=np.complex128)
    coeffs[p.exponents[:, 0]] = p.stack
    return coeffs


def _root_scale(coeffs: np.ndarray) -> float:
    # (||C_lo|| / ||C_hi||)^(1 / (hi - lo)) over the lowest and highest
    # nonzero blocks of a coefficient stack: the geometric mean root modulus
    # of a balanced polynomial, the scaling of Fan, Lin & Van Dooren
    nonzero = np.flatnonzero(np.any(coeffs != 0, axis=(1, 2)))
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    if hi == lo:
        return 1.0
    # each norm is taken of its block divided by 2^e, e the exponent of the
    # block's largest real or imaginary part: the division is exact, so the
    # ratio is the unscaled one bit for bit wherever squaring the entries
    # neither overflows nor underflows, and stays finite where it would
    _, e = np.frexp(np.abs(coeffs.view(np.float64)).max(axis=(1, 2)))
    lo_norm = np.linalg.norm(coeffs[lo] * np.ldexp(1.0, -e[lo]))
    hi_norm = np.linalg.norm(coeffs[hi] * np.ldexp(1.0, -e[hi]))
    mantissa, k = lo_norm / hi_norm, hi - lo
    with np.errstate(over="ignore"):
        ratio = np.ldexp(mantissa, e[lo] - e[hi])
    if _TINY <= ratio < math.inf:
        return float(ratio ** (1.0 / k))
    # the ratio itself leaves the double range: root its mantissa and its
    # power of two apart
    q, r = divmod(int(e[lo] - e[hi]), k)
    return float(np.ldexp(np.ldexp(mantissa, r) ** (1.0 / k), q))


def det_poly_univariate(p: MatrixPolynomial) -> ScalarPolynomial:
    """Determinant of a univariate polynomial matrix, as a scalar polynomial.

    det P has degree at most n * p_max, so it is recovered exactly (up to
    roundoff) from n * p_max + 1 determinant evaluations.  The sample nodes
    are roots of unity scaled to a radius balancing the lowest and highest
    coefficient norms, which makes the interpolation an inverse FFT.
    Coefficients below ``COEFF_SNAP`` times the largest modulus are snapped
    to zero and trailing zeros are trimmed.

    Raises NonFiniteInput when a sampled determinant leaves the double
    range, before the zero test: when it overflows, or when P(z) is nonzero
    but its bound ``||P(z)||_F ** n`` is below the normal range.  Raises
    IdenticallySingular when every sampled determinant is at or below
    ``DET_ZERO_REL`` times that bound, i.e. when det P is the zero polynomial.
    The bound scales with P as the determinant does, so the test is
    scale-free; all nodes are evaluated and tested at once.  It exceeds
    Hadamard's bound (the product of the column norms) by up to
    ``n ** (n / 2)``, so planted instances of dimension 16 and more are
    still read as singular.
    """
    if p.arity != 1:
        raise DimensionMismatch(f"det_poly_univariate needs arity 1, got {p.arity}")
    n = p.dim
    if not p.terms:
        raise IdenticallySingular("zero polynomial matrix")
    coeffs = _coefficients(p)
    count = n * (len(coeffs) - 1) + 1
    radius = max(1.0, _root_scale(coeffs))
    nodes = radius * np.exp(2j * np.pi * np.arange(count) / count)
    pz = _evaluate_stack(p, nodes[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        dets = np.linalg.det(pz)
    with np.errstate(over="ignore"):
        bound = np.linalg.norm(pz, axis=(1, 2)) ** n
    if not np.isfinite(dets).all() or pz[bound < _TINY].any():
        raise NonFiniteInput("det P leaves the double range at the sample nodes")
    if not np.any(np.abs(dets) > DET_ZERO_REL * bound):
        raise IdenticallySingular("determinant vanishes at every sample node")
    # values at radius * exp(+2 pi i j / M) invert through the forward DFT
    coeffs = np.fft.fft(dets) / count
    coeffs = coeffs / radius ** np.arange(count)
    cmax = np.abs(coeffs).max()
    coeffs[np.abs(coeffs) <= COEFF_SNAP * cmax] = 0.0
    return ScalarPolynomial(coeffs).trimmed()


def _cluster_roots(raw: np.ndarray, scale: float) -> list[list[int]]:
    """Indices of the roots ``raw`` grouped into clusters by single linkage.

    Two roots link when they lie within ``ROOT_CLUSTER_TOL * (scale + the
    larger modulus)`` of each other, ``scale`` being the root scale of their
    coefficient stack.  Each group lists its members in ascending order, and
    the groups come in the order of their first members.
    """
    d = len(raw)
    mags = np.abs(raw)
    reach = ROOT_CLUSTER_TOL * (scale + np.maximum(mags[:, None], mags[None, :]))
    linked = np.abs(raw[:, None] - raw[None, :]) <= reach
    # label propagation over the links: each root takes the smallest label
    # it links to until no label moves, so a group is labelled by its first
    # member
    label = np.arange(d)
    while True:
        moved = np.minimum(label, np.where(linked, label, d).min(axis=1, initial=d))
        if np.array_equal(moved, label):
            break
        label = moved
    groups: dict[int, list[int]] = {}
    for i, first in enumerate(label.tolist()):
        groups.setdefault(first, []).append(i)
    return list(groups.values())


def poly_roots(sp: ScalarPolynomial) -> list[tuple[complex, int]]:
    """All complex roots with multiplicities, from the scaled companion matrix.

    The roots are the eigenvalues of the companion of the trimmed polynomial,
    scaled and solved as the 1x1 case of the block companion of
    :func:`_slice_spectrum`; no root is polished afterwards.  Roots within
    ``ROOT_CLUSTER_TOL * (gamma + |root|)`` of each other, gamma the root
    scale of the polynomial, are merged into a single root (their centroid)
    with summed multiplicity.  The result is sorted lexicographically by
    (real, imag).
    """
    trimmed = sp.trimmed()
    c = trimmed.coefficients
    if np.all(c == 0):
        raise DegreeZero("zero polynomial has no well-defined roots")
    if trimmed.degree == 0:
        raise DegreeZero("nonzero constant polynomial has no roots")
    stack = c[:, None, None]
    scale = _root_scale(stack)
    companion = _companions(_scaled(stack, scale)[None])[0]
    raw = scale * linalg.eigensolve(np.linalg.eigvals, companion)
    roots = [(complex(np.mean(raw[g])), len(g)) for g in _cluster_roots(raw, scale)]
    roots.sort(key=lambda rm: linalg.lex_key(rm[0]))
    return roots


def _scaled(coeffs: np.ndarray, gamma: float) -> np.ndarray:
    # the blocks gamma^k C_k of sum_k z^k C_k as a polynomial in z / gamma
    d = len(coeffs) - 1
    with np.errstate(over="ignore"):
        powers = gamma ** np.arange(d + 1)
    if _TINY <= powers.min() and powers.max() < math.inf:
        return coeffs * powers[:, None, None]
    # gamma^d leaves the double range: with gamma = f 2^q, scale by f^k and
    # then exactly by 2^(qk), so that only the scaled blocks must fit
    f, q = math.frexp(gamma)
    k = np.arange(d + 1)
    parts = (coeffs * (f**k)[:, None, None]).view(np.float64)
    return np.ldexp(parts, (q * k)[:, None, None]).view(np.complex128)


def _companions(scaled: np.ndarray) -> np.ndarray:
    # block companions of a (B, d + 1, n, n) stack of _scaled stacks, C_d
    # nonsingular: their eigenvalues are the roots over gamma
    b, d, n = scaled.shape[0], scaled.shape[1] - 1, scaled.shape[2]
    companion = np.zeros((b, d * n, d * n), dtype=np.complex128)
    companion[:, : (d - 1) * n, n:] = np.eye((d - 1) * n)
    lower = scaled[:, :d].transpose(0, 2, 1, 3).reshape(b, n, d * n)
    companion[:, (d - 1) * n :] = -np.linalg.solve(scaled[:, d], lower)
    return companion


def _reversal(coeffs: np.ndarray, scale: float) -> tuple[np.ndarray, complex]:
    # the reversal w^d P(z0 + 1/w) of a dense coefficient stack whose leading
    # block fails the rank test, and its shift z0: the best conditioned of
    # SHIFT_COUNT fixed points on the circle of the root scale
    terms = {(k,): a for k, a in enumerate(coeffs)}
    p = MatrixPolynomial(arity=1, dim=coeffs.shape[1], terms=terms)
    angles = 2 * np.pi * (np.arange(SHIFT_COUNT) + 0.6180339887498949) / SHIFT_COUNT
    shifts = scale * np.exp(1j * angles)
    s = np.linalg.svd(_evaluate_stack(p, shifts[:, None]), compute_uv=False)
    ratios = s[:, -1] / np.where(s[:, 0] > 0, s[:, 0], 1.0)
    if not np.any(ratios > linalg.DEFAULT_TOL_RANK):
        raise IdenticallySingular(f"P is rank-deficient at all {SHIFT_COUNT} shift points")
    z0 = shifts[int(np.argmax(ratios))]
    # A_k (z0 w + 1)^k w^(d-k) puts C(k, i) z0^i A_k on w^(d-k+i); its
    # constant coefficient A_d and its leading one P(z0) are both nonzero
    d = len(coeffs) - 1
    stack = np.zeros_like(coeffs)
    for k in range(d + 1):
        for i in range(k + 1):
            stack[d - k + i] += math.comb(k, i) * z0**i * coeffs[k]
    return stack, z0


def _slice_spectra(coeffs: np.ndarray, side: str = "right") -> list:
    """Finite eigenvalues, null vectors and clusters of B slices of one degree.

    ``coeffs`` stacks the coefficients A_0, ..., A_d of B univariate slices
    P(z) = sum_k z^k A_k as a (B, d + 1, n, n) array.  Their eigenpairs come
    from the block companions of the slices scaled by :func:`_root_scale`,
    as :func:`poly_roots` builds them for a 1x1 stack, through one batched
    rank SVD, solve and eigensolve; no eigenvalue is polished.  A slice whose
    A_d fails the rank test of ``linalg.DEFAULT_TOL_RANK`` is linearized as
    its reversal w^d P(z0 + 1/w) (:func:`_reversal`): its eigenvalues w ~ 0
    are the infinite ones and are dropped, and every other w maps back to
    z0 + 1/w.  For ``side='left'`` the transposed stacks are linearized,
    which have the same eigenvalues.

    Returns one ``(values, vectors, groups)`` triple per slice: its K finite
    eigenvalues, the top blocks of their eigenvectors as unit rows of a
    (K, n) array, which are null vectors of P there (v with P v = 0 on the
    right, y with y^T P = 0 on the left, with small backward error at a
    simple eigenvalue: Higham, Li & Tisseur, SIMAX 2007), and the clusters
    of :func:`_cluster_roots` at the root scale of P.  Raises
    IdenticallySingular for a zero A_d, or when P(z0) is rank-deficient at
    every shift point.  A slice of degree 0 has no eigenvalues.
    """
    n, d = coeffs.shape[2], coeffs.shape[1] - 1
    if not np.any(coeffs[:, d], axis=(1, 2)).all():
        raise IdenticallySingular("zero polynomial matrix")
    scales = [_root_scale(c) for c in coeffs]
    s = np.linalg.svd(coeffs[:, d], compute_uv=False)
    regular = (s[:, -1] > linalg.DEFAULT_TOL_RANK * s[:, 0]).tolist()
    stacks, gammas, shifts = [], [], []
    for c, scale, reg in zip(coeffs, scales, regular):
        stack, z0 = (c, None) if reg else _reversal(c, scale)
        stacks.append(stack)
        gammas.append(scale if reg else _root_scale(stack))
        shifts.append(z0)
    if d == 0:
        empty = (np.zeros(0, dtype=np.complex128), np.zeros((0, n), dtype=np.complex128), [])
        return [empty] * len(coeffs)
    scaled = np.array([_scaled(stack, gamma) for stack, gamma in zip(stacks, gammas)])
    if side == "left":
        scaled = scaled.transpose(0, 1, 3, 2)
    mu, eigvecs = linalg.eigensolve(np.linalg.eig, _companions(scaled))
    # an eigenvector of the companion stacks v, mu v, ..., mu^(d-1) v for a
    # null vector v of the slice at gamma mu: keep its top block, unit norm
    top = eigvecs[:, :n].transpose(0, 2, 1)
    values = np.array(gammas)[:, None] * mu
    vectors = top / np.linalg.norm(top, axis=2, keepdims=True)
    spectra = []
    for k, z0 in enumerate(shifts):
        vals, vecs = values[k], vectors[k]
        if z0 is not None:
            finite = np.abs(vals) > INFINITE_ROOT_TOL * gammas[k]
            vals, vecs = z0 + 1.0 / vals[finite], vecs[finite]
        spectra.append((vals, vecs, _cluster_roots(vals, scales[k])))
    return spectra


def _slice_spectrum(p: MatrixPolynomial, side: str = "right"):
    """:func:`_slice_spectra` of a univariate P alone."""
    return _slice_spectra(_coefficients(p)[None], side)[0]


def _term_scales(p: MatrixPolynomial, points: np.ndarray) -> np.ndarray:
    # per point, the sum over terms of |monomial| * ||coefficient||_F; an
    # inf norm gives inf, or nan where its monomial is 0
    with np.errstate(over="ignore", invalid="ignore"):
        return (_monomials(np.abs(points), p.exponents) * p._norms).sum(axis=1)


def _null_spaces(p: MatrixPolynomial, points: np.ndarray, side: str, offered=None, isolated=None):
    """Null vectors of P at each row of a (K, arity) stack of points.

    The one null-vector rule of the package: v is a null vector of P at z
    when ||P v|| (||v^T P|| on the left), or its singular value, is at most
    ``DEFAULT_TOL_ZERO`` times the term scale of P at z, a bound on ||P||_F.
    Point k keeps row k of an ``offered`` (K, n) stack of unit vectors where
    ``isolated[k]`` and that row passes; the other points take the singular
    vectors that pass, smallest first, from one SVD of their P, and no SVD
    runs when none is left.  Returns ``(pz, vectors)``: P at the points and
    the list of null vectors at each.  The stack is not chunked, as the
    nodes of :func:`det_poly_univariate` are not: callers pass one point,
    the roots of one determinant, or the points of one batch of slices,
    which the sampler sizes to a chunk of companions.
    """
    pz = _evaluate_stack(p, points)
    # the term scale bounds ||P||_F >= sigma_max; where it is 0 every
    # singular value is 0, so all of them count
    bound = DEFAULT_TOL_ZERO * _term_scales(p, points)
    kept = np.zeros(len(points), dtype=bool)
    if offered is not None:
        image = pz @ offered[:, :, None] if side == "right" else offered[:, None] @ pz
        kept = isolated & (np.linalg.norm(image.reshape(-1, p.dim), axis=1) <= bound)
    vectors = [[offered[k]] if keep else [] for k, keep in enumerate(kept.tolist())]
    rest = np.flatnonzero(~kept)
    if len(rest):
        u, s, vh = np.linalg.svd(pz[rest])
        counts = np.sum(s <= bound[rest, None], axis=1)
        rows = np.conj(vh if side == "right" else u.transpose(0, 2, 1), order="C")
        for k, row, c in zip(rest.tolist(), rows, counts):
            vectors[k] = list(row[::-1][:c])
    return pz, vectors


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise InvalidSetting(f"side must be 'left' or 'right', got {side!r}")


def null_vectors_at(p: MatrixPolynomial, point, side: str) -> list[np.ndarray]:
    """Unit null vectors of P(point), smallest singular direction first.

    The SVD case of :func:`_null_spaces`: sigma <= ``DEFAULT_TOL_ZERO``
    times the term scale of P at the point, a reference that bounds
    sigma_max and keeps 1x1 and fully vanishing evaluations decidable.
    The point is read as :func:`evaluate` reads it.
    """
    _check_side(side)
    return _null_spaces(p, _point(p, point), side)[1][0]


def _batch_rows(p: MatrixPolynomial, side: str, slices: range, budget: int, phase: float):
    # the (values, vectors, residuals) rows of each slice of a batch: the
    # slices of each pivot are folded as one stack, those of each degree
    # eigensolved as one, and all their points take one _null_spaces and one
    # det call
    m, stacks = p.arity, {}
    for pivot in sorted({sl % m for sl in slices}):
        mine = [sl for sl in slices if sl % m == pivot]
        # one scalar exp per value, as a vector one may round differently
        fixed = [
            [np.exp(2j * np.pi * ((sl + phase) / budget + j / m)) for j in range(m - 1)]
            for sl in mine
        ]
        folded = _fold(p, pivot, np.array(fixed, dtype=np.complex128))
        if not np.isfinite(folded).all():
            raise NonFiniteInput("matrix entries must be finite")
        # trailing zero blocks are trimmed; a zero slice keeps all, and
        # _slice_spectra reports it
        tops = folded.shape[1] - np.argmax(np.any(folded[:, ::-1] != 0, axis=(2, 3)), axis=1)
        for sl, values, stack, top in zip(mine, fixed, folded, tops.tolist()):
            stacks[sl] = (pivot, values, stack[:top])
    spectra = {}
    for size in {len(stack) for _, _, stack in stacks.values()}:
        same = [sl for sl in slices if len(stacks[sl][2]) == size]
        spectra.update(zip(same, _slice_spectra(np.array([stacks[sl][2] for sl in same]), side)))
    points, offered, isolated, sizes = [], [], [], []
    for sl in slices:
        (pivot, values, _), (roots, eigvecs, groups) = stacks[sl], spectra[sl]
        full = np.empty((len(groups), m), dtype=np.complex128)
        full[:, [s for s in range(m) if s != pivot]] = values
        full[:, pivot] = [roots[g[0]] if len(g) == 1 else roots[g].mean() for g in groups]
        points.append(full)
        offered.append(eigvecs[[g[0] for g in groups]])
        isolated += [len(g) == 1 for g in groups]
        sizes.append(len(groups))
    points, offered = np.concatenate(points), np.concatenate(offered)
    pz, nulls = _null_spaces(p, points, side, offered, np.array(isolated, dtype=bool))
    with np.errstate(over="ignore"):  # an overflowing determinant stays inf
        dets = np.linalg.det(pz)
    counts = [len(vecs) for vecs in nulls]
    values = np.repeat(points, counts, axis=0)
    vectors = np.array([vec for vecs in nulls for vec in vecs]).reshape(-1, p.dim)
    # one scalar abs per point, as a vector one may round differently
    residuals = np.array([abs(dets[k]) for k, c in enumerate(counts) for _ in range(c)])
    ends = np.cumsum([0] + counts)[np.cumsum([0] + sizes)].tolist()
    return [(values[lo:hi], vectors[lo:hi], residuals[lo:hi]) for lo, hi in zip(ends, ends[1:])]


def sample_variety(p: MatrixPolynomial, side: str, count: int, seed: int) -> VarietySample:
    """Sample zeros of the multivariate determinant polynomial.

    Parameters
    ----------
    p : MatrixPolynomial with arity >= 2.
    side : 'left' or 'right'; which null vectors to attach.
    count : stop once at least this many points were collected.
    seed : phases the walk along the unit circle; >= 0, read modulo 2**53.

    At most ``4 * count + 8`` slices are taken.  Each slice fixes every
    variable except a round-robin pivot at equispaced points of the unit
    circle, and takes the eigenpairs of the univariate slice from one block
    companion eigensolve (:func:`_slice_spectra`), linearizing the
    transposed slice for left null vectors.  Each cluster of roots becomes
    a point at its centroid, and :func:`_null_spaces` takes the points as
    one stack, offered the top blocks of their eigenvectors: a cluster, or
    an isolated root whose vector fails, takes the vectors of an SVD of P,
    so a repeated root yields one row per null vector.  Slices with no
    finite eigenvalue contribute nothing; a slice that is rank-deficient at
    every test point propagates IdenticallySingular, and the zero
    polynomial raises it before any slice is folded.  The rows are returned
    as one :class:`VarietySample`, in the order found.

    Slices are folded and eigensolved a batch at a time: ceil(points still
    wanted / (total degree * n)) slices, at most the budget left and
    ``linalg.chunk_size((total degree * n) ** 2)``.  The walk stops after
    the same slice as one of a slice at a time, and after a batch that
    raises it goes on a slice at a time, so an error comes from its slice.
    """
    if p.arity < 2:
        raise DimensionMismatch(f"sample_variety needs arity >= 2, got {p.arity}")
    _check_side(side)
    if operator.index(count) < 1:
        raise InvalidSetting("count must be >= 1")
    if operator.index(seed) < 0:
        raise InvalidSetting("seed must be >= 0")
    if not p.terms:
        raise IdenticallySingular("zero polynomial matrix")
    budget = 4 * count + 8
    phase = math.fmod(seed % 2**53 * 0.6180339887498949, 1.0)
    most = max(1, total_degree(p) * p.dim)  # eigenvalues of one slice at most
    cap, start, rows, found = linalg.chunk_size(most**2), 0, [], 0
    while found < count and start < budget:
        size = min(-(-(count - found) // most), budget - start, cap)
        try:
            batch = _batch_rows(p, side, range(start, start + size), budget, phase)
        except Exception:
            if size == 1:
                raise
            cap = 1  # walk on a slice at a time, to the slice that raises
            continue
        start += size
        for part in batch:
            rows.append(part)
            found += len(part[2])
            if found >= count:
                break
    if not found:
        raise NoPointsFound(f"no variety points found in {budget} slices")
    values, vectors, residuals = (np.concatenate(column) for column in zip(*rows))
    return VarietySample(values, vectors, residuals, side)
