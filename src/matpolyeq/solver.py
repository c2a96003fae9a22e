"""Solvers for structured matrix polynomial equations.

An equation is a polynomial with square matrix coefficients plus an
orientation saying on which side of the coefficients the unknown matrices
sit.  Solving goes through the scalar spectrum: eigenvalues of P supply
candidate eigenvalues, null vectors of P there supply shared-eigenvector
candidates, and stacking n of them into an invertible transform
reconstructs unknowns of the form X_s = T F_s T^{-1}.  The univariate path
takes its eigenvalues from the roots of the determinant polynomial; the
multivariate path takes the slice eigenvalues from the companion eigensolve.

The univariate path first takes the null space at every root, then lets a
root enter classes at most as often as it has null vectors, so a root
without one leaves the pool, as it does in the multivariate sampler.  It
enumerates eigenvalue classes of that pool as tuples of root indices and
assembles them in one batch loop: a chunk of classes becomes one index
array, which gathers a (K, n, n) stack of transforms whose rank test,
inverse (the identity replacing a singular one, in a chunk that has one),
reconstruction and residual are computed together.  Directions are
fitted only for the classes with a wide root, one whose null space holds
more than one vector, and truncation is seen one class past
``max_classes``.  The multivariate path assembles a transform from sampled
variety points as a batch of one.  Both go through the same assembler, so
they share one singular-value gate and one relative residual acceptance,
the normalisation of :func:`verify_residual`.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import linalg
from .errors import (
    DegreeZero,
    DimensionMismatch,
    FactorCheckFailed,
    InsufficientRoots,
    InvalidSetting,
    NoPointsFound,
    NonFiniteInput,
    NotASolution,
    NotSimultaneouslyDiagonalizable,
    SingularMatrix,
    TransformSingular,
)
from .polymatrix import (
    MatrixPolynomial,
    VarietySample,
    _cluster_roots,
    _coefficients,
    _evaluate_stack,
    _null_spaces,
    det_poly_univariate,
    poly_roots,
    sample_variety,
    total_degree,
)


class Orientation(Enum):
    UNKNOWNS_LEFT = "left"
    UNKNOWNS_RIGHT = "right"
    SANDWICH_BIVARIATE = "sandwich"


#: Exponent tuple occupied by each named slot of the bivariate sandwich template.
SANDWICH_SLOTS = {
    "A": (2, 0),
    "B": (0, 2),
    "C": (1, 1),
    "D": (1, 0),
    "E": (0, 1),
    "F": (0, 0),
}

#: Fewest variety points a multivariate solve samples; it takes 3n when larger.
MIN_SAMPLE_COUNT = 32
#: Sampling attempts of a multivariate solve, attempt k with seed + k.
ATTEMPTS = 8
#: Relative off-diagonal mass allowed when the sandwich probe diagonalizes
#: both candidates in one eigenbasis.
JOINT_DIAGONAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class StructuredEquation:
    """A matrix polynomial equated to zero, with an unknown-placement tag."""

    poly: MatrixPolynomial
    orientation: Orientation

    def __post_init__(self):
        if not isinstance(self.orientation, Orientation):
            raise DimensionMismatch(f"invalid orientation {self.orientation!r}")
        if self.orientation is Orientation.SANDWICH_BIVARIATE:
            if self.poly.arity != 2:
                raise DimensionMismatch("sandwich orientation requires arity 2")
            allowed = set(SANDWICH_SLOTS.values())
            for exps in self.poly.terms:
                if exps not in allowed:
                    raise DimensionMismatch(
                        f"term {exps} falls outside the six-slot sandwich template"
                    )

    @property
    def dim(self) -> int:
        return self.poly.dim

    @property
    def arity(self) -> int:
        return self.poly.arity


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, class cap and sampling seed shared by the solve operations."""

    tol_residual: float = 1e-8
    max_classes: int = 200
    seed: int = 0

    def __post_init__(self):
        _check_positive(self.tol_residual, "tol_residual")
        if operator.index(self.max_classes) < 1:
            raise InvalidSetting("max_classes must be >= 1")
        if operator.index(self.seed) < 0:
            raise InvalidSetting("seed must be >= 0")


def _check_positive(tol: float, name: str) -> None:
    # the rule of every tolerance setting; a nan tolerance fails it too
    if not tol > 0:
        raise InvalidSetting(f"{name} must be positive")


@dataclass
class SolutionFamily:
    """One reconstructed solution: a shared transform plus eigenvalue diagonals.

    ``transform`` is the right-eigenvector stack T for UNKNOWNS_RIGHT and the
    left-eigenvector stack W = T^{-1} for UNKNOWNS_LEFT.
    """

    transform: np.ndarray
    eigenvalues: list[np.ndarray]
    unknowns: list[np.ndarray]
    residual: float
    transform_condition: float


@dataclass
class Diagnostic:
    """A non-silent per-root, per-class or per-attempt failure record."""

    label: str
    failure: str


@dataclass
class SolveResult:
    families: list[SolutionFamily] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def _fmt_c(z: complex) -> str:
    return f"{z.real:.6g}{z.imag:+.6g}j"


def _monomial(powers: list[list[np.ndarray | None]], exps: list[int]) -> np.ndarray | None:
    # the product of the unknowns' powers, None for the constant term
    acc = None
    for s, e in enumerate(exps):
        if e:
            acc = powers[s][e] if acc is None else acc @ powers[s][e]
    return acc


def _matrix_powers(x: np.ndarray, kmax: int) -> list[np.ndarray | None]:
    # x^0 is never read: the constant term takes no monomial
    out = [None, x]
    for _ in range(2, kmax + 1):
        out.append(out[-1] @ x)
    return out


def _unknown_list(unknowns) -> list:
    if not np.iterable(unknowns):
        raise DimensionMismatch(f"expected a sequence of unknowns, got {type(unknowns).__name__}")
    return list(unknowns)


def _checked_unknowns(eq: StructuredEquation, unknowns) -> list[np.ndarray]:
    xs = _unknown_list(unknowns)
    if len(xs) != eq.arity:
        raise DimensionMismatch(f"expected {eq.arity} unknowns, got {len(xs)}")
    return [linalg._checked(x, (eq.dim, eq.dim), "unknown") for x in xs]


def equation_lhs(eq: StructuredEquation, unknowns) -> np.ndarray:
    """Left-hand side of the equation at candidate unknown matrices."""
    return _lhs(eq, _checked_unknowns(eq, unknowns))


def _lhs(eq: StructuredEquation, xs: list[np.ndarray]) -> np.ndarray:
    # xs[s] holds unknown s as an (n, n) matrix or a (K, n, n) stack of them
    n = eq.dim
    if eq.orientation is Orientation.SANDWICH_BIVARIATE:
        x, y = xs
        zero = np.zeros((n, n), dtype=np.complex128)
        slot = {name: eq.poly.terms.get(key, zero) for name, key in SANDWICH_SLOTS.items()}
        return (
            x @ slot["A"] @ x
            + y @ slot["B"] @ y
            + x @ slot["C"] @ y
            + x @ slot["D"]
            + y @ slot["E"]
            + slot["F"]
        )
    kmax = eq.poly.exponents.max(axis=0, initial=0).tolist()
    powers = [_matrix_powers(xs[s], kmax[s]) for s in range(eq.arity)]
    acc = np.zeros(xs[0].shape, dtype=np.complex128)
    for exps, coeff in zip(eq.poly.exponents.tolist(), eq.poly.stack):
        mono = _monomial(powers, exps)
        if mono is None:
            # the constant term sorts first, so acc is all +0.0 here and
            # adding C gives the bits that adding C I would
            acc += coeff
        elif eq.orientation is Orientation.UNKNOWNS_LEFT:
            acc += mono @ coeff
        else:
            acc += coeff @ mono
    return acc


def verify_residual(eq: StructuredEquation, unknowns) -> float:
    """Relative Frobenius residual of the equation at candidate unknowns.

    Normalized by 1 + (sum of coefficient norms) * max(1, max ||X_s||_F)^N
    with N the total degree, so the same tolerance is meaningful across
    scales and degrees.  Overflow in the left-hand side or the unknowns
    makes it inf or nan, never small.  A coefficient whose squared entries
    leave the double range has an inf norm, and the residual then reads 0
    or nan whatever the candidate: check such an equation with its
    coefficients divided by a common factor, which keeps its solutions.
    """
    xs = _checked_unknowns(eq, unknowns)
    return float(_relative_residuals(eq, [x[None] for x in xs])[0])


def _relative_residuals(eq: StructuredEquation, xs: list[np.ndarray]) -> np.ndarray:
    # residuals of K candidates at once; xs[s] is the (K, n, n) stack of unknown s
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = _lhs(eq, xs)
        coeff_sum = float(eq.poly._norms.sum())
        xmax = np.max([np.linalg.norm(x, axis=(-2, -1)) for x in xs], axis=0)
        denom = 1.0 + coeff_sum * np.maximum(1.0, xmax) ** total_degree(eq.poly)
        return np.linalg.norm(lhs, axis=(-2, -1)) / denom


def eigen_candidates(eq: StructuredEquation) -> list[tuple[complex, int]]:
    """Roots of the determinant polynomial: the eigenvalue pool for all solutions."""
    if eq.arity != 1:
        raise DimensionMismatch("eigen_candidates needs a univariate equation")
    return poly_roots(det_poly_univariate(eq.poly))


def _class_indices(mults: list[int], n: int):
    """The n-element sub-multisets of a root pool, as tuples of root indices.

    Index i appears at most ``mults[i]`` times.  Classes come in
    lexicographic index order, most copies of the first root first, so a
    pool of simple roots gives its n-combinations.  Raises
    ``InsufficientRoots`` at once when the pool holds fewer than n roots.
    """
    if sum(mults) < n:
        raise InsufficientRoots(
            f"root pool has total multiplicity {sum(mults)} < dimension {n}"
        )
    if all(mult == 1 for mult in mults):
        return itertools.combinations(range(len(mults)), n)
    suffix = list(itertools.accumulate(reversed(mults), initial=0))[::-1]

    def rec(idx: int, remaining: int):
        if remaining == 0:
            yield ()
            return
        for take in range(min(mults[idx], remaining), -1, -1):
            if suffix[idx + 1] < remaining - take:
                continue
            for tail in rec(idx + 1, remaining - take):
                yield (idx,) * take + tail

    return rec(0, n)


def _select_directions(basis: list[np.ndarray], current: np.ndarray, r: int) -> np.ndarray:
    # pick r unit vectors inside span(basis) maximizing independence from the
    # rows of current; any combination of null vectors is still null
    B = np.column_stack(basis)
    G = B
    if len(current):
        proj, *_ = np.linalg.lstsq(current.T, B, rcond=None)
        G = B - current.T @ proj
    _, _, vh = np.linalg.svd(G)
    chosen = vh[:r].conj() @ B.T
    norms = np.linalg.norm(chosen, axis=1, keepdims=True)
    return chosen / np.where(norms > 0, norms, 1.0)


def _assemble_families(
    eq: StructuredEquation, eigenvalues: np.ndarray, vectors: np.ndarray, cfg: SolverConfig
) -> list[SolutionFamily | TransformSingular | NotASolution]:
    """Reconstruct and gate K candidate families at once.

    ``vectors[k, j]`` is the j-th null vector of candidate k and
    ``eigenvalues[s, k, j]`` its eigenvalue for unknown s.  The vectors are
    the rows of W for UNKNOWNS_LEFT (X_s = W^-1 F_s W) and the columns of T
    for UNKNOWNS_RIGHT (X_s = T F_s T^-1).  Returns, per candidate, its
    family or the error it was rejected with, unraised.
    """
    left = eq.orientation is Orientation.UNKNOWNS_LEFT
    stack = vectors if left else vectors.transpose(0, 2, 1)
    inv, cond, failures = linalg.inverse_stack(stack)
    if left:
        xs = [(inv * lam[:, None, :]) @ stack for lam in eigenvalues]
    else:
        xs = [(stack * lam[:, None, :]) @ inv for lam in eigenvalues]
    resid = _relative_residuals(eq, xs)
    tol = cfg.tol_residual
    # families hold row views of the stacks; positional fields are faster
    return [
        TransformSingular(f"TransformSingular: {failure}")
        if failure is not None
        else NotASolution(f"residual {res:.3e} exceeds tol_residual {tol:.0e}")
        if not res <= tol  # a nan residual fails too
        else SolutionFamily(transform, list(spectrum), list(unknowns), res, cnd)
        for transform, spectrum, unknowns, res, cnd, failure in zip(
            stack, zip(*eigenvalues), zip(*xs), resid.tolist(), cond.tolist(), failures
        )
    ]


def _class_batches(
    eq: StructuredEquation, roots: np.ndarray, nulls: list, indices, cfg: SolverConfig
):
    """Outcomes of a stream of classes of a root pool, per chunk.

    ``roots`` holds the pool in lexicographic order, ``nulls[i]`` the null
    space basis at ``roots[i]`` and ``indices`` an iterator of classes from
    :func:`_class_indices`.  A chunk's classes become one (K, n) index array
    that gathers their eigenvalues and unit null vectors.  A root repeats in
    a class only when its null space is wider than one vector, so only the
    classes with such a wide root get their directions fitted: the other
    roots keep their vectors, and then each wide root in turn takes the
    vectors of its null space that lie farthest from all those in place.
    Yields ``(classes, outcomes)`` per chunk, ``classes`` as a (K, n) array.
    """
    # each root's first null vector, normalised
    units = np.array([b[0] / np.linalg.norm(b[0]) for b in nulls], dtype=np.complex128)
    wide = np.array([len(b) > 1 for b in nulls])
    n = eq.dim
    size = linalg.chunk_size(n * n)
    while True:
        chunk = itertools.chain.from_iterable(itertools.islice(indices, size))
        idx = np.fromiter(chunk, dtype=np.intp).reshape(-1, n)
        if not len(idx):
            return
        vectors = units[idx]
        for k in np.flatnonzero(wide[idx].any(axis=1)):
            placed = ~wide[idx[k]]
            for i in np.unique(idx[k, ~placed]):
                slots = idx[k] == i
                vectors[k, slots] = _select_directions(nulls[i], vectors[k, placed], slots.sum())
                placed |= slots
        classes = roots[idx]
        yield classes, _assemble_families(eq, classes[None], vectors, cfg)


def solve_univariate(eq: StructuredEquation, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a one-unknown equation by eigenvalue-class enumeration.

    Every n-sub-multiset of the determinant-polynomial roots is a candidate
    spectrum, with each root used at most as often as P has independent
    null vectors there (Tisseur & Meerbergen, SIAM Rev. 2001): the null
    spaces at all roots come from one stacked SVD, a root whose null space
    is thinner than its multiplicity is reported once in the diagnostics,
    and a root without null vectors leaves the pool.  For each class, null
    vectors at the class roots are stacked into the transform, r
    orthonormal ones for a root taken r times.  Classes are enumerated as
    tuples of root indices and assembled in one batch loop, a chunk of
    stacked transforms at a time; only the classes with a wide root, one
    whose null space holds more than one vector, have their directions
    fitted, the wide roots last.  The enumeration stops at
    ``cfg.max_classes`` and is reported truncated when one more class
    follows.  Classes with singular stacks or failing residuals are
    reported in the diagnostics, in class order, never returned.  Raises
    ``InsufficientRoots``, carrying the root diagnostics, when the capped
    pool holds fewer than n roots.
    """
    cfg = cfg or SolverConfig()
    if eq.arity != 1:
        raise DimensionMismatch("solve_univariate needs a univariate equation")
    try:
        pool = eigen_candidates(eq)
    except DegreeZero as exc:
        raise InsufficientRoots(str(exc)) from exc
    side = eq.orientation.value
    roots = np.array([root for root, _ in pool], dtype=np.complex128)
    _, nulls = _null_spaces(eq.poly, roots[:, None], side)
    diagnostics = [
        Diagnostic(f"root {_fmt_c(root)}", f"null space has dimension {len(b)} < multiplicity {m}")
        for (root, m), b in zip(pool, nulls)
        if len(b) < m
    ]
    keep = [i for i, b in enumerate(nulls) if b]
    mults = [min(pool[i][1], len(nulls[i])) for i in keep]
    try:
        indices = _class_indices(mults, eq.dim)
    except InsufficientRoots as exc:
        exc.diagnostics = diagnostics
        raise
    families: list[SolutionFamily] = []
    rejected: list[Diagnostic] = []
    # no pool yields more classes than islice can count
    head = itertools.islice(indices, min(cfg.max_classes, sys.maxsize))
    for classes, outcomes in _class_batches(eq, roots[keep], [nulls[i] for i in keep], head, cfg):
        for k, outcome in enumerate(outcomes):
            if isinstance(outcome, SolutionFamily):
                families.append(outcome)
            else:
                label = "class (" + ", ".join(_fmt_c(r) for r in classes[k]) + ")"
                rejected.append(Diagnostic(label, str(outcome)))
    if next(indices, None) is not None:
        diagnostics.append(
            Diagnostic("class enumeration", f"truncated at max_classes={cfg.max_classes}")
        )
    return SolveResult(families=families, diagnostics=diagnostics + rejected)


def _greedy_select(sample: VarietySample, n: int) -> list[int] | None:
    # column-pivoted Gram-Schmidt: start from the smallest determinant
    # residual, then repeatedly add the first point whose null vector lies
    # farthest from the span of those chosen.  Column j of resid is what is
    # left of null vector j; each pick projects one direction out of all
    # columns, elementwise so that equal columns stay bit-equal
    if len(sample) < n:
        return None
    resid = sample.null_vectors.T.copy(order="K")
    basis = np.empty((resid.shape[0], 0), dtype=np.complex128)
    taken = np.zeros(len(sample), dtype=bool)
    chosen = [int(np.argmin(sample.det_residuals))]
    while True:
        taken[chosen[-1]] = True
        q = resid[:, chosen[-1]]
        q = q - basis @ (basis.conj().T @ q)  # one reorthogonalization pass
        norm = np.linalg.norm(q)
        if norm > 0.0:
            q /= norm
            basis = np.column_stack([basis, q])
            resid -= q[:, None] * (q.conj()[:, None] * resid).sum(axis=0)
        if len(chosen) == n:
            return chosen
        score = np.linalg.norm(resid, axis=0)
        score[taken] = -1.0
        chosen.append(int(np.argmax(score)))


def family_from_points(
    eq: StructuredEquation, values, null_vectors, cfg: SolverConfig | None = None
) -> SolutionFamily:
    """Assemble one solution family from n variety points.

    ``values`` is the (n, arity) array of the points and ``null_vectors``
    the (n, n) array of their null vectors, one row per point.  Column
    (row) k of the stacked bracket equals P(point_k) applied to the k-th
    null vector, which vanishes by construction, so any n points with an
    invertible stack yield an exact solution.  The points are taken in
    lexicographic order of their values.  Raises ``TransformSingular`` for
    a singular stack and ``NotASolution`` for a family over the residual gate.
    """
    cfg = cfg or SolverConfig()
    n = eq.dim
    values = linalg._checked(values, (n, eq.arity), "values")
    vectors = linalg._checked(null_vectors, (n, n), "null_vectors")
    rows = values.tolist()
    order = sorted(range(n), key=lambda k: tuple(map(linalg.lex_key, rows[k])))
    eigenvalues = values[order].T[:, None]
    (outcome,) = _assemble_families(eq, eigenvalues, vectors[order][None], cfg)
    if not isinstance(outcome, SolutionFamily):
        raise outcome
    return outcome


def solve_multivariate(eq: StructuredEquation, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve a several-unknown equation from sampled variety points.

    Samples max(``MIN_SAMPLE_COUNT``, 3n) zeros of det P with null vectors
    on the side matching the orientation, then greedily picks n rows of the
    sample by column-pivoted Gram-Schmidt (Businger & Golub, Numer. Math.
    1965): start from the smallest determinant residual and repeatedly add
    the point whose null vector lies farthest from the span of those
    chosen.  The chosen rows go to :func:`family_from_points` as arrays.
    Ill-conditioned selections are retried with a fresh seed stream up to
    ``ATTEMPTS`` attempts.
    """
    cfg = cfg or SolverConfig()
    if eq.arity < 2:
        raise DimensionMismatch("solve_multivariate needs arity >= 2")
    if eq.orientation is Orientation.SANDWICH_BIVARIATE:
        raise DimensionMismatch("no constructive solver exists for the sandwich case")
    side = eq.orientation.value
    n = eq.dim
    diagnostics: list[Diagnostic] = []
    sampled_any = False
    for attempt in range(ATTEMPTS):
        try:
            sample = sample_variety(
                eq.poly, side, count=max(MIN_SAMPLE_COUNT, 3 * n), seed=cfg.seed + attempt
            )
        except NoPointsFound as exc:
            diagnostics.append(Diagnostic(f"attempt {attempt}", f"NoPointsFound: {exc}"))
            continue
        sampled_any = True
        chosen = _greedy_select(sample, n)
        if chosen is None:
            diagnostics.append(
                Diagnostic(f"attempt {attempt}", f"only {len(sample)} points, need {n}")
            )
            continue
        try:
            family = family_from_points(eq, sample.values[chosen], sample.null_vectors[chosen], cfg)
        except (TransformSingular, NotASolution) as exc:
            diagnostics.append(Diagnostic(f"attempt {attempt}", str(exc)))
            continue
        return SolveResult(families=[family], diagnostics=diagnostics)
    if not sampled_any:
        raise NoPointsFound(
            "every sampling attempt came back empty", diagnostics=diagnostics
        )
    raise TransformSingular(
        f"no well-conditioned transform within {ATTEMPTS} attempts", diagnostics=diagnostics
    )


def quotient_factor(
    eq: StructuredEquation, x, tol_residual: float = 1e-8
) -> MatrixPolynomial:
    """Quotient Q with P(z) = (zI - X) Q(z) for an accepted solution X.

    Q(z) = sum_k z^k B_k with B_k = sum_{j>k} X^{j-k-1} A_j, computed by the
    backward recurrence B_{k-1} = A_k + X B_k.  The identity is checked at
    p*n + 1 sample nodes before returning.
    """
    if eq.arity != 1:
        raise DimensionMismatch("quotient_factor needs a univariate equation")
    if eq.orientation is not Orientation.UNKNOWNS_LEFT:
        raise DimensionMismatch("quotient_factor applies to unknowns-left equations")
    _check_positive(tol_residual, "tol_residual")
    n = eq.dim
    xm = linalg._checked(x, (n, n), "candidate")
    resid = verify_residual(eq, [xm])
    if not resid <= tol_residual:  # a nan residual fails too
        raise NotASolution(f"residual {resid:.3e} exceeds {tol_residual:.0e}")
    coeffs = _coefficients(eq.poly)
    p = len(coeffs) - 1
    if p < 1:
        raise DegreeZero("constant equations admit no linear factor")
    quotient = [None] * p
    quotient[p - 1] = coeffs[p]
    for k in range(p - 1, 0, -1):
        quotient[k - 1] = coeffs[k] + xm @ quotient[k]
    q = MatrixPolynomial(
        arity=1, dim=n, terms={(k,): quotient[k] for k in range(p)}
    )
    eye = np.eye(n, dtype=np.complex128)
    nodes = np.exp(2j * np.pi * np.arange(p * n + 1) / (p * n + 1))
    pz = _evaluate_stack(eq.poly, nodes[:, None])
    qz = _evaluate_stack(q, nodes[:, None])
    gaps = np.linalg.norm(pz - (nodes[:, None, None] * eye - xm) @ qz, axis=(1, 2))
    failing = np.flatnonzero(gaps > 1e-8 * (1.0 + np.linalg.norm(pz, axis=(1, 2))))
    if failing.size:
        k = failing[0]
        raise FactorCheckFailed(f"identity off by {gaps[k]:.3e} at z={_fmt_c(nodes[k])}")
    return q


def commutation_check(unknowns) -> float:
    """Largest normalized pairwise commutator norm; 0 for a single unknown."""
    xs = _unknown_list(unknowns)
    if not xs:
        raise DimensionMismatch("expected at least 1 unknown, got 0")
    n = len(linalg.as_matrix(xs[0]))  # the first unknown sets the shape of all
    return float(_commutations([linalg._checked(x, (n, n), "unknown")[None] for x in xs])[0])


def _commutations(xs: list[np.ndarray]) -> np.ndarray:
    # commutation_check of K candidates at once; xs[s] is the (K, n, n) stack of unknown s
    if not all(np.isfinite(x).all() for x in xs):
        raise NonFiniteInput("matrix entries must be finite")
    norms = [np.linalg.norm(x, axis=(-2, -1)) for x in xs]
    worst = np.zeros(len(xs[0]))
    for i, j in itertools.combinations(range(len(xs)), 2):
        comm = np.linalg.norm(xs[i] @ xs[j] - xs[j] @ xs[i], axis=(-2, -1))
        # fmax skips the nan of a pair whose products overflowed
        worst = np.fmax(worst, comm / (1.0 + norms[i] * norms[j]))
    return worst


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


@dataclass
class SandwichProbeRow:
    """Sandwich diagnostics of one eigenpair.

    ``scalar_identity`` is |g_k P(alpha_k, mu_k) t_k|, the quantity that
    provably vanishes for simultaneously diagonalizable solutions;
    ``det_probe`` is |det P(alpha_k, mu_k)|, reported without a pass/fail
    threshold.
    """

    alpha: complex
    mu: complex
    scalar_identity: float
    identity_scale: float
    det_probe: float


def _joint_eigenbasis(x: np.ndarray, y: np.ndarray):
    vals, vecs = linalg.eigen(x)
    # refine eigenvector choice inside each cluster of repeated eigenvalues,
    # wherever its members sort, so that y becomes diagonal there too, when
    # possible
    for group in _cluster_roots(vals, 1.0):
        if len(group) == 1:
            continue
        block = vecs[:, group]
        restricted, _, rank, _ = np.linalg.lstsq(block, y @ block, rcond=None)
        if rank < len(group):
            raise NotSimultaneouslyDiagonalizable(
                "first matrix has no well-conditioned eigenvector basis"
            )
        sub_vals, sub_vecs = linalg.eigensolve(np.linalg.eig, restricted)
        refined = block @ sub_vecs[:, linalg.lex_argsort(sub_vals)]
        norms = np.linalg.norm(refined, axis=0)
        norms[norms == 0] = 1.0
        vecs[:, group] = refined / norms
    try:
        vecs_inv, _ = linalg.inverse(vecs, tol_rank=1e-12)
    except SingularMatrix as exc:
        raise NotSimultaneouslyDiagonalizable(
            "first matrix has no well-conditioned eigenvector basis"
        ) from exc
    dx = vecs_inv @ x @ vecs
    dy = vecs_inv @ y @ vecs
    for name, d in (("first", dx), ("second", dy)):
        off = d - np.diag(np.diag(d))
        if np.linalg.norm(off) > JOINT_DIAGONAL_TOL * (1.0 + np.linalg.norm(d)):
            raise NotSimultaneouslyDiagonalizable(
                f"{name} matrix is not diagonal in the shared basis"
                f" (off-diagonal mass {np.linalg.norm(off):.3e})"
            )
    return vecs, vecs_inv, np.diag(dx), np.diag(dy)


def sandwich_probe(eq: StructuredEquation, x, y) -> list[SandwichProbeRow]:
    """Diagnose a candidate (X, Y) pair for the bivariate sandwich equation.

    Extracts a shared eigenbasis from X, checks that it diagonalizes X and
    Y to ``JOINT_DIAGONAL_TOL``, and returns one row per eigenpair
    (alpha_k, mu_k): the scalar identity g_k P(alpha_k, mu_k) t_k together
    with |det P| there.
    """
    if eq.orientation is not Orientation.SANDWICH_BIVARIATE:
        raise DimensionMismatch("sandwich_probe needs a sandwich equation")
    n = eq.dim
    xm, ym = linalg._checked(x, (n, n), "x"), linalg._checked(y, (n, n), "y")
    T, T_inv, alphas, mus = _joint_eigenbasis(xm, ym)
    stack = _evaluate_stack(eq.poly, np.stack([alphas, mus], axis=1))
    rows = []
    for k, pk in enumerate(stack):
        g = T_inv[k]
        t = T[:, k]
        identity = complex(g @ pk @ t)
        scale = float(
            np.linalg.norm(g) * np.linalg.norm(t) * max(1.0, np.linalg.norm(pk))
        )
        rows.append(
            SandwichProbeRow(
                alpha=complex(alphas[k]),
                mu=complex(mus[k]),
                scalar_identity=abs(identity),
                identity_scale=scale,
                det_probe=abs(np.linalg.det(pk)),
            )
        )
    return rows
