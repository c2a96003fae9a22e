"""Per-point references for the batched spectral path.

Each function repeats, one root, point, candidate or class at a time, what the
library computes on stacks, built from the public single-point functions.
Tests compare the two with ``np.array_equal``: the batched code keeps the
scalar arithmetic, so the results must agree bit for bit.  Two references
read single items through the library's private stacked helpers:
:func:`term_scale`, the term scale of P at one point from the cached
coefficient norms, and :func:`iter_solution_classes`, the classes of a root
pool as root tuples.
:func:`equation_lhs_with_identity` is the left-hand side with the constant
term multiplied by I, where the library adds the constant as it is.
"""

import itertools
import math

import numpy as np

from matpolyeq import linalg
from matpolyeq.errors import SingularMatrix, TransformSingular
from matpolyeq.polymatrix import (
    DEFAULT_TOL_ZERO,
    ROOT_CLUSTER_TOL,
    _slice_spectrum,
    evaluate,
    fix_all_but,
    null_vectors_at,
)
from matpolyeq.solver import (
    MIN_SAMPLE_COUNT,
    Diagnostic,
    Orientation,
    SolutionFamily,
    _class_indices,
    eigen_candidates,
    family_from_points,
    verify_residual,
)


def term_scale(p, point):
    """Triangle-inequality magnitude bound for ``evaluate(p, point)``.

    The sum over terms of |z|^e times the coefficient's Frobenius norm, one
    term at a time, at one point read as ``evaluate`` reads it.
    """
    z = np.abs(linalg._checked(point, (p.arity,), "point"))
    return float(sum(np.prod(z**e) * norm for e, norm in zip(p.exponents, p._norms)))


def iter_solution_classes(pool, n):
    """Yield all n-element sub-multisets of the root pool in lexicographic order."""
    items = sorted(pool, key=lambda rm: linalg.lex_key(rm[0]))
    for idx in _class_indices([mult for _, mult in items], n):
        yield tuple(items[i][0] for i in idx)


def poly_roots_per_root(sp, cluster_tol=ROOT_CLUSTER_TOL):
    """Balanced scalar companion eigenvalues, then union-find clustering of pairs.

    With c_lo and c_hi the lowest and highest nonzero coefficients, gamma =
    (|c_lo| / |c_hi|)^(1 / (hi - lo)) and 2^q the power of two nearest it,
    the roots are 2^q times the eigenvalues of the companion of the monic
    polynomial in z / 2^q.  Two roots cluster when they lie within
    ``cluster_tol * (2^q + the larger modulus)`` of each other.  Each
    cluster becomes its centroid; no root is polished.
    """
    c = sp.trimmed().coefficients
    d = len(c) - 1
    nonzero = np.flatnonzero(c)
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    gamma = 1.0
    if hi > lo:
        gamma = float((np.linalg.norm(c[lo]) / np.linalg.norm(c[hi])) ** (1.0 / (hi - lo)))
    q = math.floor(math.log2(gamma) + 0.5)
    scaled = c * 2.0 ** (q * np.arange(d + 1))
    companion = np.zeros((d, d), dtype=np.complex128)
    companion[:-1, 1:] = np.eye(d - 1)
    companion[-1] = -np.linalg.solve(scaled[d:, None], scaled[None, :d])[0]
    raw = 2.0**q * np.linalg.eigvals(companion)
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            reach = cluster_tol * max(abs(raw[i]), abs(raw[j])) + cluster_tol * 2.0**q
            if abs(raw[i] - raw[j]) <= reach:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    clustered = [(complex(np.mean(raw[idx])), len(idx)) for idx in groups.values()]
    clustered.sort(key=lambda rm: linalg.lex_key(rm[0]))
    return clustered


def equation_lhs_with_identity(eq, xs):
    """The left-hand side of a non-sandwich equation, the constant times I.

    ``xs[s]`` is unknown s as an (n, n) matrix or a (K, n, n) stack.  Each
    monomial is the product of the unknowns' powers, x^e taken as
    ((x x) x) ..., and the constant term's monomial is the identity.
    """
    eye = np.eye(eq.dim, dtype=np.complex128)
    acc = np.zeros(xs[0].shape, dtype=np.complex128)
    for exps, coeff in zip(eq.poly.exponents.tolist(), eq.poly.stack):
        mono = None
        for x, e in zip(xs, exps):
            if e:
                power = x
                for _ in range(e - 1):
                    power = power @ x
                mono = power if mono is None else mono @ power
        mono = eye if mono is None else mono
        acc += mono @ coeff if eq.orientation is Orientation.UNKNOWNS_LEFT else coeff @ mono
    return acc


def sample_variety_per_point(p, side, count, seed):
    """``sample_variety`` one root at a time.

    The eigenvalues of each slice, the top blocks of their eigenvectors and
    their clusters come from the library's own slice eigensolve, so what is
    compared is the stacked acceptance, null-space and determinant path.
    The rule restated here: a root alone in its cluster keeps its vector v
    when ||P(z) v|| (||v^T P(z)|| on the left) <= ``DEFAULT_TOL_ZERO`` *
    term_scale(P, z); a cluster, at its centroid, and a rejected root take
    every vector of ``null_vectors_at``.
    Returns the ``(values, null_vector, det_residual)`` triples.
    """
    m = p.arity
    budget = 4 * count + 8
    phase = seed % 2**53 * 5566755282872656 % 2**53 / 2**53
    points = []
    for sl in range(budget):
        if len(points) >= count:
            break
        pivot = sl % m
        pos = (sl + phase) / budget
        fixed = np.array([np.exp(2j * np.pi * (pos + j / m)) for j in range(m - 1)])
        roots, eigvecs, groups = _slice_spectrum(fix_all_but(p, pivot, fixed), side)
        for group in groups:
            point = np.insert(fixed, pivot, np.mean(roots[group]))
            pz = evaluate(p, point)
            dres = abs(np.linalg.det(pz))
            if len(group) == 1:
                vec = eigvecs[group[0]]
                image = pz @ vec if side == "right" else vec @ pz
                if np.linalg.norm(image) <= DEFAULT_TOL_ZERO * term_scale(p, point):
                    points.append((point, vec, dres))
                    continue
            points.extend((point, vec, dres) for vec in null_vectors_at(p, point, side))
    return points


def greedy_select_per_candidate(null_vectors, det_residuals, n):
    """Indices chosen by distance from the span of the chosen null vectors.

    Starts from the first smallest determinant residual.  Each step measures
    every unchosen candidate's distance from that span with its own
    ``lstsq`` solve and takes the first farthest one.  Returns the indices
    and the number of steps whose best distance was tied.
    """
    if len(null_vectors) < n:
        return None, 0
    start = min(range(len(det_residuals)), key=lambda i: det_residuals[i])
    chosen = [start]
    ties = 0
    while len(chosen) < n:
        span = np.column_stack([null_vectors[j] for j in chosen])
        best_j, best_d, dists = -1, -1.0, []
        for j in range(len(null_vectors)):
            if j in chosen:
                continue
            v = null_vectors[j]
            coef, *_ = np.linalg.lstsq(span, v, rcond=None)
            d = float(np.linalg.norm(v - span @ coef))
            dists.append(d)
            if d > best_d:
                best_j, best_d = j, d
        ties += dists.count(best_d) > 1
        chosen.append(best_j)
    return chosen, ties


def solve_multivariate_per_point(eq, cfg):
    """``solve_multivariate`` from the per-point sampler and greedy loop.

    Returns ``(families, diagnostics)``; families is None when every attempt
    fails.
    """
    side = "left" if eq.orientation is Orientation.UNKNOWNS_LEFT else "right"
    n = eq.dim
    count = max(MIN_SAMPLE_COUNT, 3 * n)
    diagnostics = []
    for attempt in range(8):
        triples = sample_variety_per_point(eq.poly, side, count, cfg.seed + attempt)
        if not triples:
            failure = f"NoPointsFound: no variety points found in {4 * count + 8} slices"
            diagnostics.append(Diagnostic(f"attempt {attempt}", failure))
            continue
        values, vectors, residuals = zip(*triples)
        chosen, _ = greedy_select_per_candidate(vectors, residuals, n)
        if chosen is None:
            diagnostics.append(
                Diagnostic(f"attempt {attempt}", f"only {len(triples)} points, need {n}")
            )
            continue
        try:
            family = family_from_points(
                eq, [values[j] for j in chosen], [vectors[j] for j in chosen], cfg
            )
        except TransformSingular as exc:
            diagnostics.append(Diagnostic(f"attempt {attempt}", str(exc)))
            continue
        return [family], diagnostics
    return None, diagnostics


def solve_univariate_per_class(eq, cfg):
    """``solve_univariate`` on a pool of simple roots, one class at a time.

    Classes come from ``iter_solution_classes``; each stacks the unit null
    vectors of its roots and goes through the per-matrix ``linalg.inverse``
    and ``verify_residual``.  Returns ``(families, diagnostics)`` for the
    first ``cfg.max_classes`` classes, without the truncation diagnostic.
    """
    left = eq.orientation is Orientation.UNKNOWNS_LEFT
    pool = eigen_candidates(eq)
    units = {}
    for root, _ in pool:
        (vec,) = null_vectors_at(eq.poly, [root], "left" if left else "right")
        units[root] = vec / np.linalg.norm(vec)
    families, diagnostics = [], []
    for cls in itertools.islice(iter_solution_classes(pool, eq.dim), cfg.max_classes):
        label = "class (" + ", ".join(f"{r.real:.6g}{r.imag:+.6g}j" for r in cls) + ")"
        rows = np.array([units[root] for root in cls])
        stack = rows if left else rows.T
        lam = np.array(cls, dtype=np.complex128)
        try:
            inv, cond = linalg.inverse(stack)
        except SingularMatrix as exc:
            diagnostics.append(Diagnostic(label, f"TransformSingular: {exc}"))
            continue
        x = (inv * lam) @ stack if left else (stack * lam) @ inv
        resid = verify_residual(eq, [x])
        if resid <= cfg.tol_residual:
            families.append(SolutionFamily(stack, [lam], [x], resid, cond))
        else:
            failure = f"residual {resid:.3e} exceeds tol_residual {cfg.tol_residual:.0e}"
            diagnostics.append(Diagnostic(label, failure))
    return families, diagnostics
