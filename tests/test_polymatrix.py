import cmath
import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import symbolic_det_oracle
from per_point import poly_roots_per_root, sample_variety_per_point, term_scale

from matpolyeq import polymatrix
from matpolyeq.errors import (
    ConvergenceFailure,
    DegreeZero,
    DimensionMismatch,
    IdenticallySingular,
    NonFiniteInput,
    NoPointsFound,
)
from matpolyeq.instances import plant_instance
from matpolyeq.polymatrix import (
    DEFAULT_TOL_ZERO,
    MatrixPolynomial,
    ScalarPolynomial,
    _evaluate_stack,
    _slice_spectrum,
    det_poly_univariate,
    evaluate,
    fix_all_but,
    null_vectors_at,
    poly_roots,
    sample_variety,
    total_degree,
)
from matpolyeq.solver import Orientation

I1 = np.eye(1)
I2 = np.eye(2)


def random_integer_poly(rng, n, degree, arity=1):
    terms = {}
    for exps in np.ndindex(*([degree + 1] * arity)):
        if sum(exps) <= degree:
            terms[exps] = rng.integers(-5, 6, (n, n)).astype(complex)
    return MatrixPolynomial(arity=arity, dim=n, terms=terms)


def test_evaluate_constant():
    a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = MatrixPolynomial(arity=1, dim=2, terms={(0,): a0})
    assert np.allclose(evaluate(p, [17.0 + 3j]), a0)


def test_evaluate_root_of_quadratic():
    p = MatrixPolynomial(arity=1, dim=2, terms={(2,): I2, (0,): -I2})
    assert np.allclose(evaluate(p, [1.0]), np.zeros((2, 2)))


def test_evaluate_bivariate():
    p = MatrixPolynomial(arity=2, dim=2, terms={(2, 0): I2, (0, 2): 2 * I2})
    assert np.allclose(evaluate(p, [1.0, 2.0]), 9 * I2)


def test_evaluate_arity_mismatch():
    p = MatrixPolynomial(arity=2, dim=1, terms={(1, 0): I1})
    with pytest.raises(DimensionMismatch):
        evaluate(p, [1.0])


def test_fix_all_but_annihilates_variable():
    b = np.array([[2.0, 0.0], [1.0, 1.0]])
    p = MatrixPolynomial(arity=2, dim=2, terms={(2, 0): I2, (0, 2): b})
    sliced = fix_all_but(p, 1, [0.0])
    assert set(sliced.terms) == {(2,)}
    assert np.allclose(sliced.terms[(2,)], b)


def test_fix_all_but_scalar_fold():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = MatrixPolynomial(arity=2, dim=2, terms={(1, 1): c})
    sliced = fix_all_but(p, 1, [2.0])
    assert np.allclose(sliced.terms[(1,)], 2 * c)


def test_fix_all_but_constant():
    p = MatrixPolynomial(arity=3, dim=1, terms={(0, 0, 0): 5 * I1})
    sliced = fix_all_but(p, 2, [1.0, 2.0])
    assert np.allclose(sliced.terms[(0,)], 5 * I1)


def test_zero_polynomial_of_several_variables_raises_before_folding():
    # no dense slice of a 300 x 300 zero polynomial is ever built
    p = MatrixPolynomial(arity=2, dim=300, terms={})
    tracemalloc.start()
    try:
        with pytest.raises(IdenticallySingular, match="^zero polynomial matrix$"):
            sample_variety(p, "right", count=8, seed=0)
        sliced = fix_all_but(p, 1, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (sliced.arity, sliced.dim, sliced.terms) == (1, 300, {})
    with pytest.raises(IdenticallySingular, match="^zero polynomial matrix$"):
        det_poly_univariate(sliced)


def test_fold_overflow_is_non_finite_input_without_a_warning():
    # y + y^2 with 1e308 coefficients overflows in the fold of every slice
    big = 1e308 * I2
    p = MatrixPolynomial(arity=2, dim=2, terms={(1, 0): I2, (0, 1): big, (0, 2): big})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="^matrix entries must be finite$"):
            sample_variety(p, "right", count=8, seed=0)
        with pytest.raises(NonFiniteInput, match="^matrix entries must be finite$"):
            fix_all_but(p, 0, [1.0])


def test_slice_consistency_random():
    rng = np.random.default_rng(10)
    for _ in range(20):
        arity = int(rng.integers(2, 4))
        p = random_integer_poly(rng, 2, 2, arity)
        pivot = int(rng.integers(0, arity))
        fixed = rng.standard_normal(arity - 1) + 1j * rng.standard_normal(arity - 1)
        z = complex(rng.standard_normal() + 1j * rng.standard_normal())
        merged = list(fixed)
        merged.insert(pivot, z)
        a = evaluate(fix_all_but(p, pivot, fixed), [z])
        b = evaluate(p, merged)
        assert np.linalg.norm(a - b) <= 1e-12 * (1.0 + np.linalg.norm(b))


def test_det_poly_diagonal_example():
    p = MatrixPolynomial(arity=1, dim=2, terms={(2,): I2, (0,): np.diag([-1.0, -4.0])})
    coeffs = det_poly_univariate(p).coefficients
    assert np.allclose(coeffs, [4.0, 0.0, -5.0, 0.0, 1.0], atol=1e-9)


def test_det_poly_scalar():
    p = MatrixPolynomial(arity=1, dim=1, terms={(1,): I1, (0,): -3 * I1})
    assert np.allclose(det_poly_univariate(p).coefficients, [-3.0, 1.0])


def test_det_poly_matches_symbolic_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_integer_poly(rng, 3, 2)
        exact = symbolic_det_oracle(p).coefficients
        approx = det_poly_univariate(p).coefficients
        k = max(len(exact), len(approx))
        pe = np.zeros(k, complex)
        pa = np.zeros(k, complex)
        pe[: len(exact)] = exact
        pa[: len(approx)] = approx
        assert np.max(np.abs(pe - pa)) <= 1e-6 * np.max(np.abs(pe))


def test_det_poly_identically_singular():
    # rank-1 coefficient structure forces det P == 0
    col = np.array([[1.0, 1.0], [2.0, 2.0]])
    p = MatrixPolynomial(arity=1, dim=2, terms={(1,): col, (0,): 3 * col})
    with pytest.raises(IdenticallySingular):
        det_poly_univariate(p)


@pytest.mark.parametrize("scale", [1e-8, 1e8])
def test_det_poly_zero_test_is_scale_free(scale):
    # a rank-one P stays singular and a planted P stays regular at any scale
    col = np.array([[1.0, 1.0], [2.0, 2.0]])
    p = MatrixPolynomial(arity=1, dim=2, terms={(1,): scale * col, (0,): 3 * scale * col})
    with pytest.raises(IdenticallySingular):
        det_poly_univariate(p)
    inst = plant_instance(4, 1, 2, Orientation.UNKNOWNS_LEFT, 61)
    terms = {exps: scale * a for exps, a in inst.equation.poly.terms.items()}
    regular = MatrixPolynomial(arity=1, dim=4, terms=terms)
    assert det_poly_univariate(regular).degree == 8


def test_det_poly_overflow_is_non_finite_input_without_a_warning():
    # det P at the nodes is about 1e370: out of range, not identically zero
    inst = plant_instance(8, 1, 2, Orientation.UNKNOWNS_LEFT, 3)
    terms = {exps: 1e45 * a for exps, a in inst.equation.poly.terms.items()}
    p = MatrixPolynomial(arity=1, dim=8, terms=terms)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInput, match="^det P leaves the double range at the sample"):
            det_poly_univariate(p)


def test_det_poly_underflow_is_non_finite_input_without_a_warning():
    # the same instance times 1e-45: det P and its bound ||P(z)||_F ** n both
    # underflow to 0, which the zero test would read as identically singular.
    # Times 1e-41 or 1e-40 the bound stays normal, but coefficients of det P
    # that survive the snap are subnormal, and have lost their precision
    inst = plant_instance(8, 1, 2, Orientation.UNKNOWNS_LEFT, 3)
    cases = ((1e-45, True), (1e-41, True), (1e-40, True), (1e-39, False), (1e-30, False))
    for scale, raises in cases:
        terms = {exps: scale * a for exps, a in inst.equation.poly.terms.items()}
        p = MatrixPolynomial(arity=1, dim=8, terms=terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if raises:
                with pytest.raises(NonFiniteInput, match="^det P leaves the double range at the"):
                    det_poly_univariate(p)
            else:
                assert det_poly_univariate(p).degree == 16


@pytest.mark.parametrize("coeffs", [[1e-320, 1.0], [1.0, 0.0, 1e-318]], ids=["lo", "hi"])
def test_root_scale_of_a_subnormal_block(coeffs):
    # a block whose largest entry is subnormal scales by ldexp, as 2^-e for
    # its exponent e overflows; the scale is the exactly rounded one
    with localcontext() as ctx:
        ctx.prec = 40
        ratio = Decimal(coeffs[0]) / Decimal(coeffs[-1])
        want = float(ratio ** (Decimal(1) / (len(coeffs) - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = polymatrix._root_scale(np.array(coeffs, dtype=np.complex128)[:, None, None])
    assert got == want


def test_det_poly_degree_bound():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 4))
        p = random_integer_poly(rng, n, degree)
        top = p.terms.get((degree,))
        if top is None or abs(np.linalg.det(top)) < 1e-6:
            continue
        sp = det_poly_univariate(p)
        assert sp.trimmed().degree == n * degree


def test_eval_interp_consistency():
    rng = np.random.default_rng(13)
    for _ in range(8):
        n = int(rng.integers(1, 7))
        degree = int(rng.integers(1, 5))
        p = random_integer_poly(rng, n, degree)
        try:
            sp = det_poly_univariate(p)
        except IdenticallySingular:
            continue
        zs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        direct = np.array([np.linalg.det(evaluate(p, [z])) for z in zs])
        interp = np.polyval(sp.coefficients[::-1], zs)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - interp)) <= 1e-7 * scale


def test_poly_roots_factored_quadratic():
    roots = poly_roots(ScalarPolynomial([2.0, -3.0, 1.0]))
    assert len(roots) == 2
    assert roots[0][0] == pytest.approx(1.0) and roots[0][1] == 1
    assert roots[1][0] == pytest.approx(2.0) and roots[1][1] == 1


def test_poly_roots_quartic():
    roots = poly_roots(ScalarPolynomial([4.0, 0.0, -5.0, 0.0, 1.0]))
    values = [r for r, _ in roots]
    assert np.allclose(values, [-2.0, -1.0, 1.0, 2.0])
    assert all(m == 1 for _, m in roots)


def test_poly_roots_double_root():
    roots = poly_roots(ScalarPolynomial([1.0, -2.0, 1.0]))
    assert len(roots) == 1
    root, mult = roots[0]
    assert root == pytest.approx(1.0, abs=1e-6)
    assert mult == 2


def test_poly_roots_degree_zero():
    with pytest.raises(DegreeZero):
        poly_roots(ScalarPolynomial([3.0]))
    with pytest.raises(DegreeZero):
        poly_roots(ScalarPolynomial([0.0, 0.0]))


def test_root_count_matches_degree():
    rng = np.random.default_rng(14)
    for _ in range(10):
        degree = int(rng.integers(1, 9))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        sp = ScalarPolynomial(coeffs)
        total = sum(m for _, m in poly_roots(sp))
        assert total == sp.trimmed().degree


def test_poly_roots_at_extreme_coefficient_scale():
    # (z - i)(z - 2i)(z - 3i) times 1e±200: the squared coefficients leave the
    # double range, but the root scale and the roots must not change
    base = np.array([6j, -11.0, -6j, 1.0])
    want = poly_roots(ScalarPolynomial(base))
    for scale in (1e200, 1e-200):
        got = poly_roots(ScalarPolynomial(scale * base))
        assert [m for _, m in got] == [m for _, m in want] == [1, 1, 1]
        assert np.allclose([r for r, _ in got], [r for r, _ in want], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "coeffs, want",
    [
        # the lowest and highest coefficients differ by more than the double
        # range, so their ratio underflows
        ([1e-200, 0.0, 1e200], [-1e-200j, 1e-200j]),
        ([1e-170, 1.0, 1e170], [(-1 - 3**0.5 * 1j) / 2e170, (-1 + 3**0.5 * 1j) / 2e170]),
        # two roots 2e-150 apart are distinct: the cluster radius scales
        # with the roots, not with 1
        ([1e-150, 0.0, 1e150], [-1e-150j, 1e-150j]),
    ],
    ids=["ratio-1e-400", "ratio-1e-340", "close-pair"],
)
def test_poly_roots_beyond_the_double_range(coeffs, want):
    got = poly_roots(ScalarPolynomial(coeffs))
    assert [m for _, m in got] == [1, 1]
    for (root, _), exact in zip(got, want):
        assert abs(root - exact) <= 1e-14 * abs(exact)


def test_roots_at_the_ends_of_the_double_range_without_a_warning():
    # a root at 1e-320 is subnormal but in range: the scaled blocks of the
    # companion are subnormal too, and one power of two lifts them exactly.
    # A root at 1e-600 or 1e320 leaves the range, and its root scale is 0 or
    # inf.  The slices of 1e-320 z1^2 + z1 + 1 + z2 have the root scale 1e160
    # and a root near -1e320, which leaves the range once unscaled
    far = MatrixPolynomial(arity=1, dim=1, terms={(0,): I1, (1,): 1e-320 * I1})
    near = MatrixPolynomial(arity=1, dim=1, terms={(0,): 1e-300 * I1, (1,): 1e300 * I1})
    sampled = MatrixPolynomial(arity=2, dim=1, terms={(1, 0): 1e300 * I1, (0, 1): 1e-300 * I1})
    terms = {(2, 0): 1e-320 * I1, (1, 0): I1, (0, 1): I1, (0, 0): I1}
    beyond = MatrixPolynomial(arity=2, dim=1, terms=terms)
    message = "^a root of P leaves the double range$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert poly_roots(ScalarPolynomial([1e-320, 1.0])) == [(-1e-320 + 0j, 1)]
        with pytest.raises(NonFiniteInput, match=message):
            poly_roots(ScalarPolynomial([1e-300, 1e300]))
        for p in (far, near):
            with pytest.raises(NonFiniteInput, match=message):
                _slice_spectrum(p)
            with pytest.raises(NonFiniteInput, match=message):
                det_poly_univariate(p)
        for p in (sampled, beyond):
            with pytest.raises(NonFiniteInput, match=message):
                sample_variety(p, "right", 4, 0)
        with pytest.raises(NonFiniteInput, match=message):
            _slice_spectrum(fix_all_but(beyond, 0, [0.5j]))


def test_null_spaces_take_the_svd_where_the_image_norm_overflows():
    # P = 1e300 z1 + z2 + 1e-300 at z = (1, 1e290 - 1e300) is about 1e290:
    # its norm overflows when squared, fails the bound, and the point takes
    # the SVD, whose singular value 1e290 is below the bound 2e294
    p = MatrixPolynomial(
        arity=2, dim=1, terms={(1, 0): 1e300 * I1, (0, 1): I1, (0, 0): 1e-300 * I1}
    )
    points = np.array([[1.0, 1e290 - 1e300]], dtype=np.complex128)
    offered = np.ones((1, 1), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pz, (vectors,) = polymatrix._null_spaces(p, points, "right", offered, np.array([True]))
    assert abs(pz[0, 0, 0]) > 1e154
    assert len(vectors) == 1 and abs(vectors[0][0]) == 1.0


def test_poly_roots_far_from_the_root_scale_without_a_warning():
    # 1e-300 + z^19 + z^20 has the root scale 1e-15, so the companion
    # eigenvector of the root -1 has a top entry whose norm underflows: its
    # unit null vector is not finite, and the roots need none
    c = np.zeros(21, dtype=np.complex128)
    c[[0, 19, 20]] = 1e-300, 1.0, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = poly_roots(ScalarPolynomial(c))
    # -1 to within an eps, not bit for bit: over the family c0 + z^(d-1) +
    # z^d, d = 3-39 and c0 = 1e-300 ... 1e-20 (259 members), balancing by
    # the power of two nearest the root scale finds -1 exactly on 162
    # members, and balancing by the float root scale on 83, so an exact -1
    # here would pin one rounding, not the method
    assert abs(got[0][0] + 1.0) <= np.finfo(float).eps and got[0][1] == 1
    assert sum(m for _, m in got) == 20


def test_poly_roots_match_per_root_reference():
    # random polynomials, some with a repeated factor and a close pair so
    # that clustering is exercised, up to degree 64, the degree of det P at
    # n = 32, then linear ones and ones with a zero constant term, whose
    # lowest nonzero coefficient sets the scale
    rng = np.random.default_rng(21)
    inputs = []
    for trial in range(60):
        degree = int(rng.integers(1, 13) if trial < 40 else rng.integers(13, 65))
        roots = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
        if trial % 3 == 0 and degree > 2:
            roots[1] = roots[0]
            roots[2] = roots[0] * (1 + 1e-9)
        inputs.append(np.poly(roots)[::-1] * (rng.standard_normal() + 1j))
    inputs += [[2.0 - 1j, 3.0 + 0.5j], [0.0, 1.0], [1e-6, -2e3], [0.0, 0.0, 1.0]]
    inputs += [[0.0, 2.0, -3.0, 1.0], [0.0, 0.0, 4.0, 0.0, 1.0], [0.0, 1e-3j, 1.0, 1e2]]
    for coeffs in inputs:
        sp = ScalarPolynomial(coeffs)
        assert poly_roots(sp) == poly_roots_per_root(sp)


def expanded_spectrum(p, side="right"):
    values, _, groups = _slice_spectrum(p, side)
    return [np.mean(values[g]) for g in groups for _ in g]


def assert_simple_eigenvectors_accepted(p, side):
    # the sampler's acceptance rule holds for the vector of every eigenvalue
    # alone in its cluster: ||P(z) v|| (||v^T P(z)|| on the left) within
    # DEFAULT_TOL_ZERO of the term scale of P at z
    values, vectors, groups = _slice_spectrum(p, side)
    for (k,) in (g for g in groups if len(g) == 1):
        pz = evaluate(p, [values[k]])
        image = pz @ vectors[k] if side == "right" else vectors[k] @ pz
        assert np.linalg.norm(vectors[k]) == pytest.approx(1.0)
        assert np.linalg.norm(image) <= DEFAULT_TOL_ZERO * term_scale(p, [values[k]])


def test_slice_spectrum_matches_symbolic_oracle():
    # every other slice gets a leading coefficient of rank < n, which sends
    # it through the reversal; the count of finite eigenvalues must still be
    # the degree of det P, so no infinite eigenvalue survives.  Both sides,
    # the transposed linearization included, give the spectrum, and the
    # eigenvector of every simple eigenvalue is a null vector of P there
    rng = np.random.default_rng(17)
    reversed_slices = 0
    for trial in range(120):
        n = int(rng.integers(1, 5))
        degree = int(rng.integers(1, 4))
        p = random_integer_poly(rng, n, degree)
        terms = dict(p.terms)
        if trial % 2:
            rank = int(rng.integers(0, n))
            left = rng.integers(-3, 4, (n, rank))
            terms[(degree,)] = (left @ rng.integers(-3, 4, (rank, n))).astype(complex)
        p = MatrixPolynomial(arity=1, dim=n, terms=terms)
        exact = symbolic_det_oracle(p).coefficients
        if not np.any(exact) or (degree,) not in p.terms:
            continue
        top = p.terms[(degree,)]
        reversed_slices += np.linalg.matrix_rank(top) < n
        for side in ("right", "left"):
            want = np.roots(exact[::-1]) if len(exact) > 1 else np.zeros(0)
            got = expanded_spectrum(p, side)
            assert len(got) == len(want)
            for z in got:
                gap = np.abs(want - z)
                j = int(np.argmin(gap))
                assert gap[j] <= 1e-8 * (1.0 + abs(want[j]))
                want = np.delete(want, j)
            assert_simple_eigenvectors_accepted(p, side)
    assert reversed_slices >= 30


def test_slice_spectrum_infinite_and_degree_zero():
    z_top = np.diag([1.0, 0.0])
    # diag(z, 1): one root at 0 and one infinite eigenvalue
    p = MatrixPolynomial(arity=1, dim=2, terms={(1,): z_top, (0,): np.diag([0.0, 1.0])})
    (root,), _, groups = _slice_spectrum(p)
    assert abs(root) <= 1e-12 and groups == [[0]]
    # [[1, z], [0, 1]] has det 1: every eigenvalue is infinite
    unimodular = MatrixPolynomial(
        arity=1, dim=2, terms={(1,): np.array([[0.0, 1.0], [0.0, 0.0]]), (0,): I2}
    )
    assert _slice_spectrum(unimodular)[2] == []
    assert _slice_spectrum(MatrixPolynomial(arity=1, dim=2, terms={(0,): I2}))[2] == []
    with pytest.raises(IdenticallySingular):
        _slice_spectrum(MatrixPolynomial(arity=1, dim=2, terms={(0,): z_top}))


@pytest.mark.parametrize("seed", range(6))
def test_sample_variety_double_eigenvalue_keeps_both_null_vectors(seed):
    # P(x, y) = ((x - 0.7)^2 + y - 1) I2: every zero is a double eigenvalue
    # of its slice with a two-dimensional null space
    p = MatrixPolynomial(
        arity=2,
        dim=2,
        terms={(2, 0): I2, (1, 0): -1.4 * I2, (0, 1): I2, (0, 0): -0.51 * I2},
    )
    sample = sample_variety(p, "right", count=8, seed=seed)
    groups = {}
    for values, vector in zip(sample.values, sample.null_vectors):
        x, y = values
        assert abs((x - 0.7) ** 2 + y - 1.0) <= 1e-12
        groups.setdefault(values.tobytes(), []).append(vector)
    values = [np.frombuffer(key, dtype=np.complex128) for key in groups]
    for i, a in enumerate(values):
        for b in values[:i]:
            assert np.linalg.norm(a - b) > 1e-6
    for first, second in groups.values():
        assert abs(np.vdot(first, second)) <= 1e-12


@pytest.mark.parametrize("side, null", [("right", [1, 0]), ("left", [0, 1])])
def test_sample_variety_jordan_block_takes_one_vector_per_point(side, null):
    # P(x, y) = [[x - y, 1], [0, x - y]]: every slice root is double with a
    # one-dimensional null space, e1 on the right and e2 on the left (y^T P =
    # 0), so its two eigenvalues cluster and the SVD at the centroid gives
    # exactly one row per distinct point
    p = MatrixPolynomial(
        arity=2,
        dim=2,
        terms={(1, 0): I2, (0, 1): -I2, (0, 0): np.array([[0.0, 1.0], [0.0, 0.0]])},
    )
    sample = sample_variety(p, side, count=8, seed=0)
    assert len(sample) >= 8
    for i, ((x, y), vector) in enumerate(zip(sample.values, sample.null_vectors)):
        assert abs(x - y) <= 1e-12
        assert abs(np.vdot(null, vector)) == pytest.approx(1.0, abs=1e-12)
        for other in sample.values[:i]:
            assert np.linalg.norm(sample.values[i] - other) > 1e-6


def test_companion_eigensolve_failure_is_a_package_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # np.linalg.eig is the one eigensolve: of the slices and of a polynomial
    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        sample_variety(p, "right", count=4, seed=0)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        poly_roots(ScalarPolynomial([2.0, -3.0, 1.0]))


def test_sample_variety_rank_one_slices_identically_singular():
    col = np.array([[1.0, 0.0], [1.0, 0.0]])
    p = MatrixPolynomial(arity=2, dim=2, terms={(1, 0): col, (0, 1): 2 * col, (0, 0): col})
    with pytest.raises(IdenticallySingular):
        sample_variety(p, "right", count=4, seed=0)


@pytest.mark.parametrize("side", ["left", "right"])
def test_sample_variety_matches_per_point_reference(side):
    for n, m, degree, seed in ((4, 2, 2, 1), (5, 3, 2, 2), (12, 2, 3, 0)):
        p = plant_instance(n, m, degree, Orientation.UNKNOWNS_RIGHT, seed).equation.poly
        got = sample_variety(p, side, 3 * n, seed)
        want = sample_variety_per_point(p, side, 3 * n, seed)
        assert got.side == side
        assert len(got) == len(want)
        rows = zip(got.values, got.null_vectors, got.det_residuals.tolist())
        for (values, vector, dres), (want_values, want_vector, want_dres) in zip(rows, want):
            assert np.array_equal(values, want_values)
            assert np.array_equal(vector, want_vector)
            assert dres == want_dres


def assert_sample_matches_per_point(p, side, count, seed):
    got = sample_variety(p, side, count, seed)
    values, vectors, residuals = zip(*sample_variety_per_point(p, side, count, seed))
    assert np.array_equal(got.values, np.array(values))
    assert np.array_equal(got.null_vectors, np.array(vectors))
    assert np.array_equal(got.det_residuals, np.array(residuals))
    return got


def overshoot(monkeypatch):
    # the first batch guess of a walk reads the total degree of P: at 0 each
    # batch holds as many slices as points are still wanted
    real = polymatrix.total_degree
    monkeypatch.setattr(polymatrix, "total_degree", lambda p: real(p) if p.arity == 1 else 0)


def spy(monkeypatch, module, name):
    # record the positional arguments of each call of module.name
    calls, real = [], getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


MIXED = MatrixPolynomial(
    arity=2,
    dim=2,
    terms={
        (2, 0): np.diag([1.0, 0.0]),
        (1, 1): np.array([[0.0, 1.0], [2.0, -1.0]]),
        (0, 2): I2,
        (1, 0): np.array([[1.0, -2.0], [0.5, 3.0]]),
        (0, 1): np.array([[2.0, 1.0], [-1.0, 0.0]]),
        (0, 0): np.array([[-3.0, 1.0], [1.0, -2.0]]),
    },
)
# degree 2 in x, 1 in y: a slice of y gives at most n points, half of what
# the first batch of a walk counts on
LOW_PIVOT = MatrixPolynomial(
    arity=2,
    dim=2,
    terms={
        (2, 0): np.array([[1.0, 2.0], [0.0, 1.0]]),
        (0, 1): np.array([[1.0, 0.0], [1.0, -1.0]]),
        (0, 0): np.array([[-2.0, 1.0], [0.0, -3.0]]),
    },
)
DOUBLE = MatrixPolynomial(
    arity=2, dim=2, terms={(2, 0): I2, (1, 0): -1.4 * I2, (0, 1): I2, (0, 0): -0.51 * I2}
)


@pytest.mark.parametrize("side", ["left", "right"])
def test_sample_variety_batches_match_per_point_slices(monkeypatch, side):
    # the x slices of MIXED have the singular leading block diag(1, 0) and
    # take the reversal; its y slices, with leading block I, do not
    reversals = spy(monkeypatch, polymatrix, "_reversal")
    assert_sample_matches_per_point(MIXED, side, 12, 3)
    assert reversals
    assert all(np.array_equal(coeffs[2], np.diag([1.0, 0.0])) for coeffs, _ in reversals)
    # the first batch of 3 slices gives at most 4 + 2 + 4 < 12 points
    batches = spy(monkeypatch, polymatrix, "_batch_rows")
    assert_sample_matches_per_point(LOW_PIVOT, side, 12, 1)
    assert len(batches) >= 2 and len(batches[0][2]) == 3
    # every zero is a double eigenvalue: each cluster takes its two vectors
    # from the SVD of P at its centroid
    sample = assert_sample_matches_per_point(DOUBLE, side, 16, 2)
    assert len(np.unique(sample.values, axis=0)) * 2 == len(sample)


@pytest.mark.parametrize("side", ["left", "right"])
def test_sample_variety_batch_size_is_invisible(monkeypatch, side):
    stacks = spy(monkeypatch, np.linalg, "eig")
    # 600 points at n = 2 take several batches of at most chunk_size slices
    assert_sample_matches_per_point(LOW_PIVOT, side, 600, 0)
    cap = polymatrix.linalg.CHUNK_ENTRIES
    assert all(a.shape[0] * a.shape[1] ** 2 <= cap for (a,) in stacks)
    # a small chunk makes many batches, and a total degree of 0 makes each
    # batch as long as the points still wanted, far past the last slice
    monkeypatch.setattr(polymatrix.linalg, "CHUNK_ENTRIES", 32)
    stacks.clear()
    assert_sample_matches_per_point(MIXED, side, 40, 1)
    assert len(stacks) > 10
    assert all(a.shape[0] * a.shape[1] ** 2 <= 32 for (a,) in stacks)
    monkeypatch.undo()
    overshoot(monkeypatch)
    for p in (MIXED, LOW_PIVOT, DOUBLE):
        assert_sample_matches_per_point(p, side, 24, 0)


def companion_of_slice(monkeypatch, p, side, count, seed, sl):
    # the companion that the eigensolve of slice sl of a walk receives
    m, budget = p.arity, 4 * count + 8
    pos = (sl + seed % 2**53 * 5566755282872656 % 2**53 / 2**53) / budget
    fixed = [np.exp(2j * np.pi * (pos + j / m)) for j in range(m - 1)]
    with monkeypatch.context() as patch:
        calls = spy(patch, np.linalg, "eig")
        _slice_spectrum(fix_all_but(p, sl % m, fixed), side)
    (((companion,),),) = calls
    return companion


@pytest.mark.parametrize("past", [True, False])
def test_sample_variety_eigensolver_fault_stays_in_its_slice(monkeypatch, past):
    # the circle x^2 + y^2 = 2 gives 2 points a slice: 8 points take slices
    # 0-3.  With a total degree of 0 the first batch holds 8 slices, so a
    # fault in slice 4 is in the batch but past the end of the walk
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    want = sample_variety(p, "right", 8, 0)
    marked = companion_of_slice(monkeypatch, p, "right", 8, 0, 4 if past else 3)
    real, faults = np.linalg.eig, []

    def eig(a):
        if any(np.array_equal(x, marked) for x in a):
            faults.append(len(a))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(a)

    overshoot(monkeypatch)
    monkeypatch.setattr(np.linalg, "eig", eig)
    if past:
        got = sample_variety(p, "right", 8, 0)
        assert faults == [8]
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.null_vectors, want.null_vectors)
        assert np.array_equal(got.det_residuals, want.det_residuals)
    else:
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            sample_variety(p, "right", 8, 0)
        assert faults == [8, 1]


def test_sample_variety_reads_seed_modulo_2_53():
    # every seed below 2**53 is a double, and any larger one samples as its remainder
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    with pytest.raises(OverflowError):
        10**400 * 0.5
    for seed in (2**53, 2**53 + 7, 2**64 + 3, 10**400):
        got = sample_variety(p, "right", count=4, seed=seed)
        want = sample_variety(p, "right", count=4, seed=seed % 2**53)
        assert len(got) >= 4
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.null_vectors, want.null_vectors)
        assert np.array_equal(got.det_residuals, want.det_residuals)
    assert not np.array_equal(
        sample_variety(p, "right", 4, 2**53 + 1).values, sample_variety(p, "right", 4, 0).values
    )


def test_sample_variety_phase_is_exact_for_large_seeds():
    # from about 2**51 the float product seed * GOLDEN has few fraction bits
    # left, and 2**52 and 2**52 + 3 both gave the phase 0; in integers,
    # GOLDEN * 2**53 exactly, the phases stay apart, and they are the float
    # product's for the seeds 0-26
    golden_53 = 5566755282872656
    assert golden_53 == polymatrix.GOLDEN * 2**53
    for seed in range(27):
        assert seed * golden_53 % 2**53 / 2**53 == math.fmod(seed * polymatrix.GOLDEN, 1.0)
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    first, second = (sample_variety(p, "right", 4, s) for s in (2**52, 2**52 + 3))
    assert not np.array_equal(first.values, second.values)
    # GOLDEN has 49 significant bits, so seeds 2**49 apart share a phase
    shifted = sample_variety(p, "right", 4, 2**52 + 3 + 2**49)
    assert np.array_equal(shifted.values, second.values)


def at_variable_scale(coeffs, k):
    # the coefficients of P(2^-k z): block j times 2^(-k j), exactly
    blocks = np.ascontiguousarray(coeffs).reshape(len(coeffs), -1).view(np.float64)
    scaled = np.ldexp(blocks, -k * np.arange(len(coeffs))[:, None])
    return scaled.view(np.complex128).reshape(coeffs.shape)


def times_power_of_two(z, k):
    parts = np.array(z, dtype=np.complex128, ndmin=1).view(np.float64)
    return np.ldexp(parts, k).view(np.complex128)


def univariate(coeffs):
    terms = {(k,): a for k, a in enumerate(coeffs)}
    return MatrixPolynomial(arity=1, dim=coeffs.shape[1], terms=terms)


def random_slice(rng, n, degree, singular):
    # a dense complex slice; a singular one has a rank-one A_d, so that it
    # takes the reversal
    shape = (degree + 1, n, n)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if singular:
        coeffs[degree] = np.outer(coeffs[degree][:, 0], coeffs[degree][0])
    return coeffs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1), degree=st.integers(2, 12), k=st.sampled_from([-2, -1, 1, 2])
)
def test_poly_roots_scale_with_the_variable_exactly(seed, degree, k):
    # the roots of p(2^-k z) are those of p times 2^k, bit for bit.  k is
    # small because poly_roots trims a leading coefficient below COEFF_SNAP
    # times the largest, a test that does not scale with z
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    want = [(complex(times_power_of_two(r, k)[0]), m) for r, m in poly_roots(ScalarPolynomial(c))]
    assert poly_roots(ScalarPolynomial(at_variable_scale(c, k))) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    degree=st.integers(1, 3),
    side=st.sampled_from(["left", "right"]),
    singular=st.booleans(),
    k=st.integers(-40, 40),
)
def test_slice_spectrum_scales_with_the_variable_exactly(seed, n, degree, side, singular, k):
    # the eigenvalues of P(2^-k z) are those of P times 2^k, with the same
    # null vectors and clusters, bit for bit, on the reversal too
    coeffs = random_slice(np.random.default_rng(seed), n, degree, singular)
    values, vectors, groups = _slice_spectrum(univariate(coeffs), side)
    got = _slice_spectrum(univariate(at_variable_scale(coeffs, k)), side)
    assert np.array_equal(got[0], times_power_of_two(values, k))
    assert np.array_equal(got[1], vectors)
    assert got[2] == groups


#: The exponents of a full quadratic in two variables.
QUADRATIC = [(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    side=st.sampled_from(["left", "right"]),
    singular=st.booleans(),
    j=st.integers(-300, 300),
)
def test_spectra_and_samples_ignore_a_power_of_two_on_the_coefficients(seed, n, side, singular, j):
    # 2^j P has the spectrum, the null vectors and the variety of P, bit for bit
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert poly_roots(ScalarPolynomial(times_power_of_two(c, j))) == poly_roots(ScalarPolynomial(c))
    coeffs = random_slice(rng, n, 2, singular and n > 1)
    want = _slice_spectrum(univariate(coeffs), side)
    got = _slice_spectrum(univariate(times_power_of_two(coeffs, j)), side)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    terms = {e: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for e in QUADRATIC}
    p = MatrixPolynomial(arity=2, dim=n, terms=terms)
    scaled = MatrixPolynomial(2, n, {e: times_power_of_two(a, j) for e, a in terms.items()})
    want, got = sample_variety(p, side, 3 * n, seed), sample_variety(scaled, side, 3 * n, seed)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.null_vectors, want.null_vectors)


def test_left_slice_spectrum_with_scale_beyond_double_range():
    # gamma = 1e200 and gamma^2 overflows, but the scaled blocks 2^(2q) A_2
    # do not, and both sides give the same eigenvalues
    a0 = np.array([[1.0, 2.0], [0.0, 1.0]]) * 1e200
    a2 = np.array([[1.0, 0.0], [1.0, 1.0]]) * 1e-200
    p = MatrixPolynomial(arity=1, dim=2, terms={(0,): a0, (2,): a2})
    right, left = _slice_spectrum(p, "right")[0], _slice_spectrum(p, "left")[0]
    assert len(right) == len(left) == 4
    for z in left:
        assert np.min(np.abs(right - z)) <= 1e-12 * abs(z)


@pytest.mark.parametrize("m", [2, 3])
def test_sample_variety_rows_align(m):
    p = plant_instance(4, m, 2, Orientation.UNKNOWNS_LEFT, 7).equation.poly
    sample = sample_variety(p, "left", 12, 0)
    k = len(sample)
    assert k >= 12
    assert sample.values.shape == (k, m)
    assert sample.null_vectors.shape == (k, 4)
    assert sample.det_residuals.shape == (k,)


def test_sample_variety_rejects_negative_seed():
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    with pytest.raises(ValueError, match="seed must be >= 0"):
        sample_variety(p, "right", count=4, seed=-1)


def test_sample_variety_circle():
    # x^2 + y^2 = 2: every sampled point lies on the scaled circle
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    sample = sample_variety(p, "right", count=4, seed=0)
    assert len(sample) >= 4
    for (a, b), vector in zip(sample.values, sample.null_vectors):
        assert abs(a**2 + b**2 - 2.0) <= 1e-10
        assert np.linalg.norm(vector) == pytest.approx(1.0)
        assert abs(abs(vector[0]) - 1.0) <= 1e-12
    # the first grid slice fixes the second variable at 1
    values = {tuple(np.round(v, 8)) for v in sample.values}
    assert (1.0, 1.0) in values and (-1.0, 1.0) in values


def test_fixed_slices_through_chosen_values():
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    sliced = fix_all_but(p, 1, [1.0])  # alpha fixed to 1
    roots = [r for r, _ in poly_roots(det_poly_univariate(sliced))]
    assert np.allclose(sorted(roots, key=lambda z: z.real), [-1.0, 1.0])
    sliced0 = fix_all_but(p, 1, [0.0])
    roots0 = [r for r, _ in poly_roots(det_poly_univariate(sliced0))]
    assert np.allclose(sorted(r.real for r in roots0), [-np.sqrt(2.0), np.sqrt(2.0)])


def test_sample_variety_left_soundness():
    rng = np.random.default_rng(15)
    p = random_integer_poly(rng, 2, 2, arity=2)
    sample = sample_variety(p, "left", count=8, seed=99)
    assert sample.side == "left"
    for values, vector, dres in zip(sample.values, sample.null_vectors, sample.det_residuals):
        pz = evaluate(p, values)
        smax = np.linalg.svd(pz, compute_uv=False)[0]
        assert np.linalg.norm(vector @ pz) <= 1e-6 * max(1.0, smax)
        assert dres == pytest.approx(abs(np.linalg.det(pz)), abs=1e-9)


def test_sample_variety_no_points():
    p = MatrixPolynomial(arity=2, dim=1, terms={(0, 0): I1})
    with pytest.raises(NoPointsFound):
        sample_variety(p, "right", count=2, seed=0)


def test_sample_variety_deterministic_under_seed():
    rng = np.random.default_rng(16)
    p = random_integer_poly(rng, 2, 2, arity=2)
    a = sample_variety(p, "right", count=6, seed=5)
    b = sample_variety(p, "right", count=6, seed=5)
    assert len(a) == len(b)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.null_vectors, b.null_vectors)
    assert np.array_equal(a.det_residuals, b.det_residuals)


def test_total_degree():
    const = MatrixPolynomial(arity=2, dim=1, terms={(0, 0): I1})
    assert total_degree(const) == 0
    quad = MatrixPolynomial(
        arity=2,
        dim=2,
        terms={
            (2, 0): I2,
            (0, 2): I2,
            (1, 1): I2,
            (1, 0): I2,
            (0, 1): I2,
            (0, 0): I2,
        },
    )
    assert total_degree(quad) == 2
    cubic = MatrixPolynomial(arity=3, dim=1, terms={(1, 1, 1): I1, (0, 0, 0): I1})
    assert total_degree(cubic) == 3


def test_zero_terms_dropped():
    p = MatrixPolynomial(arity=1, dim=2, terms={(0,): np.zeros((2, 2)), (1,): I2})
    assert set(p.terms) == {(1,)}


@st.composite
def tables(draw):
    """A polynomial of arity 1-3, total degree <= 5, with 1-4 points.

    Each coordinate is 0 or has modulus in [1e-3, 1e3].
    """
    arity = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 5)] * arity).filter(lambda e: sum(e) <= 5)
    keys = draw(st.lists(exps, min_size=1, max_size=8, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = {
        key: rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for key in keys
    }
    coordinate = st.one_of(
        st.just(0j),
        st.builds(
            lambda r, t: r * cmath.exp(1j * t),
            st.floats(1e-3, 1e3),
            st.floats(0.0, 2 * math.pi),
        ),
    )
    count = draw(st.integers(1, 4))
    row = st.lists(coordinate, min_size=arity, max_size=arity)
    points = draw(st.lists(row, min_size=count, max_size=count))
    return MatrixPolynomial(arity=arity, dim=dim, terms=terms), np.array(points)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=tables())
def test_evaluate_matches_python_term_sum(case):
    p, points = case
    for z in points:
        ref = np.zeros((p.dim, p.dim), dtype=complex)
        scale = 0.0
        for exps, coeff in p.terms.items():
            mono = 1 + 0j
            for v, e in zip(z.tolist(), exps):
                mono *= complex(v) ** e
            ref += mono * coeff
            scale += abs(mono) * np.linalg.norm(coeff)
        assert np.linalg.norm(evaluate(p, z) - ref) <= 1e-13 * scale


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=tables())
def test_evaluate_stack_rows_equal_single_points(case):
    p, points = case
    stacked = _evaluate_stack(p, points)
    for k, z in enumerate(points):
        assert np.array_equal(stacked[k], evaluate(p, z))


#: A real or imaginary part that stays normal times 2^j, j in [-1000, 900]:
#: 0 or of modulus in [2^-11, 2^10).
PART = st.builds(
    lambda sign, f, e: sign * math.ldexp(f, e),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-10, 10),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    dim=st.integers(1, 3),
    data=st.data(),
    j=st.integers(-1000, 900),
)
def test_norms_scale_with_the_coefficients_exactly(dim, data, j):
    # the norms of 2^j P are those of P times 2^j bit for bit, also where the
    # squares of the entries overflow or underflow
    count = data.draw(st.integers(1, 3))
    parts = data.draw(st.lists(PART, min_size=2 * count * dim**2, max_size=2 * count * dim**2))
    stack = np.array(parts).view(np.complex128).reshape(count, dim, dim)
    p, scaled = (
        MatrixPolynomial(arity=1, dim=dim, terms={(k,): a for k, a in enumerate(blocks)})
        for blocks in (stack, times_power_of_two(stack, j))
    )
    assert scaled._norms.tobytes() == np.ldexp(p._norms, j).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=tables())
def test_term_scale_bounds_evaluation(case):
    # the triangle inequality, up to the rounding of both sides
    p, points = case
    for z in points:
        assert np.linalg.norm(evaluate(p, z)) <= term_scale(p, z) * (1 + 1e-12)


def test_table_is_sorted_and_terms_are_read_only_views():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    p = MatrixPolynomial(arity=2, dim=2, terms={(1, 0): a, (0, 2): I2, (0, 0): 0 * I2})
    assert p.exponents.tolist() == [[0, 2], [1, 0]]
    assert list(p.terms) == [(0, 2), (1, 0)]
    for t, key in enumerate(p.terms):
        assert np.shares_memory(p.terms[key], p.stack)
        assert np.array_equal(p.terms[key], p.stack[t])
    with pytest.raises(ValueError):
        p.terms[(1, 0)][0, 0] = 5.0
    with pytest.raises(ValueError):
        p.stack[0] = 0.0
    with pytest.raises(ValueError):
        p.exponents[0, 0] = 3
    a[0, 0] = 99.0
    assert p.terms[(1, 0)][0, 0] == 1.0
    assert np.array_equal(evaluate(p, [1.0, 0.0]), [[1.0, 2.0], [3.0, 4.0]])


def test_empty_table():
    p = MatrixPolynomial(arity=2, dim=2, terms={(1, 1): np.zeros((2, 2))})
    assert p.exponents.shape == (0, 2) and p.stack.shape == (0, 2, 2)
    assert total_degree(p) == 0
    assert np.array_equal(evaluate(p, [1.0, 2.0]), np.zeros((2, 2)))
    assert term_scale(p, [1.0, 2.0]) == 0.0
    assert fix_all_but(p, 0, [3.0]).terms == {}


def scaled_1e160():
    # a planted n = 4 equation of two unknowns with every coefficient times
    # 1e160: the coefficients are finite, the squares of their entries are not
    inst = plant_instance(4, 2, 2, Orientation.UNKNOWNS_RIGHT, 3)
    terms = {exps: 1e160 * a for exps, a in inst.equation.poly.terms.items()}
    return MatrixPolynomial(arity=2, dim=4, terms=terms)


def test_no_null_vector_at_a_generic_point_of_coefficient_norms_past_the_double_range():
    # the coefficient norms, and so the term scale, stay finite: P is regular
    # at a generic point, times 1e160 as without it
    point = [1 + 0.5j, 0.3 - 1j]
    plain = plant_instance(4, 2, 2, Orientation.UNKNOWNS_RIGHT, 3).equation.poly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert null_vectors_at(plain, point, "right") == []
        assert null_vectors_at(scaled_1e160(), point, "right") == []


def far_root():
    # 1e-300 z1^2 + z1 + 1 + z2: each slice in z1 has one root near -1e300,
    # in range, where z1^2 and so P overflow
    terms = {(2, 0): 1e-300 * I1, (1, 0): I1, (0, 1): I1, (0, 0): I1}
    return MatrixPolynomial(arity=2, dim=1, terms=terms)


def test_a_point_where_p_overflows_gets_no_null_vectors():
    p = far_root()
    points = np.array([[-1e300, 0.5j], [-1.5 + 0.5j, 0.5 - 0.5j]])
    offered = np.ones((2, 1), dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pz, vectors = polymatrix._null_spaces(p, points, "right")
        assert not np.isfinite(pz[0]).all() and vectors[0] == []
        assert len(vectors[1]) == 1
        _, offers = polymatrix._null_spaces(p, points, "right", offered, np.ones(2, dtype=bool))
        assert offers[0] == [] and len(offers[1]) == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_sample_variety_past_a_root_where_p_overflows(side):
    # the roots near -1e300 add no points; the others lie on det P = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = sample_variety(far_root(), side, 8, 0)
    assert len(sample) >= 8 and np.all(np.isfinite(sample.values))
    z1, z2 = sample.values.T
    assert np.all(np.abs(z1 + 1e-300 * z1**2 + 1 + z2) <= 1e-12)


@pytest.mark.parametrize("side", ["left", "right"])
def test_sample_variety_at_coefficient_norms_past_the_double_range(side):
    p = scaled_1e160()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = sample_variety(p, side, 16, 0)
    assert len(sample) >= 16
    assert np.all(np.isfinite(sample.values)) and np.all(np.isfinite(sample.null_vectors))


@pytest.mark.parametrize(
    "p, k",
    [
        (MatrixPolynomial(arity=1, dim=2, terms={}), 0),
        (MatrixPolynomial(arity=1, dim=2, terms={(3,): I2, (0,): [[-0.0, 2j], [3, 4]]}), 0),
        (MatrixPolynomial(arity=2, dim=1, terms={(2, 1): I1, (0, 4): -I1, (1, 0): 2 * I1}), 0),
        (plant_instance(4, 3, 2, Orientation.UNKNOWNS_LEFT, 7).equation.poly, 0),
        # the squares of the 1e160 entries overflow: the direct norms are
        # taken on the stack divided by 2^600 exactly, and multiplied back
        (scaled_1e160(), 600),
    ],
    ids=["zero", "univariate", "bivariate", "planted", "scaled-1e160"],
)
def test_cached_norms_and_degree_equal_direct_computations(p, k):
    # both are computed on first use, not when P is built
    assert "_norms" not in vars(p) and "_degree" not in vars(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = p._norms
    want = np.linalg.norm(p.stack * 2.0**-k, axis=(1, 2)) * 2.0**k
    assert norms.tobytes() == want.tobytes() and not norms.flags.writeable
    assert p._norms is norms
    assert total_degree(p) == int(p.exponents.sum(axis=1).max(initial=0))
    assert total_degree(p) == max((sum(e) for e in p.terms), default=0)

