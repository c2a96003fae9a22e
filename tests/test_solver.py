import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cyclic_reduction, dual_equation, plant_minimal_solvent
from per_point import (
    equation_lhs_with_identity,
    greedy_select_per_candidate,
    iter_solution_classes,
    solve_multivariate_per_point,
    solve_univariate_per_class,
)

from matpolyeq import linalg
from matpolyeq.errors import (
    ConvergenceFailure,
    DegreeZero,
    DimensionMismatch,
    FactorCheckFailed,
    IdenticallySingular,
    InsufficientRoots,
    NoPointsFound,
    NonFiniteInput,
    NotASolution,
    NotSimultaneouslyDiagonalizable,
    TransformSingular,
)
from matpolyeq.instances import plant_instance
from matpolyeq.polymatrix import (
    MatrixPolynomial,
    VarietySample,
    evaluate,
    null_vectors_at,
    sample_variety,
)
from matpolyeq.solver import (
    Diagnostic,
    Orientation,
    SolverConfig,
    StructuredEquation,
    _commutations,
    _greedy_select,
    _lhs,
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

I1 = np.eye(1)
I2 = np.eye(2)


def scalar_quadratic():
    p = MatrixPolynomial(arity=1, dim=1, terms={(2,): I1, (1,): -3 * I1, (0,): 2 * I1})
    return StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)


def square_root_identity():
    p = MatrixPolynomial(arity=1, dim=2, terms={(2,): I2, (0,): -I2})
    return StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)


def manual_plant_bivariate(seed=42, eigs_x=(1.0, 2.0), eigs_y=(3.0, 4.0)):
    # known transform and spectra; constant slot closes the equation exactly
    rng = np.random.default_rng(seed)
    n = len(eigs_x)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t_inv = np.linalg.inv(t)
    x = t @ np.diag(eigs_x) @ t_inv
    y = t @ np.diag(eigs_y) @ t_inv
    terms = {
        key: rng.integers(-5, 6, (n, n)).astype(complex)
        for key in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]
    }
    partial = StructuredEquation(
        poly=MatrixPolynomial(arity=2, dim=n, terms=dict(terms)),
        orientation=Orientation.UNKNOWNS_RIGHT,
    )
    terms[(0, 0)] = -equation_lhs(partial, [x, y])
    eq = StructuredEquation(
        poly=MatrixPolynomial(arity=2, dim=n, terms=terms),
        orientation=Orientation.UNKNOWNS_RIGHT,
    )
    return eq, x, y


def class_label(cls):
    return "class (" + ", ".join(f"{r.real:.6g}{r.imag:+.6g}j" for r in cls) + ")"


def assert_same_solution(result, families, diagnostics):
    # bit for bit: diagnostics, family order and every array and number
    assert [(d.label, d.failure) for d in result.diagnostics] == [
        (d.label, d.failure) for d in diagnostics
    ]
    assert len(result.families) == len(families)
    for got, ref in zip(result.families, families):
        assert np.array_equal(got.transform, ref.transform)
        pairs = zip(got.eigenvalues + got.unknowns, ref.eigenvalues + ref.unknowns, strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)
        assert got.residual == ref.residual
        assert got.transform_condition == ref.transform_condition


def test_eigen_candidates_scalar_quadratic():
    pool = eigen_candidates(scalar_quadratic())
    assert len(pool) == 2
    assert pool[0][0] == pytest.approx(1.0) and pool[1][0] == pytest.approx(2.0)


def test_eigen_candidates_square_root_identity():
    pool = eigen_candidates(square_root_identity())
    assert [(round(r.real), m) for r, m in pool] == [(-1, 2), (1, 2)]


def test_eigen_candidates_count_nonsingular_leading():
    rng = np.random.default_rng(20)
    a2 = rng.integers(-5, 6, (2, 2)).astype(complex) + 6 * I2
    p = MatrixPolynomial(
        arity=1,
        dim=2,
        terms={(2,): a2, (1,): rng.integers(-5, 6, (2, 2)).astype(complex), (0,): I2},
    )
    pool = eigen_candidates(StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT))
    assert sum(m for _, m in pool) == 4


def test_enumerate_classes_simple():
    classes = list(iter_solution_classes([(1.0 + 0j, 1), (2.0 + 0j, 1)], 1))
    assert classes == [(1.0 + 0j,), (2.0 + 0j,)]


def test_enumerate_classes_multiset():
    classes = list(iter_solution_classes([(1.0 + 0j, 2), (-1.0 + 0j, 2)], 2))
    assert classes == [
        (-1.0 + 0j, -1.0 + 0j),
        (-1.0 + 0j, 1.0 + 0j),
        (1.0 + 0j, 1.0 + 0j),
    ]


def test_enumerate_classes_binomial_count():
    pool = [(complex(k), 1) for k in range(4)]
    assert len(list(iter_solution_classes(pool, 2))) == 6
    # with repeated roots the classes are the distinct sorted n-tuples drawn
    # from the pool with each root repeated by its multiplicity
    for mults in [(1, 1, 1, 1), (2, 1, 1), (4,), (2, 2), (3, 1, 2, 1)]:
        pool = [(complex(k), m) for k, m in enumerate(mults)]
        expanded = [root for root, m in pool for _ in range(m)]
        for n in (2, 3, 4):
            classes = list(iter_solution_classes(pool, n))
            brute = set(itertools.combinations(expanded, n))
            assert len(classes) == len(brute)
            assert set(classes) == brute
            assert all(cls.count(root) <= m for cls in classes for root, m in pool)


def test_enumerate_classes_insufficient():
    with pytest.raises(InsufficientRoots):
        list(iter_solution_classes([(1.0 + 0j, 1)], 2))


def test_enumerate_classes_cap():
    # six simple roots at n = 3 make C(6, 3) = 20 classes; only 5 are tried
    inst = plant_instance(3, 1, 2, Orientation.UNKNOWNS_LEFT, 7)
    assert len(list(iter_solution_classes(eigen_candidates(inst.equation), 3))) == 20
    result = solve_univariate(inst.equation, SolverConfig(max_classes=5))
    tried = len(result.families) + sum(d.label.startswith("class (") for d in result.diagnostics)
    assert tried == 5
    truncations = [d.failure for d in result.diagnostics if d.label == "class enumeration"]
    assert truncations == ["truncated at max_classes=5"]


@pytest.mark.parametrize("name", ["tol_residual"])
@pytest.mark.parametrize("value", [0.0, float("nan")])
def test_solver_config_rejects_nonpositive_tolerances(name, value):
    with pytest.raises(ValueError, match=f"{name} must be positive"):
        SolverConfig(**{name: value})


def test_solver_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SolverConfig(seed=-1)


SEED_READERS = {
    "SolverConfig": lambda seed: SolverConfig(seed=seed),
    "sample_variety": lambda seed: sample_variety(
        MatrixPolynomial(2, 1, {(1, 0): I1, (0, 1): I1}), "right", 2, seed
    ),
    "plant_instance": lambda seed: plant_instance(2, 1, 2, Orientation.UNKNOWNS_RIGHT, seed),
}


@pytest.mark.parametrize("read", SEED_READERS.values(), ids=SEED_READERS.keys())
def test_every_seed_is_read_with_operator_index(read):
    # a string is no seed, not even one of digits
    with pytest.raises(TypeError, match="^'str' object cannot be interpreted as an integer$"):
        read("3")


def test_solver_config_caps_max_classes_at_sys_maxsize():
    # the class stream is cut at sys.maxsize at most, the most islice can
    # count: a larger cap enumerates every class
    inst = plant_instance(2, 1, 2, Orientation.UNKNOWNS_RIGHT, 1)
    want = solve_univariate(inst.equation, SolverConfig(max_classes=sys.maxsize))
    assert len(want.families) == 6
    for cap in (2**63, 10**20):
        got = solve_univariate(inst.equation, SolverConfig(max_classes=cap))
        assert got.diagnostics == want.diagnostics
        for f, g in zip(got.families, want.families, strict=True):
            assert np.array_equal(f.unknowns[0], g.unknowns[0])


def test_solver_config_caps_seed_within_double_range():
    # the sampler reads each attempt's seed modulo 2**53, where every
    # integer is a double: a larger seed solves as its remainder
    inst = plant_instance(2, 2, 2, Orientation.UNKNOWNS_RIGHT, 1)
    for seed in (2**53, 2**64 + 5, 10**400):
        (got,) = solve_multivariate(inst.equation, SolverConfig(seed=seed)).families
        (want,) = solve_multivariate(inst.equation, SolverConfig(seed=seed % 2**53)).families
        assert all(np.array_equal(x, y) for x, y in zip(got.unknowns, want.unknowns))
        assert np.array_equal(got.transform, want.transform)


def test_greedy_select_matches_per_candidate_loop():
    eq = plant_instance(8, 2, 2, Orientation.UNKNOWNS_RIGHT, 4).equation
    sample = sample_variety(eq.poly, "right", 40, 0)
    # a copy of every point ties each candidate with its twin; the first wins
    arrays = (sample.values, sample.null_vectors, sample.det_residuals)
    doubled = VarietySample(*(np.concatenate([a, a]) for a in arrays), side=sample.side)
    for pool in (sample, doubled):
        want, ties = greedy_select_per_candidate(pool.null_vectors, pool.det_residuals, 8)
        assert _greedy_select(pool, 8) == want
    assert ties > 0
    head = VarietySample(
        sample.values[:7], sample.null_vectors[:7], sample.det_residuals[:7], sample.side
    )
    assert _greedy_select(head, 8) is None


def test_solve_multivariate_rank_deficient_pool_is_transform_singular():
    # P = U diag(x - 1/2, y - 1/2, 1, 1) U^T: every null vector lies in the
    # span of U e1 and U e2, so no 4 variety points stack into an invertible T
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    terms = {(1, 0): [1, 0, 0, 0], (0, 1): [0, 1, 0, 0], (0, 0): [-0.5, -0.5, 1, 1]}
    p = MatrixPolynomial(
        arity=2, dim=4, terms={e: u @ np.diag(d) @ u.T for e, d in terms.items()}
    )
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_RIGHT)
    vectors = sample_variety(p, "right", 32, 0).null_vectors
    assert np.linalg.matrix_rank(vectors, tol=1e-8) == 2
    with pytest.raises(TransformSingular, match="within 8 attempts") as info:
        solve_multivariate(eq)
    diagnostics = info.value.diagnostics
    assert [d.label for d in diagnostics] == [f"attempt {a}" for a in range(8)]
    assert all(d.failure.startswith("TransformSingular: smallest singular") for d in diagnostics)


def test_solve_multivariate_too_few_points_in_every_attempt():
    # det P = z1 - 2 involves only z1: of the 136 slices of an attempt, the
    # round robin over 70 variables pivots on z1 twice, so 2 points < n = 3
    e11 = np.diag([1.0, 0.0, 0.0])
    terms = {(1,) + (0,) * 69: e11, (0,) * 70: np.diag([-2.0, 1.0, 1.0])}
    p = MatrixPolynomial(arity=70, dim=3, terms=terms)
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_RIGHT)
    with pytest.raises(TransformSingular, match="within 8 attempts") as info:
        solve_multivariate(eq)
    assert [(d.label, d.failure) for d in info.value.diagnostics] == [
        (f"attempt {a}", "only 2 points, need 3") for a in range(8)
    ]


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [4, 8])
def test_solve_multivariate_matches_per_point_reference(n, m, orientation):
    eq = plant_instance(n, m, 2, orientation, 10 * n + m).equation
    cfg = SolverConfig(seed=3)
    want, want_diags = solve_multivariate_per_point(eq, cfg)
    result = solve_multivariate(eq, cfg)
    assert len(want) == 1
    assert_same_solution(result, want, want_diags)


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
def test_solve_univariate_mixed_pool_outcomes_in_class_order(orientation):
    # diag((z-1)^2, (z-2)(z-3)): the double root 1 has a one-dimensional null
    # space (e1), so it enters a class at most once, while 2 and 3 share the
    # null vector e2; the capped pool makes 3 classes, not 4
    p = MatrixPolynomial(
        arity=1, dim=2, terms={(2,): I2, (1,): np.diag([-2.0, -5.0]), (0,): np.diag([1.0, 6.0])}
    )
    eq = StructuredEquation(poly=p, orientation=orientation)
    pool = eigen_candidates(eq)
    assert [(round(r.real), m) for r, m in pool] == [(1, 2), (2, 1), (3, 1)]
    one, two, three = (r for r, _ in pool)
    result = solve_univariate(eq)
    thin = Diagnostic(
        f"root {one.real:.6g}{one.imag:+.6g}j", "null space has dimension 1 < multiplicity 2"
    )
    assert [d.label for d in result.diagnostics] == [thin.label, class_label((two, three))]
    assert result.diagnostics[0].failure == thin.failure
    assert result.diagnostics[1].failure.startswith("TransformSingular: smallest singular value")
    assert len(result.families) == 2
    for family, diagonal in zip(result.families, ([1.0, 2.0], [1.0, 3.0])):
        assert np.allclose(family.eigenvalues[0], diagonal)
        assert np.allclose(family.unknowns[0], np.diag(diagonal), atol=1e-10)
    # a cap of k keeps the outcomes of the first k of the 3 classes, after
    # the root diagnostic and, when k < 3, one truncation diagnostic
    for cap in range(1, 4):
        diagnostics = [thin]
        if cap < 3:
            diagnostics.append(Diagnostic("class enumeration", f"truncated at max_classes={cap}"))
        else:
            diagnostics.append(result.diagnostics[1])
        capped = solve_univariate(eq, SolverConfig(max_classes=cap))
        assert_same_solution(capped, result.families[: min(cap, 2)], diagnostics)


def test_solve_univariate_residual_rejections_in_class_order():
    # a gate no candidate can pass turns all 20 classes into diagnostics
    inst = plant_instance(3, 1, 2, Orientation.UNKNOWNS_LEFT, 7)
    classes = list(iter_solution_classes(eigen_candidates(inst.equation), 3))
    result = solve_univariate(inst.equation, SolverConfig(tol_residual=1e-300))
    assert result.families == []
    assert len(classes) == len(result.diagnostics) == 20
    for cls, diag in zip(classes, result.diagnostics):
        assert diag.label == class_label(cls)
        assert diag.failure.startswith("residual ")
        assert diag.failure.endswith(" exceeds tol_residual 1e-300")


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
def test_batched_families_match_per_class_reference(orientation):
    # reference: one class at a time, X = W^-1 F W or T F T^-1 from the unit
    # null vectors of the class roots, through the public per-matrix inverse;
    # the gate's residual must be the one verify_residual gives
    inst = plant_instance(4, 1, 2, orientation, 59)
    eq = inst.equation
    side = "left" if orientation is Orientation.UNKNOWNS_LEFT else "right"
    result = solve_univariate(eq)
    classes = list(iter_solution_classes(eigen_candidates(eq), 4))
    assert len(result.families) == len(classes) == 70
    for cls, family in zip(classes, result.families):
        rows = np.array([null_vectors_at(eq.poly, [root], side)[0] for root in cls])
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        stack = rows if side == "left" else rows.T
        inv, cond = linalg.inverse(stack)
        if side == "left":
            x = inv @ np.diag(cls) @ stack
        else:
            x = stack @ np.diag(cls) @ inv
        assert np.allclose(family.eigenvalues[0], cls, rtol=0, atol=0)
        assert np.linalg.norm(family.unknowns[0] - x) <= 1e-12 * np.linalg.norm(x)
        assert family.transform_condition == pytest.approx(cond, rel=1e-12)
        recomputed = verify_residual(eq, family.unknowns)
        assert abs(family.residual - recomputed) <= 1e-12 * recomputed
    # families are row views of their chunk's stacks, so no two may overlap
    arrays = [[f.transform, *f.eigenvalues, *f.unknowns] for f in result.families]
    for mine, next_ in itertools.pairwise(arrays):
        assert not any(np.may_share_memory(a, b) for a, b in zip(mine, next_))


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_combination_classes_match_per_class_reference(n, orientation):
    # planted pools have 2n distinct simple roots; the caps cut the
    # enumeration at its start, at and just past a chunk, and at its end
    eq = plant_instance(n, 1, 2, orientation, 59).equation
    assert all(mult == 1 for _, mult in eigen_candidates(eq))
    total = math.comb(2 * n, n)
    size = linalg.chunk_size(n * n)
    for cap in (1, size, size + 1, total - 1, total):
        cfg = SolverConfig(max_classes=cap)
        result = solve_univariate(eq, cfg)
        families, diagnostics = solve_univariate_per_class(eq, cfg)
        if cap < total:
            truncated = Diagnostic("class enumeration", f"truncated at max_classes={cap}")
            diagnostics.insert(0, truncated)
        assert_same_solution(result, families, diagnostics)
        labels = [d.label for d in result.diagnostics]
        assert labels.count("class enumeration") == (cap < total)
        assert len(result.families) == min(cap, total)


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
def test_rejections_across_many_chunks_match_per_class_reference(monkeypatch, orientation):
    # S diag((z-1)(z-2), (z-3)(z-4), (z-5)(z-6)) S^-1: six simple roots, two
    # per null vector, so 12 of the 20 classes are singular.  Three classes
    # to a chunk make seven chunks, the last holding two; a gate at the
    # median residual of the other 8 rejects some of them as well
    rng = np.random.default_rng(5)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s_inv = np.linalg.inv(s)
    terms = {
        (2,): s @ s_inv,
        (1,): s @ np.diag([-3.0, -7.0, -11.0]) @ s_inv,
        (0,): s @ np.diag([2.0, 12.0, 30.0]) @ s_inv,
    }
    eq = StructuredEquation(MatrixPolynomial(arity=1, dim=3, terms=terms), orientation)
    monkeypatch.setattr(linalg, "CHUNK_ENTRIES", 27)
    assert linalg.chunk_size(9) == 3
    residuals = sorted(f.residual for f in solve_univariate(eq).families)
    cfg = SolverConfig(tol_residual=residuals[len(residuals) // 2])
    result = solve_univariate(eq, cfg)
    assert_same_solution(result, *solve_univariate_per_class(eq, cfg))
    labels = [class_label(cls) for cls in iter_solution_classes(eigen_candidates(eq), 3)]
    assert len(labels) == 20
    chunks = {"TransformSingular": set(), "residual": set()}
    for d in result.diagnostics:
        kind = "residual" if d.failure.startswith("residual ") else d.failure.split(":")[0]
        chunks[kind].add(labels.index(d.label) // 3)
    assert len(chunks["TransformSingular"]) > 1 and len(chunks["residual"]) > 1
    assert len(result.diagnostics) == 12 + len(residuals) - len(result.families)
    assert 0 < len(result.families) < len(residuals) == 8


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
def test_solve_univariate_distinct_pool_rejections_in_class_order(orientation):
    # diag((z-2)(z-3), (z-1)(z-4)): four simple roots, 2 and 3 sharing the
    # null vector e1 and 1 and 4 sharing e2, so two of six classes are singular
    p = MatrixPolynomial(
        arity=1, dim=2, terms={(2,): I2, (1,): -5 * I2, (0,): np.diag([6.0, 4.0])}
    )
    eq = StructuredEquation(poly=p, orientation=orientation)
    pool = eigen_candidates(eq)
    assert [(round(r.real), m) for r, m in pool] == [(1, 1), (2, 1), (3, 1), (4, 1)]
    one, two, three, four = (r for r, _ in pool)
    result = solve_univariate(eq)
    assert [d.label for d in result.diagnostics] == [
        class_label((one, four)), class_label((two, three))
    ]
    for d in result.diagnostics:
        assert d.failure.startswith("TransformSingular: smallest singular value")
    assert_same_solution(result, *solve_univariate_per_class(eq, SolverConfig()))
    # X = diag(root on e1, root on e2)
    for family, diagonal in zip(result.families, ([2, 1], [3, 1], [2, 4], [3, 4])):
        assert np.allclose(family.unknowns[0], np.diag(diagonal), atol=1e-10)


def test_solve_univariate_insufficient_roots():
    # diag(z, 1) has the single root 0 for a 2 x 2 unknown
    p = MatrixPolynomial(
        arity=1, dim=2, terms={(1,): np.diag([1.0, 0.0]), (0,): np.diag([0.0, 1.0])}
    )
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    with pytest.raises(InsufficientRoots, match="total multiplicity 1 < dimension 2"):
        solve_univariate(eq)


def test_each_solver_rejects_the_other_arity():
    uni = scalar_quadratic()
    bi = StructuredEquation(
        poly=MatrixPolynomial(arity=2, dim=1, terms={(1, 0): I1, (0, 1): -I1}),
        orientation=Orientation.UNKNOWNS_RIGHT,
    )
    with pytest.raises(DimensionMismatch, match="^solve_univariate needs a univariate equation$"):
        solve_univariate(bi)
    with pytest.raises(DimensionMismatch, match="^solve_multivariate needs arity >= 2$"):
        solve_multivariate(uni)


NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_solve_univariate_unimodular_has_no_roots():
    # det(I + zN) = 1 for nilpotent N: the determinant has no root at all
    p = MatrixPolynomial(arity=1, dim=2, terms={(0,): I2, (1,): NILPOTENT})
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    with pytest.raises(InsufficientRoots, match="nonzero constant polynomial has no roots") as info:
        solve_univariate(eq)
    assert isinstance(info.value.__cause__, DegreeZero)


#: Equations with det P not identically zero whose walk at seed 0 starts on a
#: line where P is singular for every value of the pivot: the phase is 0,
#: so slice 0 fixes z2 = 1.
SINGULAR_FIRST_SLICE = {
    "product": MatrixPolynomial(
        arity=2, dim=2, terms={(1, 1): I2, (1, 0): -I2, (0, 1): 2 * I2, (0, 0): -2 * I2}
    ),
    "diagonal": MatrixPolynomial(
        arity=2,
        dim=2,
        terms={
            (0, 1): np.diag([1.0, 0.0]),
            (1, 0): np.diag([0.0, 1.0]),
            (0, 0): np.diag([-1.0, 2.0]),
        },
    ),
}


@pytest.mark.parametrize("name", SINGULAR_FIRST_SLICE)
def test_one_singular_slice_is_no_verdict_on_det_p(name):
    # (z1 + 2)(z2 - 1) I and diag(z2 - 1, z1 + 2): slice 0 is singular at
    # every shift point, adds no points, and the walk goes on
    p = SINGULAR_FIRST_SLICE[name]
    eq = StructuredEquation(p, Orientation.UNKNOWNS_RIGHT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sample = sample_variety(p, "right", 8, 0)
        result = solve_multivariate(eq)
    assert len(sample) >= 8
    for values, vector in zip(sample.values, sample.null_vectors):
        assert np.linalg.norm(evaluate(p, values) @ vector) <= 1e-12
    assert result.families
    for family in result.families:
        assert verify_residual(eq, family.unknowns) <= 1e-8
    # P singular on every slice is still IdenticallySingular, as its first
    # slice says
    col = np.array([[1.0, 0.0], [1.0, 0.0]])
    rank_one = MatrixPolynomial(arity=2, dim=2, terms={e: col for e in p.terms})
    with pytest.raises(IdenticallySingular, match="^P is rank-deficient at all 3 shift points$"):
        sample_variety(rank_one, "right", 8, 0)


def test_solve_multivariate_unimodular_finds_no_points():
    # det(I + (x + y)N) = 1: every slice is unimodular, so every attempt is empty
    p = MatrixPolynomial(
        arity=2, dim=2, terms={(0, 0): I2, (1, 0): NILPOTENT, (0, 1): NILPOTENT}
    )
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    with pytest.raises(NoPointsFound, match="every sampling attempt came back empty") as info:
        solve_multivariate(eq)
    assert [(d.label, d.failure) for d in info.value.diagnostics] == [
        (f"attempt {a}", "NoPointsFound: no variety points found in 136 slices") for a in range(8)
    ]


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
def test_solve_univariate_jordan_block_insufficient_roots(orientation):
    # zI - J for a 2 x 2 Jordan block J: det P = (z - 1)^2, but P(1) has a
    # one-dimensional null space, so the root 1 enters the pool once
    j = np.array([[1.0, 1.0], [0.0, 1.0]])
    p = MatrixPolynomial(arity=1, dim=2, terms={(1,): I2, (0,): -j})
    eq = StructuredEquation(poly=p, orientation=orientation)
    ((root, mult),) = eigen_candidates(eq)
    assert mult == 2
    with pytest.raises(InsufficientRoots, match="total multiplicity 1 < dimension 2") as info:
        solve_univariate(eq)
    assert [(d.label, d.failure) for d in info.value.diagnostics] == [
        (f"root {root.real:.6g}{root.imag:+.6g}j", "null space has dimension 1 < multiplicity 2")
    ]


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
def test_solve_univariate_fits_wide_root_against_whole_class(orientation):
    # P = diag((z - 1)(z - 2), (z - 1)(z - 3)): the root 1 has a 2-d null
    # space, so it must take e2 in the class (1, 2) and e1 in (1, 3)
    terms = {(2,): I2, (1,): np.diag([-3.0, -4.0]), (0,): np.diag([2.0, 3.0])}
    p = MatrixPolynomial(arity=1, dim=2, terms=terms)
    result = solve_univariate(StructuredEquation(poly=p, orientation=orientation))
    assert result.diagnostics == []
    expected = [np.diag(d) for d in ([1.0, 1.0], [2.0, 1.0], [1.0, 3.0], [2.0, 3.0])]
    assert len(result.families) == len(expected)
    for family, x in zip(result.families, expected):
        np.testing.assert_allclose(family.unknowns[0], x, atol=1e-12)
        assert family.residual <= 1e-12


@pytest.mark.parametrize(
    ("n", "orientation", "seed"),
    [
        (10, Orientation.UNKNOWNS_RIGHT, 33),
        (11, Orientation.UNKNOWNS_LEFT, 22),
        (11, Orientation.UNKNOWNS_RIGHT, 22),
    ],
)
def test_solve_univariate_drops_roots_without_null_vectors(n, orientation, seed):
    # these determinants have roots at which P has no null vector; they must
    # leave the pool, or each of the first 200 classes would contain one
    eq = plant_instance(n, 1, 2, orientation, seed).equation
    result = solve_univariate(eq)
    dropped = [d for d in result.diagnostics if d.label.startswith("root ")]
    assert dropped
    assert all(d.failure == "null space has dimension 0 < multiplicity 1" for d in dropped)
    assert len(result.families) == 200
    assert max(verify_residual(eq, f.unknowns) for f in result.families) <= 1e-8


def test_solve_univariate_scalar_quadratic():
    result = solve_univariate(scalar_quadratic())
    xs = sorted(complex(f.unknowns[0][0, 0]).real for f in result.families)
    assert np.allclose(xs, [1.0, 2.0])
    assert all(f.residual <= 1e-12 for f in result.families)


def test_solve_univariate_square_root_identity():
    result = solve_univariate(square_root_identity())
    assert len(result.families) == 3
    mats = [f.unknowns[0] for f in result.families]
    assert any(np.allclose(m, I2, atol=1e-10) for m in mats)
    assert any(np.allclose(m, -I2, atol=1e-10) for m in mats)
    involutions = [
        m for m in mats if not np.allclose(m, I2, atol=1e-8) and not np.allclose(m, -I2, atol=1e-8)
    ]
    assert len(involutions) == 1
    vals = np.linalg.eigvals(involutions[0])
    assert np.allclose(sorted(vals.real), [-1.0, 1.0], atol=1e-8)
    assert all(f.residual <= 1e-10 for f in result.families)


def test_solve_univariate_recovers_planted():
    inst = plant_instance(3, 1, 2, Orientation.UNKNOWNS_LEFT, 7)
    result = solve_univariate(inst.equation)
    truth = inst.truth_unknowns[0]
    best = min(
        np.linalg.norm(f.unknowns[0] - truth) / np.linalg.norm(truth)
        for f in result.families
    )
    assert best <= 1e-7


def test_solve_univariate_recovers_planted_at_small_scale():
    # the determinant test must not read coefficients of order 1e-8 as zero
    inst = plant_instance(4, 1, 2, Orientation.UNKNOWNS_LEFT, 61)
    terms = {exps: 1e-8 * a for exps, a in inst.equation.poly.terms.items()}
    eq = StructuredEquation(
        poly=MatrixPolynomial(arity=1, dim=4, terms=terms), orientation=Orientation.UNKNOWNS_LEFT
    )
    result = solve_univariate(eq)
    truth = inst.truth_unknowns[0]
    best = min(
        np.linalg.norm(f.unknowns[0] - truth) / np.linalg.norm(truth)
        for f in result.families
    )
    assert best <= 1e-7


def test_solve_multivariate_overflowing_determinants_without_a_warning():
    # |det P| at the sampled points leaves the double range: the residuals of
    # the sample are inf, but the solve runs and verifies
    inst = plant_instance(8, 2, 2, Orientation.UNKNOWNS_RIGHT, 1)
    terms = {exps: 1e45 * a for exps, a in inst.equation.poly.terms.items()}
    poly = MatrixPolynomial(arity=2, dim=8, terms=terms)
    eq = StructuredEquation(poly, Orientation.UNKNOWNS_RIGHT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_multivariate(eq)
    (family,) = result.families
    assert verify_residual(eq, family.unknowns) <= 1e-8


# n = 6, seed 1: the interpolated determinant's roots are up to 1e-5 off
# the pencil's, and the best family is 2.3e-6 from G
THIN_DETERMINANT = pytest.mark.xfail(
    strict=True, reason="univariate roots come from the interpolated determinant"
)


@pytest.mark.parametrize("dual", [False, True], ids=["right", "dual"])
@pytest.mark.parametrize(
    "n, seed",
    [
        pytest.param(n, seed, marks=THIN_DETERMINANT) if (n, seed) == (6, 1) else (n, seed)
        for n in range(2, 7)
        for seed in range(3)
    ],
)
def test_solve_univariate_finds_the_cyclic_reduction_solvent(n, seed, dual):
    # every class is assembled, so one family must be the minimal solvent G
    # within uni-enum's truth bound; the dual's solvent is G^T
    eq, _ = plant_minimal_solvent(n, seed)
    terms = eq.poly.terms
    g, _ = cyclic_reduction(terms[(0,)], terms[(1,)], terms[(2,)], math.sqrt(8))
    if dual:
        eq, g = dual_equation(eq), g.T
    result = solve_univariate(eq, SolverConfig(max_classes=math.comb(2 * n, n)))
    best = min(np.linalg.norm(f.unknowns[0] - g) for f in result.families)
    assert best <= 1e-6 * np.linalg.norm(g)


@pytest.mark.parametrize("scale", [1e45, 1e-45])
def test_solve_univariate_recovers_planted_at_extreme_scale(scale):
    # det P has coefficients of order 1e±180 here, whose squares leave the
    # double range: the root scale must still come out finite and nonzero
    inst = plant_instance(4, 1, 2, Orientation.UNKNOWNS_LEFT, 61)
    terms = {exps: scale * a for exps, a in inst.equation.poly.terms.items()}
    eq = StructuredEquation(
        poly=MatrixPolynomial(arity=1, dim=4, terms=terms), orientation=Orientation.UNKNOWNS_LEFT
    )
    result = solve_univariate(eq)
    truth = inst.truth_unknowns[0]
    best = min(
        np.linalg.norm(f.unknowns[0] - truth) / np.linalg.norm(truth)
        for f in result.families
    )
    assert best <= 1e-7


def test_solve_univariate_determinant_underflow_is_non_finite_input():
    # planted n = 8 times 1e-45: det P underflows at the interpolation nodes,
    # so the solve must not report the equation identically singular.  Times
    # 1e-41 or 1e-40 det P keeps subnormal coefficients, which the companion
    # would divide by; times 1e-39 it solves
    inst = plant_instance(8, 1, 2, Orientation.UNKNOWNS_LEFT, 3)
    for scale in (1e-45, 1e-41, 1e-40, 1e-39):
        terms = {exps: scale * a for exps, a in inst.equation.poly.terms.items()}
        eq = StructuredEquation(MatrixPolynomial(1, 8, terms), Orientation.UNKNOWNS_LEFT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if scale == 1e-39:
                assert len(solve_univariate(eq).families) == 200
                continue
            with pytest.raises(NonFiniteInput, match="^det P leaves the double range at the"):
                solve_univariate(eq)


def test_solve_univariate_right_orientation():
    inst = plant_instance(2, 1, 2, Orientation.UNKNOWNS_RIGHT, 31)
    result = solve_univariate(inst.equation)
    truth = inst.truth_unknowns[0]
    best = min(
        np.linalg.norm(f.unknowns[0] - truth) / np.linalg.norm(truth)
        for f in result.families
    )
    assert best <= 1e-7


def test_solve_univariate_spectral_consistency():
    result = solve_univariate(square_root_identity())
    for family in result.families:
        actual = sorted(np.linalg.eigvals(family.unknowns[0]), key=lambda z: (z.real, z.imag))
        claimed = sorted(family.eigenvalues[0], key=lambda z: (z.real, z.imag))
        for a, c in zip(actual, claimed):
            assert abs(a - c) <= 1e-7 * (1.0 + abs(c))


def test_solve_multivariate_scalar_circle():
    p = MatrixPolynomial(arity=2, dim=1, terms={(2, 0): I1, (0, 2): I1, (0, 0): -2 * I1})
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_RIGHT)
    result = solve_multivariate(eq)
    for family in result.families:
        x = complex(family.unknowns[0][0, 0])
        y = complex(family.unknowns[1][0, 0])
        assert abs(x**2 + y**2 - 2.0) <= 1e-10


def test_family_from_points_reproduces_manual_plant():
    eq, x, y = manual_plant_bivariate()
    values = [(1.0, 3.0), (2.0, 4.0)]
    vectors = []
    for point in values:
        vecs = null_vectors_at(eq.poly, point, "right")
        assert len(vecs) == 1
        vectors.append(vecs[0])
    family = family_from_points(eq, values, vectors)
    assert np.linalg.norm(family.unknowns[0] - x) <= 1e-7 * np.linalg.norm(x)
    assert np.linalg.norm(family.unknowns[1] - y) <= 1e-7 * np.linalg.norm(y)


def test_family_from_points_rejects_overflowing_residual():
    # X^2 + Y - I = 0 at X = diag(1e200, 2): X @ X overflows and the residual
    # is nan, which the gate must reject like any residual above tolerance
    p = MatrixPolynomial(arity=2, dim=2, terms={(2, 0): I2, (0, 1): I2, (0, 0): -I2})
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_RIGHT)
    values = [(1e200, 1.0), (2.0, -3.0)]
    with pytest.raises(NotASolution, match="residual nan exceeds"):
        family_from_points(eq, values, I2)


def test_family_from_points_rejects_malformed_rows():
    eq, _, _ = manual_plant_bivariate()
    values = np.array([(1.0, 3.0), (2.0, 4.0)])
    with pytest.raises(DimensionMismatch, match=r"^values has shape \(1, 2\), expected"):
        family_from_points(eq, values[:1], I2[:1])
    with pytest.raises(DimensionMismatch, match=r"^null_vectors has shape \(2, 3\), expected"):
        family_from_points(eq, values, np.eye(2, 3))
    with pytest.raises(NonFiniteInput):
        family_from_points(eq, values, [[1.0, 0.0], [np.nan, 1.0]])


def test_slices_through_planted_eigenvalues():
    # fixing the first variable at a planted alpha exposes the paired mu root
    eq, _, _ = manual_plant_bivariate()
    from matpolyeq.polymatrix import det_poly_univariate, fix_all_but, poly_roots

    for alpha, mu in [(1.0, 3.0), (2.0, 4.0)]:
        sliced = fix_all_but(eq.poly, 1, [alpha])
        roots = [r for r, _ in poly_roots(det_poly_univariate(sliced))]
        assert any(abs(r - mu) <= 1e-6 * (1.0 + abs(mu)) for r in roots)


def test_solve_multivariate_planted_bivariate():
    inst = plant_instance(2, 2, 2, Orientation.UNKNOWNS_RIGHT, 11)
    result = solve_multivariate(inst.equation)
    assert len(result.families) == 1
    assert result.families[0].residual <= 1e-8


def test_solve_multivariate_three_unknown_cubic():
    inst = plant_instance(2, 3, 3, Orientation.UNKNOWNS_RIGHT, 13)
    result = solve_multivariate(inst.equation)
    assert result.families[0].residual <= 1e-8


def test_solve_multivariate_left_orientation():
    inst = plant_instance(2, 2, 2, Orientation.UNKNOWNS_LEFT, 17)
    result = solve_multivariate(inst.equation)
    assert result.families[0].residual <= 1e-8
    assert commutation_check(result.families[0].unknowns) <= 1e-8


def _det_reference(poly, seed=0, samples=16):
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        point = rng.uniform(0.5, 2.0, poly.arity) * np.exp(
            2j * np.pi * rng.uniform(size=poly.arity)
        )
        best = max(best, abs(np.linalg.det(evaluate(poly, point))))
    return best


def test_eigenvalue_necessity_on_families():
    # family eigen-tuples must be zeros of det P, relative to a reference scan
    inst = plant_instance(2, 2, 2, Orientation.UNKNOWNS_RIGHT, 23)
    result = solve_multivariate(inst.equation)
    reference = _det_reference(inst.equation.poly)
    for family in result.families:
        for k in range(inst.equation.dim):
            point = [family.eigenvalues[s][k] for s in range(inst.equation.arity)]
            assert abs(np.linalg.det(evaluate(inst.equation.poly, point))) <= 1e-6 * reference


def test_eigenvalue_necessity_univariate_families():
    inst = plant_instance(3, 1, 2, Orientation.UNKNOWNS_LEFT, 19)
    result = solve_univariate(inst.equation)
    reference = _det_reference(inst.equation.poly)
    assert result.families
    for family in result.families:
        for lam in family.eigenvalues[0]:
            assert abs(np.linalg.det(evaluate(inst.equation.poly, [lam]))) <= 1e-6 * reference


def test_verify_residual_trivials():
    eq = square_root_identity()
    assert verify_residual(eq, [I2]) == 0.0
    bad = verify_residual(eq, [2 * I2])
    assert bad > 1e-8
    p1 = MatrixPolynomial(arity=1, dim=1, terms={(2,): I1, (0,): -I1})
    eq1 = StructuredEquation(poly=p1, orientation=Orientation.UNKNOWNS_LEFT)
    # lhs = 3, denominator = 1 + 2 * 2^2 = 9
    assert verify_residual(eq1, [2 * I1]) == pytest.approx(1.0 / 3.0)


def test_verify_residual_planted():
    inst = plant_instance(4, 2, 2, Orientation.UNKNOWNS_RIGHT, 29)
    assert verify_residual(inst.equation, inst.truth_unknowns) <= 1e-12


def test_verify_residual_dimension_mismatch():
    eq = square_root_identity()
    with pytest.raises(DimensionMismatch):
        verify_residual(eq, [I2, I2])
    with pytest.raises(DimensionMismatch):
        verify_residual(eq, [np.eye(3)])


def test_quotient_factor_scalar():
    eq = scalar_quadratic()
    q = quotient_factor(eq, np.array([[1.0]]))
    assert np.allclose(q.terms[(1,)], I1)
    assert np.allclose(q.terms[(0,)], -2 * I1)
    q2 = quotient_factor(eq, np.array([[2.0]]))
    assert np.allclose(q2.terms[(0,)], -I1)


def test_quotient_factor_identity_matrix():
    q = quotient_factor(square_root_identity(), I2)
    assert np.allclose(q.terms[(1,)], I2)
    assert np.allclose(q.terms[(0,)], I2)


def test_quotient_factor_identity_holds_at_random_points():
    inst = plant_instance(3, 1, 2, Orientation.UNKNOWNS_LEFT, 37)
    x = inst.truth_unknowns[0]
    q = quotient_factor(inst.equation, x)
    rng = np.random.default_rng(1)
    eye = np.eye(3)
    for _ in range(10):
        z = complex(rng.standard_normal() + 1j * rng.standard_normal())
        pz = evaluate(inst.equation.poly, [z])
        qz = evaluate(q, [z])
        gap = np.linalg.norm(pz - (z * eye - x) @ qz)
        assert gap <= 1e-8 * np.linalg.norm(pz)


def test_quotient_factor_rejects_non_solution():
    with pytest.raises(NotASolution):
        quotient_factor(scalar_quadratic(), np.array([[3.0]]))


def test_quotient_factor_names_first_failing_node():
    # X = 2 + 1e-7 passes the residual gate (4.0e-9 <= 1e-8) but leaves
    # P(z) - (z - X) Q(z) = P(X), about 1e-7, at every node, over the
    # identity check's 1e-8 (1 + |P(z)|)
    eq, x = scalar_quadratic(), np.array([[2.0 + 1e-7]])
    assert verify_residual(eq, [x]) == pytest.approx(4.0e-9, rel=1e-3)
    with pytest.raises(FactorCheckFailed, match=r"identity off by 1\.000e-07 at z=1\+0j"):
        quotient_factor(eq, x)


def test_quotient_factor_rejects_nan_residual():
    # X @ X overflows, so the residual is inf / inf = nan
    p = MatrixPolynomial(arity=1, dim=1, terms={(2,): I1, (0,): -I1})
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    x = np.array([[1e200]])
    assert np.isnan(verify_residual(eq, [x]))
    with pytest.raises(NotASolution, match="residual nan"):
        quotient_factor(eq, x)


def test_quotient_factor_zero_equation():
    # MatrixPolynomial drops all-zero coefficients, so the zero equation has no terms
    p = MatrixPolynomial(arity=1, dim=1, terms={(0,): np.zeros((1, 1))})
    assert p.terms == {}
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    with pytest.raises(DegreeZero, match="constant equations admit no linear factor"):
        quotient_factor(eq, I1)


def test_commutation_check_values():
    assert commutation_check([np.eye(2), 2 * np.eye(2)]) == 0.0
    assert commutation_check([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]) == 0.0
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 0.0]])
    # commutator is diag(1, -1), norms are 1
    assert commutation_check([a, b]) == pytest.approx(np.sqrt(2.0) / 2.0)
    with pytest.raises(DimensionMismatch, match="^expected at least 1 unknown, got 0$"):
        commutation_check([])


@pytest.mark.parametrize(
    "check",
    [
        lambda eq, x: verify_residual(eq, x),
        lambda eq, x: equation_lhs(eq, x),
        lambda eq, x: commutation_check(x),
    ],
    ids=["verify_residual", "equation_lhs", "commutation_check"],
)
@pytest.mark.parametrize("unknowns", [5, np.float64(1.0)], ids=["int", "numpy-scalar"])
def test_non_sequence_unknowns_are_a_dimension_mismatch(check, unknowns):
    eq, _, _ = manual_plant_bivariate()
    name = type(unknowns).__name__
    with pytest.raises(DimensionMismatch, match=f"^expected a sequence of unknowns, got {name}$"):
        check(eq, unknowns)


def pairwise_commutation(xs) -> float:
    """The largest normalized commutator norm, one pair of matrices at a time."""
    worst = 0.0
    for x, y in itertools.combinations(xs, 2):
        comm = np.linalg.norm(x @ y - y @ x) / (1.0 + np.linalg.norm(x) * np.linalg.norm(y))
        worst = max(worst, float(comm))
    return worst


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_commutations_stack_matches_pairwise_loop(arity):
    rng = np.random.default_rng(arity)
    xs = [rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)) for _ in range(arity)]
    want = [pairwise_commutation([x[k] for x in xs]) for k in range(5)]
    # the stacked norms sum in another order: a few ulps apart
    assert _commutations(xs).tolist() == pytest.approx(want, rel=1e-14, abs=0.0)
    assert [commutation_check([x[k] for x in xs]) for k in range(5)] == pytest.approx(
        want, rel=1e-14, abs=0.0
    )
    xs[-1][3, 1, 2] = np.nan
    with pytest.raises(NonFiniteInput, match="matrix entries must be finite"):
        _commutations(xs)


def test_duality_univariate():
    inst = plant_instance(2, 1, 2, Orientation.UNKNOWNS_LEFT, 41)
    dual = dual_equation(inst.equation)
    assert dual.orientation is Orientation.UNKNOWNS_RIGHT
    result = solve_univariate(dual)
    assert result.families
    for family in result.families:
        assert verify_residual(inst.equation, [family.unknowns[0].T]) <= 1e-8


def test_duality_bivariate():
    inst = plant_instance(2, 2, 2, Orientation.UNKNOWNS_LEFT, 43)
    dual = dual_equation(inst.equation)
    result = solve_multivariate(dual)
    family = result.families[0]
    mapped = [family.unknowns[1].T, family.unknowns[0].T]
    assert verify_residual(inst.equation, mapped) <= 1e-8


BOTH_ORIENTATIONS = [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT]


def assert_solves(eq, unknowns):
    assert verify_residual(eq, unknowns) <= 1e-8
    assert commutation_check(unknowns) <= 1e-8


@pytest.mark.parametrize("orientation", BOTH_ORIENTATIONS)
@pytest.mark.parametrize("m", [2, 3])
def test_solve_multivariate_planted_dimension_16(m, orientation):
    eq = plant_instance(16, m, 2, orientation, 160 + m).equation
    result = solve_multivariate(eq)
    assert result.families
    for family in result.families:
        assert_solves(eq, family.unknowns)


planted_cases = st.tuples(
    st.sampled_from([4, 8]),
    st.sampled_from([2, 3]),
    st.sampled_from(BOTH_ORIENTATIONS),
    st.integers(0, 10_000),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=planted_cases, exponent=st.sampled_from([-8, 8]))
def test_solve_multivariate_coefficient_scaling_invariance(case, exponent):
    # c P has the variety of P: the same points, and a family solving P
    n, m, orientation, seed = case
    eq = plant_instance(n, m, 2, orientation, seed).equation
    scale = 10.0**exponent
    terms = {exps: scale * a for exps, a in eq.poly.terms.items()}
    scaled = StructuredEquation(MatrixPolynomial(m, n, terms), orientation)
    side = "left" if orientation is Orientation.UNKNOWNS_LEFT else "right"
    want = sample_variety(eq.poly, side, 3 * n, seed)
    got = sample_variety(scaled.poly, side, 3 * n, seed)
    assert len(got) == len(want)
    gap = np.linalg.norm(got.values - want.values, axis=1)
    assert np.all(gap <= 1e-9 * (1.0 + np.linalg.norm(want.values, axis=1)))
    (family,) = solve_multivariate(scaled).families
    assert_solves(eq, family.unknowns)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=planted_cases, exponent=st.sampled_from([-4, 4]))
def test_solve_multivariate_eigenvalue_scaling_invariance(case, exponent):
    # A_e c^-|e| is P(z / c), which c X_1, ..., c X_m solve: a family of it,
    # divided by c, solves P
    n, m, orientation, seed = case
    eq = plant_instance(n, m, 2, orientation, seed).equation
    scale = 10.0**exponent
    terms = {exps: scale ** -sum(exps) * a for exps, a in eq.poly.terms.items()}
    scaled = StructuredEquation(MatrixPolynomial(m, n, terms), orientation)
    (family,) = solve_multivariate(scaled).families
    assert_solves(eq, [x / scale for x in family.unknowns])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=planted_cases)
def test_solve_multivariate_transpose_duality(case):
    # a family of the dual equation maps back to one of the original
    n, m, orientation, seed = case
    eq = plant_instance(n, m, 2, orientation, seed).equation
    (family,) = solve_multivariate(dual_equation(eq)).families
    assert_solves(eq, [x.T for x in family.unknowns[::-1]])


def sandwich_equation(terms, n):
    return StructuredEquation(
        poly=MatrixPolynomial(arity=2, dim=n, terms=terms),
        orientation=Orientation.SANDWICH_BIVARIATE,
    )


def test_sandwich_probe_planted():
    inst = plant_instance(3, 2, 2, Orientation.SANDWICH_BIVARIATE, 47)
    rows = sandwich_probe(inst.equation, *inst.truth_unknowns)
    for row in rows:
        assert row.scalar_identity <= 1e-9 * row.identity_scale


def test_sandwich_probe_zero_solution():
    rng = np.random.default_rng(2)
    terms = {
        key: rng.integers(-5, 6, (2, 2)).astype(complex)
        for key in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]
    }
    eq = sandwich_equation(terms, 2)  # F slot absent, i.e. zero
    rows = sandwich_probe(eq, np.zeros((2, 2)), np.zeros((2, 2)))
    for row in rows:
        assert row.scalar_identity <= 1e-12
        assert row.det_probe <= 1e-12


def test_sandwich_probe_all_ones_eigenstructure():
    rng = np.random.default_rng(3)
    terms = {
        key: rng.integers(-5, 6, (2, 2)).astype(complex)
        for key in [(2, 0), (0, 2), (1, 1), (1, 0), (0, 1)]
    }
    terms[(0, 0)] = -sum(terms.values())
    eq = sandwich_equation(terms, 2)
    assert verify_residual(eq, [I2, I2]) <= 1e-12
    rows = sandwich_probe(eq, I2, I2)
    for row in rows:
        assert row.alpha == pytest.approx(1.0)
        assert row.mu == pytest.approx(1.0)
        assert row.scalar_identity <= 1e-9 * row.identity_scale


@pytest.mark.parametrize("seed", [0, 8])
def test_sandwich_probe_refines_cluster_split_in_lex_order(seed):
    # the double eigenvalue 1 of X splits, and 1 + 0.5j has the same real part,
    # so it can sort between the two copies; Y separates them
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t_inv = np.linalg.inv(t)
    x = t @ np.diag([1, 1, 1 + 0.5j]) @ t_inv + 1e-11 * e
    y = t @ np.diag([2, 3, 4]) @ t_inv
    rows = sandwich_probe(sandwich_equation({(0, 0): np.eye(3)}, 3), x, y)
    pairs = sorted((round(r.mu.real), r.alpha) for r in rows)
    assert [mu for mu, _ in pairs] == [2, 3, 4]
    assert np.allclose([alpha for _, alpha in pairs], [1, 1, 1 + 0.5j], atol=1e-6)


def test_sandwich_probe_rejects_non_commuting():
    terms = {(0, 0): I2}
    eq = sandwich_equation(terms, 2)
    a = np.array([[0.0, 1.0], [0.0, 0.0]]) + np.diag([1.0, 2.0])
    b = np.array([[0.0, 0.0], [1.0, 0.0]]) + np.diag([3.0, 4.0])
    # the basis diagonalizes their combination, and so neither of them
    with pytest.raises(NotSimultaneouslyDiagonalizable, match="first matrix is not diagonal"):
        sandwich_probe(eq, a, b)


def test_sandwich_probe_rejects_nearly_defective_first_matrix():
    # two eigenvalues 1e-6 apart with eigenvectors about 1e-14 apart: the
    # shared basis is singular
    eq = sandwich_equation({(0, 0): I2}, 2)
    x = np.array([[1.0, 1e8], [0.0, 1.0 + 1e-6]])
    with pytest.raises(NotSimultaneouslyDiagonalizable, match="no well-conditioned eigenvector"):
        sandwich_probe(eq, x, I2)


def test_sandwich_probe_rejects_defective_first_matrix():
    # a Jordan block: eig returns two parallel eigenvectors for the double
    # eigenvalue of X + phi Y, so the shared basis is singular
    eq = sandwich_equation({(0, 0): I2}, 2)
    x = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotSimultaneouslyDiagonalizable, match="no well-conditioned eigenvector"):
        sandwich_probe(eq, x, I2)


def test_sandwich_template_enforced():
    with pytest.raises(DimensionMismatch):
        sandwich_equation({(3, 0): I2}, 2)


def test_sandwich_probe_cluster_eigensolve_non_convergence(monkeypatch):
    # X = 1.5 I is one cluster, which Y splits: the probe's one eigensolve,
    # of their combination, fails and is raised as the package's error
    calls = []

    def fail(a):
        calls.append(a)
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    eq = sandwich_equation({(0, 0): I2}, 2)
    with pytest.raises(ConvergenceFailure, match="^eigensolve: Eigenvalues did not converge$"):
        sandwich_probe(eq, 1.5 * I2, np.diag([1.0, 2.0]))
    assert len(calls) == 1


def ldexp(z, k):
    # z times 2^k, exactly
    return np.ldexp(z.real, k) + 1j * np.ldexp(z.imag, k)


def planted_pair(seed, alphas, mus):
    # X = T diag(alphas) T^-1 and Y = T diag(mus) T^-1 for a random complex T
    rng = np.random.default_rng(seed)
    n = len(alphas)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t_inv = np.linalg.inv(t)
    return t @ np.diag(alphas) @ t_inv, t @ np.diag(mus) @ t_inv


def sorted_pairs(pairs, decimals=None):
    # (alpha, mu) rows in the order of their parts, rounded to decimals first
    keys = pairs if decimals is None else np.round(pairs, decimals)
    return pairs[np.lexsort((keys[:, 1].imag, keys[:, 1].real, keys[:, 0].imag, keys[:, 0].real))]


def probe_pairs(rows):
    return np.array([(r.alpha, r.mu) for r in rows])


def test_sandwich_probe_small_scale_keeps_eigenvalues_apart():
    # eigenvalues 1e-7 apart are distinct at the scale of X: a cluster radius
    # of 1e-7, fixed whatever the scale, would merge them all and misplace
    # the eigenvectors
    alphas, mus = np.array([1.0, 1.0, 2.0, 3.0]) * 1e-7, np.array([5.0, 6.0, 7.0, 7.0])
    x, y = planted_pair(4, alphas, mus)
    got = probe_pairs(sandwich_probe(sandwich_equation({(0, 0): np.eye(4)}, 4), x, y))
    got = sorted_pairs(got * [1e7, 1], decimals=6)
    assert np.allclose(got, np.stack([alphas * 1e7, mus], axis=1), rtol=1e-8, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 5),
    repeated=st.sampled_from(["first", "second"]),
    k=st.integers(-900, 900),
    j=st.integers(-900, 900),
)
def test_sandwich_probe_power_of_two_scaling_invariance(seed, n, repeated, k, j):
    # a commuting pair whose X or Y has a repeated eigenvalue: (2^k X, 2^j Y)
    # gives the (alpha, mu) of (X, Y) times (2^k, 2^j), bit for bit, and
    # those are the planted ones
    rng = np.random.default_rng(seed)
    alphas = rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)
    mus = rng.permutation(n) + 1.0
    if repeated == "first":
        alphas[1] = alphas[0]
    else:
        mus[1] = mus[0]
        alphas[1] = alphas[0] + 1
    x, y = planted_pair(seed, alphas, mus)
    eq = sandwich_equation({(0, 0): np.eye(n)}, n)
    want = probe_pairs(sandwich_probe(eq, x, y))
    got = probe_pairs(sandwich_probe(eq, ldexp(x, k), ldexp(y, j)))
    unscaled = np.stack([ldexp(got[:, 0], -k), ldexp(got[:, 1], -j)], axis=1)
    assert np.array_equal(sorted_pairs(unscaled), sorted_pairs(want))
    planted = sorted_pairs(np.stack([alphas, mus], axis=1))
    assert np.allclose(sorted_pairs(want, decimals=6), planted, rtol=0, atol=1e-8)


def test_family_transform_reconstruction_invariant():
    # unknowns must rebuild from the stored transform: W^-1 D W on the left,
    # T D T^-1 on the right
    left = solve_multivariate(
        plant_instance(2, 2, 2, Orientation.UNKNOWNS_LEFT, 99).equation
    ).families[0]
    w_inv = np.linalg.inv(left.transform)
    for s in range(2):
        rebuilt = w_inv @ np.diag(left.eigenvalues[s]) @ left.transform
        assert np.linalg.norm(rebuilt - left.unknowns[s]) <= 1e-8 * np.linalg.norm(
            left.unknowns[s]
        )
    right = solve_univariate(
        plant_instance(3, 1, 2, Orientation.UNKNOWNS_RIGHT, 98).equation
    ).families[0]
    t_inv = np.linalg.inv(right.transform)
    rebuilt = right.transform @ np.diag(right.eigenvalues[0]) @ t_inv
    assert np.linalg.norm(rebuilt - right.unknowns[0]) <= 1e-8 * np.linalg.norm(
        right.unknowns[0]
    )


def test_solve_result_diagnostics_not_silent():
    # an insufficient null space must show up as a diagnostic, not vanish
    p = MatrixPolynomial(
        arity=1, dim=2, terms={(2,): I2, (1,): np.array([[0.0, 1.0], [0.0, 0.0]])}
    )
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    result = solve_univariate(eq)
    assert len(result.families) + len(result.diagnostics) > 0
    for family in result.families:
        assert family.residual <= 1e-8


def zero_signed(rng, shape):
    # complex entries among 0.0, -0.0 and small integers, in both parts
    parts = rng.choice([0.0, -0.0, 1.0, -2.0, 3.0], size=(2, *shape))
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("orientation", [Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT])
@pytest.mark.parametrize("arity, degree", [(1, 0), (1, 2), (2, 2), (3, 1)])
def test_equation_lhs_matches_the_constant_times_identity(orientation, arity, degree):
    # the constant term is added as it is, not multiplied by I first: with
    # signed zeros in the constant and the unknowns, the bits still agree
    rng = np.random.default_rng(arity * 10 + degree)
    n = 3
    for _ in range(20):
        terms = {
            exps: zero_signed(rng, (n, n))
            for exps in itertools.product(range(degree + 1), repeat=arity)
            if sum(exps) <= degree
        }
        terms[(0,) * arity] = zero_signed(rng, (n, n))
        eq = StructuredEquation(MatrixPolynomial(arity, n, terms), orientation)
        xs = [zero_signed(rng, (n, n)) for _ in range(arity)]
        want = equation_lhs_with_identity(eq, xs)
        assert equation_lhs(eq, xs).tobytes() == want.tobytes()
        stacks = [np.stack([x, -x, 0.0 * x]) for x in xs]
        assert _lhs(eq, stacks).tobytes() == equation_lhs_with_identity(eq, stacks).tobytes()


def scaled_1e160(inst):
    # every coefficient times 1e160: the entries are finite, their squares
    # are not
    terms = {exps: 1e160 * a for exps, a in inst.equation.poly.terms.items()}
    return StructuredEquation(MatrixPolynomial(2, 4, terms), Orientation.UNKNOWNS_RIGHT)


def test_solve_multivariate_at_coefficient_norms_past_the_double_range():
    # the solve takes no warning, and its family passes against the scaled
    # equation and the unscaled one
    inst = plant_instance(4, 2, 2, Orientation.UNKNOWNS_RIGHT, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_multivariate(scaled_1e160(inst))
        (family,) = result.families
    assert verify_residual(inst.equation, family.unknowns) <= 1e-8
    assert verify_residual(scaled_1e160(inst), family.unknowns) <= 1e-8


def test_residual_at_coefficient_norms_past_the_double_range():
    # the coefficient norms stay finite, so a perturbed planted pair reads
    # the residual it reads against the unscaled equation, not 0
    inst = plant_instance(4, 2, 2, Orientation.UNKNOWNS_RIGHT, 3)
    rng = np.random.default_rng(0)
    noise = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(2)]
    xs = [x + 1e-9 * e for x, e in zip(inst.truth_unknowns, noise)]
    want = verify_residual(inst.equation, xs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verify_residual(scaled_1e160(inst), xs)
    assert want > 1e-13 and abs(got - want) <= 1e-4 * want
