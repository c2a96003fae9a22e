import itertools
import math

import numpy as np
import pytest
from oracles import (
    NonIntegerInput,
    cyclic_reduction,
    plant_minimal_solvent,
    scalar_oracle,
    symbolic_det_oracle,
)
from per_point import term_scale

from matpolyeq.errors import DegreeZero, DimensionMismatch, InvalidSetting
from matpolyeq.instances import EIGEN_SEPARATION, plant_instance
from matpolyeq.polymatrix import (
    MatrixPolynomial,
    det_poly_univariate,
    evaluate,
)
from matpolyeq.solver import (
    Orientation,
    StructuredEquation,
    solve_univariate,
    verify_residual,
)

I1 = np.eye(1)
I2 = np.eye(2)


def planted_grid():
    combos = [
        (n, m, degree)
        for n in (1, 2, 4, 8)
        for m in (1, 2, 3)
        for degree in (1, 2, 3)
        if n * m <= 16
    ]
    out = []
    i = 0
    while len(out) < 50:
        n, m, degree = combos[i % len(combos)]
        orientation = (
            Orientation.UNKNOWNS_RIGHT if i % 2 else Orientation.UNKNOWNS_LEFT
        )
        out.append(plant_instance(n, m, degree, orientation, 1000 + i))
        i += 1
    return out


def test_planted_residual_grid():
    for inst in planted_grid():
        assert verify_residual(inst.equation, inst.truth_unknowns) <= 1e-10


def test_planted_variety_membership():
    for inst in planted_grid():
        n = inst.equation.dim
        m = inst.equation.arity
        for k in range(n):
            point = [inst.truth_eigenvalues[s][k] for s in range(m)]
            dv = abs(np.linalg.det(evaluate(inst.equation.poly, point)))
            scale = max(1.0, term_scale(inst.equation.poly, point)) ** n
            assert dv <= 1e-8 * scale


def test_planted_reconstruction_consistency():
    inst = plant_instance(4, 2, 2, Orientation.UNKNOWNS_RIGHT, 55)
    t = inst.truth_transform
    t_inv = np.linalg.inv(t)
    for s in range(2):
        rebuilt = t @ np.diag(inst.truth_eigenvalues[s]) @ t_inv
        gap = np.linalg.norm(rebuilt - inst.truth_unknowns[s])
        assert gap <= 1e-10 * np.linalg.norm(inst.truth_unknowns[s])


def test_planted_transform_well_conditioned():
    for seed in range(5):
        inst = plant_instance(6, 2, 2, Orientation.UNKNOWNS_RIGHT, seed)
        assert np.linalg.cond(inst.truth_transform) <= 100.0
        for vals in inst.truth_eigenvalues:
            mods = np.abs(vals)
            assert np.all(mods >= 0.5) and np.all(mods <= 2.0)
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    assert abs(vals[i] - vals[j]) >= 0.1


def test_round_trip_recovery_univariate():
    cases = [(1, 2), (2, 3), (4, 5), (8, 8)]
    for orientation, (n, seed) in itertools.product(
        (Orientation.UNKNOWNS_LEFT, Orientation.UNKNOWNS_RIGHT), cases
    ):
        inst = plant_instance(n, 1, 2, orientation, seed)
        cfg = None
        if n == 8:
            from matpolyeq.solver import SolverConfig

            cfg = SolverConfig(max_classes=13000)
        result = solve_univariate(inst.equation, cfg)
        truth = inst.truth_unknowns[0]
        best = min(
            np.linalg.norm(f.unknowns[0] - truth) / np.linalg.norm(truth)
            for f in result.families
        )
        assert best <= 1e-6


def test_scalar_closure_degree_two():
    inst = plant_instance(1, 1, 2, Orientation.UNKNOWNS_LEFT, 9)
    roots = scalar_oracle(inst.equation)
    x = complex(inst.truth_unknowns[0][0, 0])
    assert any(abs(r - x) <= 1e-8 * (1.0 + abs(x)) for r in roots)


def test_oracle_agreement_dim_one():
    for seed in (3, 4, 5):
        inst = plant_instance(1, 1, 2, Orientation.UNKNOWNS_LEFT, seed)
        oracle = sorted(scalar_oracle(inst.equation), key=lambda z: (z.real, z.imag))
        result = solve_univariate(inst.equation)
        solver = sorted(
            (complex(f.eigenvalues[0][0]) for f in result.families),
            key=lambda z: (z.real, z.imag),
        )
        assert len(oracle) == len(solver)
        for a, b in zip(oracle, solver):
            assert abs(a - b) <= 1e-7 * (1.0 + abs(a))


def test_scalar_oracle_examples():
    def eq_from(coeffs):
        terms = {(k,): np.array([[c]], dtype=complex) for k, c in enumerate(coeffs)}
        return StructuredEquation(
            poly=MatrixPolynomial(arity=1, dim=1, terms=terms),
            orientation=Orientation.UNKNOWNS_LEFT,
        )

    assert np.allclose(scalar_oracle(eq_from([2, -3, 1])), [1.0, 2.0])
    assert np.allclose(scalar_oracle(eq_from([0, -1, 0, 1])), [-1.0, 0.0, 1.0], atol=1e-8)
    assert np.allclose(scalar_oracle(eq_from([1, 0, 1])), [-1j, 1j])


def test_scalar_oracle_zero_equation():
    # MatrixPolynomial drops all-zero coefficients, so the zero equation has no terms
    p = MatrixPolynomial(arity=1, dim=1, terms={(0,): np.zeros((1, 1))})
    assert p.terms == {}
    eq = StructuredEquation(poly=p, orientation=Orientation.UNKNOWNS_LEFT)
    with pytest.raises(DegreeZero, match="zero polynomial has no well-defined roots"):
        scalar_oracle(eq)


def test_symbolic_det_oracle_diagonal():
    p = MatrixPolynomial(arity=1, dim=2, terms={(2,): I2, (0,): np.diag([-1.0, -4.0])})
    assert np.array_equal(
        symbolic_det_oracle(p).coefficients, np.array([4, 0, -5, 0, 1], dtype=complex)
    )


def test_symbolic_det_oracle_characteristic_polynomial():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = MatrixPolynomial(arity=1, dim=2, terms={(1,): I2, (0,): -swap})
    assert np.array_equal(
        symbolic_det_oracle(p).coefficients, np.array([-1, 0, 1], dtype=complex)
    )


def test_symbolic_oracle_cross_check_both_directions():
    rng = np.random.default_rng(60)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 4))
        terms = {
            (k,): rng.integers(-5, 6, (n, n)).astype(complex)
            for k in range(degree + 1)
        }
        p = MatrixPolynomial(arity=1, dim=n, terms=terms)
        exact = symbolic_det_oracle(p).coefficients
        # exactness: integer coefficients by construction
        assert np.all(exact.real == np.round(exact.real))
        assert np.all(exact.imag == np.round(exact.imag))
        if np.all(exact == 0):
            continue
        approx = det_poly_univariate(p).coefficients
        k = max(len(exact), len(approx))
        pe = np.zeros(k, complex)
        pa = np.zeros(k, complex)
        pe[: len(exact)] = exact
        pa[: len(approx)] = approx
        assert np.max(np.abs(pe - pa)) <= 1e-6 * np.max(np.abs(pe))


def test_symbolic_det_oracle_gaussian_integers():
    p = MatrixPolynomial(
        arity=1, dim=1, terms={(1,): np.array([[1j]]), (0,): np.array([[1.0 + 2j]])}
    )
    coeffs = symbolic_det_oracle(p).coefficients
    assert np.array_equal(coeffs, np.array([1 + 2j, 1j]))


def test_symbolic_det_oracle_rejects_non_integers():
    p = MatrixPolynomial(arity=1, dim=1, terms={(0,): np.array([[0.5]])})
    with pytest.raises(NonIntegerInput):
        symbolic_det_oracle(p)


def test_symbolic_det_oracle_dimension_cap():
    p = MatrixPolynomial(arity=1, dim=5, terms={(0,): np.eye(5)})
    with pytest.raises(DimensionMismatch):
        symbolic_det_oracle(p)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", range(2, 7))
def test_cyclic_reduction_finds_the_planted_minimal_solvent(n, seed):
    eq, x = plant_minimal_solvent(n, seed)
    assert verify_residual(eq, [x]) <= 1e-15
    terms = eq.poly.terms
    g, steps = cyclic_reduction(terms[(0,)], terms[(1,)], terms[(2,)], math.sqrt(8))
    assert steps <= 10  # quadratic convergence
    assert np.linalg.norm(g - x) <= 1e-10 * np.linalg.norm(x)


@pytest.mark.parametrize("n", [2, 8, 16, 32])
def test_planted_eigenvalues_are_separated(n):
    # about 8%, 30% and 78% of raw draws at n = 8, 16, 32 have a pair closer than the
    # separation, so these sizes exercise the rejection
    for seed in range(4):
        inst = plant_instance(n, 2, 1, Orientation.UNKNOWNS_LEFT, seed)
        for vals in inst.truth_eigenvalues:
            for a, b in itertools.combinations(vals, 2):
                assert abs(a - b) >= EIGEN_SEPARATION


@pytest.mark.parametrize("n, seed", [(64, 4), (64, 10), (80, 0)])
def test_plant_beyond_the_separated_draws_is_an_invalid_setting(n, seed):
    # n eigenvalues 0.1 apart rarely fit the annulus 0.5 <= |z| <= 2 beyond n = 64
    with pytest.raises(InvalidSetting, match=f"^could not draw separated eigenvalues at n = {n}$"):
        plant_instance(n, 1, 2, Orientation.UNKNOWNS_RIGHT, seed)


def test_plant_sandwich_requires_template():
    with pytest.raises(DimensionMismatch):
        plant_instance(2, 3, 2, Orientation.SANDWICH_BIVARIATE, 0)
    with pytest.raises(DimensionMismatch):
        plant_instance(2, 2, 3, Orientation.SANDWICH_BIVARIATE, 0)


def test_plant_deterministic_under_seed():
    a = plant_instance(2, 2, 2, Orientation.UNKNOWNS_RIGHT, 77)
    b = plant_instance(2, 2, 2, Orientation.UNKNOWNS_RIGHT, 77)
    for ka, kb in zip(sorted(a.equation.poly.terms), sorted(b.equation.poly.terms)):
        assert ka == kb
        assert np.array_equal(a.equation.poly.terms[ka], b.equation.poly.terms[kb])
    assert np.array_equal(a.truth_transform, b.truth_transform)
