import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matpolyeq import linalg
from matpolyeq.errors import ConvergenceFailure, DimensionMismatch, NonFiniteInput, SingularMatrix
from matpolyeq.polymatrix import (
    MatrixPolynomial,
    ScalarPolynomial,
    evaluate,
    fix_all_but,
    null_vectors_at,
)
from matpolyeq.solver import (
    Orientation,
    StructuredEquation,
    commutation_check,
    equation_lhs,
    family_from_points,
    quotient_factor,
    sandwich_probe,
    verify_residual,
)

I2 = np.eye(2)
P2 = MatrixPolynomial(arity=2, dim=2, terms={(1, 0): I2, (0, 1): -I2})


def _equation(arity, orientation, terms):
    return StructuredEquation(MatrixPolynomial(arity=arity, dim=2, terms=terms), orientation)


LEFT = _equation(1, Orientation.UNKNOWNS_LEFT, {(2,): I2, (0,): -I2})
RIGHT2 = StructuredEquation(P2, Orientation.UNKNOWNS_RIGHT)
SANDWICH = _equation(2, Orientation.SANDWICH_BIVARIATE, {(0, 0): I2})

#: Each public function with an array argument, called with that argument
#: alone, then an argument of the right shape and one of a wrong shape.
GATED = {
    "evaluate": (lambda a: evaluate(P2, a), [1.0, 2.0], [1.0, 2.0, 3.0]),
    "null_vectors_at": (lambda a: null_vectors_at(P2, a, "right"), [1.0, 2.0], 1.0),
    "fix_all_but": (lambda a: fix_all_but(P2, 0, a), [1.0], [1.0, 2.0]),
    "ScalarPolynomial": (ScalarPolynomial, [1.0, 2.0], [[1.0, 2.0]]),
    "verify_residual": (lambda a: verify_residual(LEFT, [a]), I2, np.eye(3)),
    "equation_lhs": (lambda a: equation_lhs(LEFT, [a]), I2, np.eye(2, 3)),
    "family_from_points": (lambda a: family_from_points(RIGHT2, a, I2), I2, np.ones((2, 3))),
    "quotient_factor": (lambda a: quotient_factor(LEFT, a), I2, [1.0, 1.0]),
    "commutation_check": (lambda a: commutation_check([I2, a]), I2, np.eye(3)),
    "sandwich_probe": (lambda a: sandwich_probe(SANDWICH, I2, a), I2, np.eye(3)),
    "linalg.inverse": (linalg.inverse, I2, np.eye(2, 3)),
    "linalg.eigen": (linalg.eigen, I2, np.ones((1, 2, 2))),
}


@pytest.mark.parametrize("fault", ["shape", "inf", "nan"])
@pytest.mark.parametrize("name", list(GATED))
def test_argument_gate(name, fault):
    # every array argument is read through linalg._checked
    call, good, wrong = GATED[name]
    if fault == "shape":
        with pytest.raises(DimensionMismatch, match=r" has shape \(.*\), expected \("):
            call(wrong)
        return
    bad = np.array(good, dtype=complex)
    bad.flat[-1] = complex(np.inf if fault == "inf" else np.nan, 0.0)
    kind = "vector" if bad.ndim == 1 else "matrix"
    with pytest.raises(NonFiniteInput, match=f"^{kind} entries must be finite$"):
        call(bad)


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NonFiniteInput):
        linalg.as_matrix([[np.nan, 0.0], [0.0, 1.0]])


def test_inverse_identity():
    inv, cond = linalg.inverse(np.eye(3))
    assert np.allclose(inv, np.eye(3))
    assert cond == pytest.approx(1.0)


def test_inverse_diagonal():
    inv, _ = linalg.inverse(np.diag([2.0, 4.0]))
    assert np.allclose(inv, np.diag([0.5, 0.25]))


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        linalg.inverse(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_inverse_stack_flags_singular_members():
    # an exactly singular member must neither raise nor spoil its neighbours
    rng = np.random.default_rng(4)
    good = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    singular = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    stack = np.stack([good[0], singular, good[1]]).astype(complex)
    inv, cond, failures = linalg.inverse_stack(stack)
    for k in (0, 2):
        ref, ref_cond = linalg.inverse(stack[k])
        assert failures[k] is None
        assert np.allclose(inv[k], ref) and cond[k] == pytest.approx(ref_cond)
    with pytest.raises(SingularMatrix) as exc:
        linalg.inverse(singular)
    assert failures[1] == str(exc.value)
    assert cond[1] == np.inf


@pytest.mark.parametrize("view", ["contiguous", "transposed"])
def test_inverse_stack_members_do_not_depend_on_singular_neighbours(view):
    # a stack with a singular member is copied to put the identity in its
    # place, one without is inverted as it is: every nonsingular member
    # must get the same inverse and condition number, bit for bit
    rng = np.random.default_rng(9)
    good = rng.standard_normal((4, 5, 5)) + 1j * rng.standard_normal((4, 5, 5))
    deficient = good[0] @ np.diag([1.0, 1.0, 1.0, 1.0, 0.0]) @ good[1]
    mixed = np.stack([good[0], np.zeros((5, 5)), good[1], deficient, good[2], good[3]])
    if view == "transposed":
        good, mixed = good.transpose(0, 2, 1), mixed.transpose(0, 2, 1)
    assert mixed.flags.c_contiguous == (view == "contiguous")
    inv, cond, failures = linalg.inverse_stack(good)
    mixed_inv, mixed_cond, mixed_failures = linalg.inverse_stack(mixed)
    assert failures == [None] * 4
    assert [f is None for f in mixed_failures] == [True, False, True, False, True, True]
    assert mixed_cond[1] == mixed_cond[3] == np.inf
    assert np.array_equal(mixed_inv[[1, 3]], np.stack([np.eye(5)] * 2))
    assert np.array_equal(mixed_inv[[0, 2, 4, 5]], inv)
    assert np.array_equal(mixed_cond[[0, 2, 4, 5]], cond)
    for k in range(4):
        alone_inv, alone_cond, _ = linalg.inverse_stack(good[k : k + 1])
        assert np.array_equal(alone_inv[0], inv[k]) and alone_cond[0] == cond[k]


def test_inverse_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(m) > 1e6:
            continue
        inv, _ = linalg.inverse(m)
        gap = np.linalg.norm(m @ inv - np.eye(n))
        assert gap <= 1e-8 * np.linalg.norm(m)


def test_eigen_diagonal():
    vals, vecs = linalg.eigen(np.diag([1.0, 2.0]))
    assert np.allclose(vals, [1.0, 2.0])
    assert np.allclose(np.abs(vecs), np.eye(2))


def test_eigen_symmetric_swap():
    vals, _ = linalg.eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])


def test_eigen_rotation():
    # characteristic polynomial lambda^2 + 1 by hand: roots -i, +i
    vals, vecs = linalg.eigen(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1j, 1j])
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    for k in range(2):
        assert np.linalg.norm(m @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-12


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        vals, vecs = linalg.eigen(m)
        gap = np.linalg.norm(m @ vecs - vecs @ np.diag(vals))
        assert gap <= 1e-8 * np.linalg.norm(m)


def test_eigen_non_convergence_is_a_package_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    with pytest.raises(ConvergenceFailure) as info:
        linalg.eigen(np.eye(2))
    assert str(info.value) == "eigensolve: Eigenvalues did not converge"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_determinism_bit_for_bit():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    v1, w1 = linalg.eigen(m)
    v2, w2 = linalg.eigen(m)
    assert np.array_equal(v1, v2) and np.array_equal(w1, w2)
    i1, c1 = linalg.inverse(m)
    i2, c2 = linalg.inverse(m)
    assert np.array_equal(i1, i2) and c1 == c2


def key_bits(key):
    # a lex key as bytes: tells -0.0 from 0.0 and compares nan equal to itself
    return struct.pack("<dd", *key)


#: Doubles with every special case a lex key must pass through: signed
#: zeros, subnormals, the largest finite values, infinities and nan.
SPECIAL_DOUBLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@given(SPECIAL_DOUBLES, SPECIAL_DOUBLES)
def test_lex_key_agrees_across_scalar_types(re, im):
    z = complex(re, im)
    assert key_bits(linalg.lex_key(np.complex128(z))) == key_bits(linalg.lex_key(z))
    assert key_bits(linalg.lex_key(np.float64(re))) == key_bits(linalg.lex_key(complex(re, 0.0)))
    # lex_key reads the parts through complex(), which gives the bits that
    # np.real and np.imag give, for each scalar type
    for v in (z, np.complex128(z), np.float64(re)):
        assert key_bits((complex(v).real, complex(v).imag)) == key_bits(
            (float(np.real(v)), float(np.imag(v)))
        )

