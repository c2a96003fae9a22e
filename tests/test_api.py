import re
from pathlib import Path

import numpy as np
import pytest
from oracles import dual_equation

import matpolyeq
from matpolyeq import io, linalg
from matpolyeq.errors import DimensionMismatch, DocumentError, InvalidSetting, NonFiniteInput
from matpolyeq.cli import main
from matpolyeq.instances import plant_instance
from matpolyeq.polymatrix import (
    MatrixPolynomial,
    det_poly_univariate,
    fix_all_but,
    null_vectors_at,
    sample_variety,
)
from matpolyeq.solver import (
    Orientation,
    SolverConfig,
    StructuredEquation,
    eigen_candidates,
    quotient_factor,
    sandwich_probe,
)


def test_star_import_exports_every_public_name():
    names = matpolyeq.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from matpolyeq import *", namespace)
    assert [name for name in names if name not in namespace] == []


def test_polynomials_and_equations_compare_by_identity():
    eye = np.eye(2)
    p = matpolyeq.MatrixPolynomial(1, 2, {(1,): eye})
    q = matpolyeq.MatrixPolynomial(1, 2, {(1,): eye})
    assert p == p and p != q
    assert len({p, q, p}) == 2 and hash(p) == hash(p)
    left = matpolyeq.Orientation.UNKNOWNS_LEFT
    e, f = matpolyeq.StructuredEquation(p, left), matpolyeq.StructuredEquation(p, left)
    assert e == e and e != f
    assert len({e, f, e}) == 2 and hash(e) == hash(e)


def readme_block(heading, language):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_prints_verified_families(capsys):
    namespace = {}
    exec(readme_block("Library quick start", "python"), namespace)
    printed = re.findall(r"\]\] (\S+)$", capsys.readouterr().out, flags=re.MULTILINE)
    families = namespace["result"].families
    assert families and len(printed) == len(families)
    assert all(float(residual) <= 1e-8 for residual in printed)
    for family in families:
        assert matpolyeq.verify_residual(namespace["eq"], family.unknowns) <= 1e-8


def test_readme_solve_example_prints_its_document(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    command = "matpolyeq solve tests/data/scalar_quadratic.json --seed 0"
    shown = text.split(f"`{command}` writes\n\n```json\n", 1)[1].split("```", 1)[0]
    assert main(command.split()[1:]) == 0
    assert capsys.readouterr() == (shown, "")


I2 = np.eye(2)
UNIVARIATE = MatrixPolynomial(1, 2, {(1,): I2, (0,): -2 * I2})
BIVARIATE = MatrixPolynomial(2, 2, {(1, 0): I2, (0, 1): I2})
RIGHT_1 = StructuredEquation(UNIVARIATE, Orientation.UNKNOWNS_RIGHT)
LEFT_1 = StructuredEquation(UNIVARIATE, Orientation.UNKNOWNS_LEFT)
LEFT_2 = StructuredEquation(BIVARIATE, Orientation.UNKNOWNS_LEFT)
MISSING = Path(__file__).parent / "data" / "missing.json"

# each guard, its exception class and its exact message
GUARDS = {
    "load_document-missing": (
        lambda: io.load_document(str(MISSING)),
        DocumentError,
        f"cannot read {MISSING}: [Errno 2] No such file or directory: '{MISSING}'",
    ),
    "polynomial-arity": (
        lambda: MatrixPolynomial(0, 2, {}), DimensionMismatch, "arity must be >= 1"
    ),
    "polynomial-dim": (lambda: MatrixPolynomial(1, 0, {}), DimensionMismatch, "dim must be >= 1"),
    "polynomial-exponent-length": (
        lambda: MatrixPolynomial(2, 2, {(1,): I2}),
        DimensionMismatch,
        "exponent tuple (1,) has length 1, expected arity 2",
    ),
    "polynomial-negative-exponent": (
        lambda: MatrixPolynomial(1, 2, {(-1,): I2}),
        DimensionMismatch,
        "exponent tuple (-1,) has a negative entry",
    ),
    "polynomial-coefficient-shape": (
        lambda: MatrixPolynomial(1, 2, {(1,): np.eye(3)}),
        DimensionMismatch,
        "coefficient for (1,) has shape (3, 3), expected (2, 2)",
    ),
    "equation-orientation": (
        lambda: StructuredEquation(UNIVARIATE, "left"),
        DimensionMismatch,
        "invalid orientation 'left'",
    ),
    "equation-sandwich-arity": (
        lambda: StructuredEquation(UNIVARIATE, Orientation.SANDWICH_BIVARIATE),
        DimensionMismatch,
        "sandwich orientation requires arity 2",
    ),
    "config-max-classes": (
        lambda: SolverConfig(max_classes=0), InvalidSetting, "max_classes must be >= 1"
    ),
    "eigen_candidates-arity": (
        lambda: eigen_candidates(LEFT_2),
        DimensionMismatch,
        "eigen_candidates needs a univariate equation",
    ),
    "det_poly_univariate-arity": (
        lambda: det_poly_univariate(BIVARIATE),
        DimensionMismatch,
        "det_poly_univariate needs arity 1, got 2",
    ),
    "fix_all_but-arity": (
        lambda: fix_all_but(UNIVARIATE, 0, []), DimensionMismatch, "fix_all_but needs arity >= 2"
    ),
    "quotient_factor-arity": (
        lambda: quotient_factor(LEFT_2, I2),
        DimensionMismatch,
        "quotient_factor needs a univariate equation",
    ),
    "quotient_factor-orientation": (
        lambda: quotient_factor(RIGHT_1, I2),
        DimensionMismatch,
        "quotient_factor applies to unknowns-left equations",
    ),
    "dual_equation-sandwich": (
        lambda: dual_equation(
            matpolyeq.plant_instance(2, 2, 2, Orientation.SANDWICH_BIVARIATE, 0).equation
        ),
        DimensionMismatch,
        "the sandwich template has no transpose dual",
    ),
    "sandwich_probe-orientation": (
        lambda: sandwich_probe(LEFT_2, I2, I2),
        DimensionMismatch,
        "sandwich_probe needs a sandwich equation",
    ),
    "sample_variety-side": (
        lambda: sample_variety(BIVARIATE, "up", 1, 0),
        InvalidSetting,
        "side must be 'left' or 'right', got 'up'",
    ),
    "null_vectors_at-side": (
        lambda: null_vectors_at(BIVARIATE, [1.0, -1.0], "Right"),
        InvalidSetting,
        "side must be 'left' or 'right', got 'Right'",
    ),
    "inverse_stack-inf": (
        lambda: linalg.inverse_stack(np.full((1, 2, 2), np.inf)),
        NonFiniteInput,
        "matrix entries must be finite",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_class_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


RIGHT = Orientation.UNKNOWNS_RIGHT

#: Each integer argument with a non-integral value, and the function that
#: reads it through operator.index on entry.
INTEGRAL = {
    "exponent": (lambda: MatrixPolynomial(1, 1, {(1,): [[1]], (1.5,): [[7]]}), "__post_init__"),
    "arity": (lambda: MatrixPolynomial(1.0, 1, {}), "__post_init__"),
    "dim": (lambda: MatrixPolynomial(1, 2.5, {}), "__post_init__"),
    "count": (lambda: sample_variety(BIVARIATE, "right", 2.5, 0), "sample_variety"),
    "seed": (lambda: sample_variety(BIVARIATE, "right", 2, 0.5), "sample_variety"),
    "pivot": (lambda: fix_all_but(BIVARIATE, 0.5, [1.0]), "fix_all_but"),
    "max_classes": (lambda: SolverConfig(max_classes=2.5), "__post_init__"),
    "config-seed": (lambda: SolverConfig(seed=0.5), "__post_init__"),
    "n": (lambda: plant_instance(2.5, 1, 2, RIGHT, 0), "plant_instance"),
    "m": (lambda: plant_instance(2, 1.5, 2, RIGHT, 0), "plant_instance"),
    "degree": (lambda: plant_instance(2, 1, 2.5, RIGHT, 0), "plant_instance"),
    "plant-seed": (lambda: plant_instance(2, 1, 2, RIGHT, 0.5), "plant_instance"),
}


@pytest.mark.parametrize("name", list(INTEGRAL))
def test_integer_argument_gate(name):
    call, entry = INTEGRAL[name]
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$") as info:
        call()
    # raised where the argument is read, before any work on it
    assert info.traceback[-1].name == entry
