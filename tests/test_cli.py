import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from matpolyeq import io
from matpolyeq.cli import main
from matpolyeq.polymatrix import MatrixPolynomial
from matpolyeq.errors import NotSimultaneouslyDiagonalizable
from matpolyeq.solver import (
    Orientation,
    SolutionFamily,
    StructuredEquation,
    _commutations,
    _relative_residuals,
    sandwich_probe,
    verify_residual,
)

DATA = Path(__file__).parent / "data"


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def to_complex(pair):
    return complex(pair[0], pair[1])


def test_solve_scalar_quadratic(tmp_path):
    out = tmp_path / "sol.json"
    rc = main(["solve", str(DATA / "scalar_quadratic.json"), "--seed", "0", "--output", str(out)])
    assert rc == 0
    doc = load(out)
    assert len(doc["families"]) == 2
    xs = sorted(to_complex(f["unknowns"][0][0][0]).real for f in doc["families"])
    assert np.allclose(xs, [1.0, 2.0])
    for f in doc["families"]:
        assert f["residual"] <= 1e-10


def test_solve_square_root_identity(tmp_path):
    out = tmp_path / "sol.json"
    rc = main(["solve", str(DATA / "square_root_identity.json"), "--seed", "0", "--output", str(out)])
    assert rc == 0
    assert len(load(out)["families"]) == 3


def test_solution_document_echoes_recomputed_residual(tmp_path):
    out = tmp_path / "sol.json"
    main(["solve", str(DATA / "scalar_quadratic.json"), "--seed", "0", "--output", str(out)])
    eq = io.equation_from_document(load(DATA / "scalar_quadratic.json"))
    families, _ = io.solution_from_document(load(out), eq.dim, eq.arity)
    for family in families:
        recomputed = verify_residual(eq, family.unknowns)
        assert abs(recomputed - family.residual) <= 1e-12


def test_solve_malformed_document(tmp_path, capsys):
    rc = main(["solve", str(DATA / "malformed.json"), "--seed", "0"])
    assert rc == 1
    assert "$.arity" in capsys.readouterr().err


def test_solve_identically_singular(capsys):
    rc = main(["solve", str(DATA / "zero_equation.json"), "--seed", "0"])
    assert rc == 1
    assert "IdenticallySingular" in capsys.readouterr().err


def test_solve_bivariate_circle(tmp_path):
    out = tmp_path / "sol.json"
    rc = main(["solve", str(DATA / "circle.json"), "--seed", "0", "--output", str(out)])
    assert rc == 0
    doc = load(out)
    for f in doc["families"]:
        x = to_complex(f["unknowns"][0][0][0])
        y = to_complex(f["unknowns"][1][0][0])
        assert abs(x**2 + y**2 - 2.0) <= 1e-10


def test_detpoly_scalar_quadratic(tmp_path):
    out = tmp_path / "det.json"
    rc = main(["detpoly", str(DATA / "scalar_quadratic.json"), "--output", str(out)])
    assert rc == 0
    doc = load(out)
    coeffs = [to_complex(c) for c in doc["coefficients"]]
    assert np.allclose(coeffs, [2.0, -3.0, 1.0], atol=1e-9)
    roots = sorted(to_complex(r["value"]).real for r in doc["roots"])
    assert np.allclose(roots, [1.0, 2.0])


def test_detpoly_square_root_identity(tmp_path):
    out = tmp_path / "det.json"
    rc = main(["detpoly", str(DATA / "square_root_identity.json"), "--output", str(out)])
    assert rc == 0
    doc = load(out)
    coeffs = [to_complex(c) for c in doc["coefficients"]]
    assert np.allclose(coeffs, [1.0, 0.0, -2.0, 0.0, 1.0], atol=1e-9)
    assert sorted(r["multiplicity"] for r in doc["roots"]) == [2, 2]


def test_detpoly_bivariate_slice(tmp_path):
    out = tmp_path / "det.json"
    rc = main([
        "detpoly", str(DATA / "circle.json"), "--pivot", "1", "--fix", "1", "--output", str(out)
    ])
    assert rc == 0
    roots = sorted(to_complex(r["value"]).real for r in load(out)["roots"])
    assert np.allclose(roots, [-1.0, 1.0])


def test_detpoly_wrong_fix_count(capsys):
    rc = main(["detpoly", str(DATA / "circle.json"), "--pivot", "0", "--fix", "1,2"])
    assert rc == 1


def test_detpoly_pivot_out_of_range():
    rc = main(["detpoly", str(DATA / "circle.json"), "--pivot", "2", "--fix", "1"])
    assert rc == 1


def test_detpoly_univariate_takes_only_pivot_0(tmp_path, capsys):
    eq_path = str(DATA / "scalar_quadratic.json")
    assert main(["detpoly", eq_path, "--pivot", "0", "--output", str(tmp_path / "d.json")]) == 0
    assert main(["detpoly", eq_path, "--pivot", "1"]) == 1
    assert capsys.readouterr().err == (
        "detpoly: InvalidSetting: a univariate equation takes no --fix values and only pivot 0\n"
    )


def test_detpoly_matches_symbolic_oracle(tmp_path):
    from oracles import symbolic_det_oracle
    from matpolyeq.polymatrix import MatrixPolynomial
    from matpolyeq.solver import Orientation, StructuredEquation

    rng = np.random.default_rng(70)
    terms = {(k,): rng.integers(-5, 6, (3, 3)).astype(complex) for k in range(3)}
    poly = MatrixPolynomial(arity=1, dim=3, terms=terms)
    eq = StructuredEquation(poly=poly, orientation=Orientation.UNKNOWNS_LEFT)
    eq_path = tmp_path / "eq.json"
    with open(eq_path, "w", encoding="utf-8") as fh:
        json.dump(io.equation_to_document(eq), fh)
    out = tmp_path / "det.json"
    assert main(["detpoly", str(eq_path), "--output", str(out)]) == 0
    printed = [to_complex(c) for c in load(out)["coefficients"]]
    exact = symbolic_det_oracle(poly).coefficients
    assert np.max(np.abs(np.array(printed) - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_sample_variety_circle(tmp_path):
    out = tmp_path / "pts.json"
    rc = main([
        "sample-variety", str(DATA / "circle.json"), "--count", "4", "--seed", "0",
        "--output", str(out),
    ])
    assert rc == 0
    doc = load(out)
    assert len(doc["points"]) >= 4
    for pt in doc["points"]:
        a = to_complex(pt["values"][0])
        b = to_complex(pt["values"][1])
        assert abs(a**2 + b**2 - 2.0) <= 1e-10


def test_sample_variety_empty_variety(capsys):
    rc = main(["sample-variety", str(DATA / "constant_arity2.json"), "--count", "2", "--seed", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "sample-variety: NoPointsFound: no variety points found in 16 slices\n"


def test_sample_variety_malformed_document(capsys):
    rc = main(["sample-variety", str(DATA / "malformed.json"), "--seed", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "sample-variety: DocumentError: $.arity: missing\n"


SLICING_COMMANDS = [
    ["solve", "--seed", "0"],
    ["sample-variety", "--seed", "0"],
    ["detpoly", "--fix", "1"],
]


@pytest.mark.parametrize("argv", SLICING_COMMANDS, ids=lambda argv: argv[0])
def test_zero_equation_of_several_unknowns_exit_1(tmp_path, capsys, argv):
    # raised before any slice is folded: a dense one would take 300 x 300 blocks
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dimension": 300, "arity": 2, "orientation": "right", "terms": []}))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"{argv[0]}: IdenticallySingular: zero polynomial matrix\n"


@pytest.mark.parametrize("argv", SLICING_COMMANDS, ids=lambda argv: argv[0])
def test_fold_overflow_exit_1_without_a_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([argv[0], str(DATA / "overflow_fold.json"), *argv[1:]]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(argv[0] + ": ") and line.endswith("matrix entries must be finite")


@pytest.mark.parametrize(
    "doc, status, err",
    [
        ("scaled_1e45_arity2", 0, ""),
        (
            "scaled_1e45_univariate",
            1,
            "solve: NonFiniteInput: det P leaves the double range at the sample nodes\n",
        ),
    ],
    ids=["arity2", "univariate"],
)
def test_determinant_overflow_without_a_warning(tmp_path, capsys, doc, status, err):
    # planted n = 8 equations with every coefficient times 1e45: det P at the
    # sampled points leaves the double range
    argv = ["solve", str(DATA / f"{doc}.json"), "--seed", "0", "--output", str(tmp_path / "s.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == status
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "doc, command",
    [
        ("scaled_1e-45_univariate", "solve"),
        ("scaled_1e-45_univariate", "detpoly"),
        ("scaled_1e45_univariate", "detpoly"),
        ("scaled_1e-41_univariate", "solve"),
        ("scaled_1e-41_univariate", "detpoly"),
        ("scaled_1e-40_univariate", "solve"),
        ("scaled_1e-40_univariate", "detpoly"),
    ],
    ids=[
        "1e-45-solve",
        "1e-45-detpoly",
        "1e45-detpoly",
        "1e-41-solve",
        "1e-41-detpoly",
        "1e-40-solve",
        "1e-40-detpoly",
    ],
)
def test_determinant_out_of_range_is_non_finite_input(tmp_path, capsys, doc, command):
    # the planted n = 8 equation times 1e-45 or 1e45: det P underflows or
    # overflows at the interpolation nodes, which is no identically zero det P.
    # Times 1e-41 or 1e-40 its interpolated coefficients are subnormal
    argv = [command, str(DATA / f"{doc}.json"), "--output", str(tmp_path / "out.json")]
    if command == "solve":
        argv += ["--seed", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    message = "NonFiniteInput: det P leaves the double range at the sample nodes"
    assert capsys.readouterr().err == f"{command}: {message}\n"


@pytest.mark.parametrize("command", ["solve", "sample-variety"])
def test_roots_past_the_double_range_exit_1(capsys, command):
    # 1e300 z1 + 1e-300 z2: each slice's root, -1e-600 z2, underflows.
    # 1e-320 z1^2 + z1 + 1 + z2: the root scale of each slice, 1e160, is in
    # range, but one of its roots, near -1e320, is not
    message = "NonFiniteInput: a root of P leaves the double range"
    for doc in ("root_underflow_arity2", "root_overflow_arity2"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(DATA / f"{doc}.json"), "--seed", "0"]) == 1
        assert capsys.readouterr().err == f"{command}: {message}\n"


@pytest.mark.parametrize("command", ["solve", "detpoly"])
@pytest.mark.parametrize("doc", ["root_overflow_univariate", "root_underflow_univariate"])
def test_univariate_roots_past_the_double_range_exit_1(capsys, doc, command):
    # 1e-320 z + 1, whose root -1e320 overflows, and 1e300 z + 1e-300, whose
    # root -1e-600 underflows: the determinant route applies the range rule
    # of the pencil before it places its nodes
    argv = [command, str(DATA / f"{doc}.json")] + (["--seed", "0"] if command == "solve" else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    message = "NonFiniteInput: a root of P leaves the double range"
    assert capsys.readouterr().err == f"{command}: {message}\n"


@pytest.mark.parametrize(
    "doc", ["null_norm_overflow_arity2", "null_norm_overflow_quadratic_arity2", "far_root_arity2"]
)
def test_null_vector_image_overflow_solves_without_a_warning(tmp_path, capsys, doc):
    # 1e300 z1 + z2 + 1e-300 and z1^2 + 1e200 z2 + 1: at a root near 1e300 or
    # 1e200, P applied to the offered null vector is off by more than 1e154,
    # whose square overflows in its norm; the point takes the SVD instead.
    # 1e-300 z1^2 + z1 + 1 + z2: at its root near -1e300, z1^2 and so P
    # overflow; that point gets no null vector, and the other roots solve
    path, sol = str(DATA / f"{doc}.json"), str(tmp_path / "s.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", path, "--seed", "0", "--output", sol]) == 0
        points = ["sample-variety", path, "--seed", "0", "--output", str(tmp_path / "p.json")]
        assert main(points) == 0
        assert main(["verify", path, sol, "--output", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "r.json").read_text())["all_ok"]


def test_coefficient_norms_past_the_double_range_without_a_warning(tmp_path, capsys):
    # a planted n = 4 equation of two unknowns times 1e160: the squares of its
    # entries leave the double range, its coefficient norms do not.  The
    # solution verifies against the equation and against the unscaled one,
    # planted with the same settings
    doc = str(DATA / "scaled_1e160_arity2.json")
    sol, points = str(tmp_path / "s.json"), str(tmp_path / "p.json")
    unscaled = str(tmp_path / "eq.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", doc, "--seed", "0", "--output", sol]) == 0
        assert main(["sample-variety", doc, "--seed", "0", "--output", points]) == 0
    assert capsys.readouterr().err == ""
    plant = ["plant", "--dimension", "4", "--arity", "2", "--degree", "2", "--seed", "3"]
    assert main([*plant, "--output", unscaled, "--truth", str(tmp_path / "t.json")]) == 0
    for equation in (doc, unscaled):
        assert main(["verify", equation, sol, "--output", str(tmp_path / "r.json")]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["all_ok"] and len(report["families"]) == 1
    assert len(json.loads(Path(points).read_text())["points"]) >= 8


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["sample-variety", str(DATA / "overflow_fold.json"), "--seed", "0"],
            "sample-variety: NonFiniteInput: matrix entries must be finite",
        ),
        (
            ["plant", "--dimension", "0", "--arity", "1", "--degree", "2", "--seed", "1"],
            "plant: DimensionMismatch: n, m, degree must all be >= 1",
        ),
    ],
    ids=["sample-variety", "plant"],
)
def test_library_errors_name_their_class(tmp_path, capsys, argv, line):
    if argv[0] == "plant":
        argv = argv + ["--output", str(tmp_path / "eq.json"), "--truth", str(tmp_path / "t.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == line + "\n"


def test_sample_variety_rejects_univariate():
    rc = main(["sample-variety", str(DATA / "scalar_quadratic.json"), "--count", "2", "--seed", "0"])
    assert rc == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "circle.json", "--seed", "-1"], "solve: InvalidSetting: seed must be >= 0"),
        (
            ["sample-variety", "circle.json", "--seed", "-1"],
            "sample-variety: InvalidSetting: seed must be >= 0",
        ),
        (
            ["sample-variety", "circle.json", "--seed", "0", "--count", "0"],
            "sample-variety: InvalidSetting: count must be >= 1",
        ),
        (
            ["plant", "--dimension", "2", "--arity", "2", "--degree", "2", "--seed", "-1"],
            "plant: InvalidSetting: seed must be >= 0",
        ),
    ],
    ids=["solve-seed", "sample-variety-seed", "sample-variety-count", "plant-seed"],
)
def test_negative_seed_or_zero_count_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    argv += ["--output", str(out)]
    if argv[0] == "plant":
        argv += ["--truth", str(tmp_path / "truth.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "eq2.json"],
        ["sample-variety", "eq2.json", "--count", "8"],
        ["solve", str(DATA / "scalar_quadratic.json")],
    ],
    ids=["solve", "sample-variety", "solve-one-unknown"],
)
def test_seed_beyond_double_range_wraps_modulo_2_53(tmp_path, capsys, argv):
    # the walk reads a seed modulo 2**53, so any seed no double can hold
    # writes the document of its remainder
    eq = tmp_path / "eq2.json"
    plant = ["plant", "--dimension", "4", "--arity", "2", "--degree", "2", "--seed", "1"]
    assert main(plant + ["--output", str(eq), "--truth", str(tmp_path / "truth.json")]) == 0
    argv = [str(tmp_path / a) if a == "eq2.json" else a for a in argv]
    for seed in (10**400, 2**53 + 7, 2**64):
        big, wrapped = tmp_path / "big.json", tmp_path / "wrapped.json"
        assert main(argv + ["--seed", str(seed), "--output", str(big)]) == 0
        assert main(argv + ["--seed", str(seed % 2**53), "--output", str(wrapped)]) == 0
        assert big.read_bytes() == wrapped.read_bytes()
    assert capsys.readouterr().err == ""


def test_sample_variety_identically_singular(tmp_path, capsys):
    rank_one = [[[1, 0], [1, 0]], [[2, 0], [2, 0]]]
    doc = {
        "dimension": 2,
        "arity": 2,
        "orientation": "right",
        "terms": [{"exponents": e, "coefficient": rank_one} for e in ([1, 0], [0, 1], [0, 0])],
    }
    eq_path = tmp_path / "rank_one.json"
    with open(eq_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc = main(["sample-variety", str(eq_path), "--count", "2", "--seed", "0"])
    assert rc == 1
    assert "IdenticallySingular" in capsys.readouterr().err


def test_verify_wrong_solution_exit_3(tmp_path):
    sol = {
        "families": [
            {
                "eigenvalues": [[[2.0, 0.0], [2.0, 0.0]]],
                "transform": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "unknowns": [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]],
                "residual": 1.0,
                "transform_condition": 1.0,
            }
        ],
        "diagnostics": [],
    }
    sol_path = tmp_path / "sol.json"
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(sol, fh)
    rc = main([
        "verify", str(DATA / "square_root_identity.json"), str(sol_path),
        "--output", str(tmp_path / "rep.json"),
    ])
    assert rc == 3


def test_verify_dimension_mismatch(tmp_path):
    sol = {
        "families": [
            {
                "eigenvalues": [[[1.0, 0.0]]],
                "transform": [[[1.0, 0.0]]],
                "unknowns": [[[[1.0, 0.0]]]],
                "residual": 0.0,
                "transform_condition": 1.0,
            }
        ],
        "diagnostics": [],
    }
    sol_path = tmp_path / "sol.json"
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(sol, fh)
    rc = main(["verify", str(DATA / "square_root_identity.json"), str(sol_path)])
    assert rc == 1


@pytest.mark.parametrize(
    "flags",
    [
        ["--dimension", "1", "--arity", "1", "--degree", "2", "--seed", "5"],
        ["--dimension", "2", "--arity", "2", "--degree", "2", "--seed", "11"],
        ["--dimension", "2", "--arity", "1", "--degree", "2", "--orientation", "left", "--seed", "19"],
    ],
)
def test_plant_solve_verify_composition(tmp_path, flags):
    eq_path = tmp_path / "eq.json"
    truth_path = tmp_path / "truth.json"
    sol_path = tmp_path / "sol.json"
    rc = main(["plant", *flags, "--output", str(eq_path), "--truth", str(truth_path)])
    assert rc == 0
    rc = main(["solve", str(eq_path), "--seed", "1", "--output", str(sol_path)])
    assert rc == 0
    rc = main(["verify", str(eq_path), str(sol_path), "--output", str(tmp_path / "r1.json")])
    assert rc == 0
    rc = main(["verify", str(eq_path), str(truth_path), "--output", str(tmp_path / "r2.json")])
    assert rc == 0


def test_plant_univariate_solver_recovers_truth(tmp_path):
    eq_path = tmp_path / "eq.json"
    truth_path = tmp_path / "truth.json"
    sol_path = tmp_path / "sol.json"
    main([
        "plant", "--dimension", "2", "--arity", "1", "--degree", "2",
        "--orientation", "left", "--seed", "23",
        "--output", str(eq_path), "--truth", str(truth_path),
    ])
    main(["solve", str(eq_path), "--seed", "0", "--output", str(sol_path)])
    eq = io.equation_from_document(load(eq_path))
    truth_families, _ = io.solution_from_document(load(truth_path), eq.dim, eq.arity)
    solved_families, _ = io.solution_from_document(load(sol_path), eq.dim, eq.arity)
    truth = truth_families[0].unknowns[0]
    best = min(
        np.linalg.norm(f.unknowns[0] - truth) / np.linalg.norm(truth)
        for f in solved_families
    )
    assert best <= 1e-6


def test_plant_sandwich_verify(tmp_path):
    eq_path = tmp_path / "eq.json"
    truth_path = tmp_path / "truth.json"
    rep_path = tmp_path / "rep.json"
    rc = main([
        "plant", "--dimension", "2", "--arity", "2", "--degree", "2",
        "--orientation", "sandwich", "--seed", "7",
        "--output", str(eq_path), "--truth", str(truth_path),
    ])
    assert rc == 0
    rc = main(["verify", str(eq_path), str(truth_path), "--output", str(rep_path)])
    assert rc == 0
    report = load(rep_path)
    probe = report["families"][0]["probe"]
    for row in probe:
        assert row["scalar_identity"] <= 1e-9 * row["identity_scale"]


def test_plant_invalid_flags():
    rc = main([
        "plant", "--dimension", "2", "--arity", "3", "--degree", "2",
        "--orientation", "sandwich", "--seed", "0",
        "--output", "/dev/null", "--truth", "/dev/null",
    ])
    assert rc == 1


def test_plant_beyond_the_separated_draws_exit_1(tmp_path, capsys):
    out, truth = tmp_path / "eq.json", tmp_path / "truth.json"
    argv = ["plant", "--dimension", "80", "--arity", "1", "--degree", "2", "--seed", "0"]
    assert main(argv + ["--output", str(out), "--truth", str(truth)]) == 1
    err = capsys.readouterr().err
    assert err == "plant: InvalidSetting: could not draw separated eigenvalues at n = 80\n"
    assert not out.exists() and not truth.exists()


def test_usage_error_exit_code():
    assert main(["solve"]) == 1  # missing input and --seed
    assert main(["no-such-command"]) == 1
    assert main(["solve", str(DATA / "scalar_quadratic.json"), "--seed", "0", "--threads", "0"]) == 1
    # the variety is sampled one way, at a fixed count
    assert main(["solve", str(DATA / "circle.json"), "--seed", "0", "--strategy", "grid"]) == 1
    assert main(["solve", str(DATA / "circle.json"), "--seed", "0", "--samples", "32"]) == 1
    # the transform rank gate is fixed at linalg.DEFAULT_TOL_RANK
    quadratic = str(DATA / "scalar_quadratic.json")
    assert main(["solve", quadratic, "--seed", "0", "--tol-rank", "1e-10"]) == 1
    assert main(
        ["sample-variety", str(DATA / "circle.json"), "--seed", "0", "--strategy", "grid"]
    ) == 1


@pytest.mark.parametrize("flag", ["--tol-residual"])
def test_solve_nan_tolerance_exit_1(tmp_path, capsys, flag):
    out = tmp_path / "sol.json"
    eq_path = str(DATA / "scalar_quadratic.json")
    rc = main(["solve", eq_path, "--seed", "0", flag, "nan", "--output", str(out)])
    assert rc == 1
    assert "must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_verify_nonpositive_tolerance_exit_1(tmp_path, capsys, tol):
    sol = tmp_path / "sol.json"
    eq_path = str(DATA / "scalar_quadratic.json")
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol)]) == 0
    out = tmp_path / "report.json"
    rc = main(["verify", eq_path, str(sol), "--tol", tol, "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "verify: InvalidSetting: tol must be positive\n"
    assert not out.exists()


def test_solve_huge_integer_coefficient_exit_1(tmp_path, capsys):
    doc = load(DATA / "square_root_identity.json")
    doc["terms"][0]["coefficient"][1][0] = [10**400, 0]
    eq_path = tmp_path / "eq.json"
    with open(eq_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["solve", str(eq_path), "--seed", "0"]) == 1
    assert "$.terms[0].coefficient[1][0]: number out of float range" in capsys.readouterr().err


def test_verify_huge_integer_in_solution_exit_1(tmp_path, capsys):
    eq_path = str(DATA / "square_root_identity.json")
    sol_path = tmp_path / "sol.json"
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol_path)]) == 0
    doc = load(sol_path)
    doc["families"][0]["unknowns"][0][1][1] = [1.0, -(10**400)]
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["verify", eq_path, str(sol_path)]) == 1
    assert (
        "$.families[0].unknowns[0][1][1]: number out of float range"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "content",
    [
        (DATA / "scalar_quadratic.json").read_bytes() + b"\xff",
        b'{"dimension": 1' + b"0" * 5000 + b"}",
    ],
    ids=["non-utf8", "overlong-integer"],
)
def test_solve_unreadable_document_exit_1(tmp_path, capsys, content):
    eq_path = tmp_path / "eq.json"
    eq_path.write_bytes(content)
    assert main(["solve", str(eq_path), "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"solve: DocumentError: {eq_path}: invalid JSON")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_solve_missing_document_exit_1(tmp_path, capsys):
    eq_path = tmp_path / "missing.json"
    assert main(["solve", str(eq_path), "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"solve: DocumentError: cannot read {eq_path}: "
        f"[Errno 2] No such file or directory: '{eq_path}'\n"
    )


def test_verify_non_utf8_solution_exit_1(tmp_path, capsys):
    eq_path = str(DATA / "scalar_quadratic.json")
    sol_path = tmp_path / "sol.json"
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol_path)]) == 0
    sol_path.write_bytes(b"\xff" + sol_path.read_bytes())
    assert main(["verify", eq_path, str(sol_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"verify: DocumentError: {sol_path}: invalid JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", [5, None, {}, "xy"], ids=["int", "null", "object", "string"])
def test_verify_non_list_diagnostics_exit_1(tmp_path, capsys, value):
    eq_path = str(DATA / "scalar_quadratic.json")
    sol_path = tmp_path / "sol.json"
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol_path)]) == 0
    doc = load(sol_path)
    doc["diagnostics"] = value
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["verify", eq_path, str(sol_path)]) == 1
    assert "$.diagnostics: expected list" in capsys.readouterr().err


def test_verify_missing_diagnostics_means_none(tmp_path):
    eq_path = str(DATA / "scalar_quadratic.json")
    sol_path = tmp_path / "sol.json"
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol_path)]) == 0
    doc = load(sol_path)
    del doc["diagnostics"]
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["verify", eq_path, str(sol_path), "--output", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("orientation", ["left", "right"])
def test_verify_residuals_match_verify_residual(tmp_path, orientation):
    eq_path = tmp_path / "eq.json"
    sol_path = tmp_path / "sol.json"
    report_path = tmp_path / "report.json"
    main([
        "plant", "--dimension", "4", "--arity", "1", "--degree", "2",
        "--orientation", orientation, "--seed", "3",
        "--output", str(eq_path), "--truth", str(tmp_path / "truth.json"),
    ])
    assert main(["solve", str(eq_path), "--seed", "0", "--output", str(sol_path)]) == 0
    assert main(["verify", str(eq_path), str(sol_path), "--output", str(report_path)]) == 0
    eq = io.equation_from_document(load(eq_path))
    families, _ = io.solution_from_document(load(sol_path), eq.dim, eq.arity)
    report = load(report_path)["families"]
    assert [entry["index"] for entry in report] == list(range(len(families)))
    for entry, family in zip(report, families):
        assert entry["residual"] == pytest.approx(verify_residual(eq, family.unknowns), rel=1e-12)


def test_solve_insufficient_roots_exit_2(tmp_path):
    doc = {
        "dimension": 2,
        "arity": 1,
        "orientation": "left",
        "terms": [
            {"exponents": [1], "coefficient": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"exponents": [0], "coefficient": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ],
    }
    eq_path = tmp_path / "thin.json"
    with open(eq_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out = tmp_path / "sol.json"
    rc = main(["solve", str(eq_path), "--seed", "0", "--output", str(out)])
    assert rc == 2
    written = load(out)
    assert written["families"] == []
    assert "InsufficientRoots" in written["diagnostics"][0]["failure"]


def write_equation(path, terms, dim, orientation):
    poly = MatrixPolynomial(arity=len(next(iter(terms))), dim=dim, terms=terms)
    io.dump_document(io.equation_to_document(StructuredEquation(poly, orientation)), str(path))


def test_solve_failure_document_names_exception_first(tmp_path):
    # zI - J for a Jordan block J: the double root 0 has one null vector, so
    # the capped pool is too small, and its root diagnostic follows the error
    eq_path, out = tmp_path / "jordan.json", tmp_path / "sol.json"
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    write_equation(eq_path, {(1,): np.eye(2), (0,): -jordan}, 2, Orientation.UNKNOWNS_LEFT)
    assert main(["solve", str(eq_path), "--seed", "0", "--output", str(out)]) == 2
    written = load(out)
    assert written["families"] == []
    first, root = written["diagnostics"]
    assert first["class_or_attempt"] == "solver"
    assert first["failure"].startswith("InsufficientRoots: ")
    assert "total multiplicity 1 < dimension 2" in first["failure"]
    assert root["class_or_attempt"].startswith("root ")


def test_solve_multivariate_failure_document_keeps_attempts(tmp_path):
    # the rank-deficient pool of the solver tests, solved through the CLI
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    diagonals = {(1, 0): [1, 0, 0, 0], (0, 1): [0, 1, 0, 0], (0, 0): [-0.5, -0.5, 1, 1]}
    terms = {e: u @ np.diag(d) @ u.T for e, d in diagonals.items()}
    eq_path, out = tmp_path / "pool.json", tmp_path / "sol.json"
    write_equation(eq_path, terms, 4, Orientation.UNKNOWNS_RIGHT)
    assert main(["solve", str(eq_path), "--seed", "0", "--output", str(out)]) == 2
    diagnostics = load(out)["diagnostics"]
    labels = [d["class_or_attempt"] for d in diagnostics]
    assert labels == ["solver"] + [f"attempt {a}" for a in range(8)]
    assert diagnostics[0]["failure"].startswith("TransformSingular: no well-conditioned")


@pytest.mark.parametrize("name", ["product", "diagonal"])
def test_one_singular_slice_solves_and_samples(tmp_path, capsys, name):
    # (z1 + 2)(z2 - 1) I, the document tests/data/slice_on_variety_arity2.json,
    # and diag(z2 - 1, z1 + 2): at seed 0 the walk starts on the line z2 = 1,
    # where P is singular for every z1, and still solves and samples
    eq_path = DATA / "slice_on_variety_arity2.json"
    if name == "diagonal":
        eq_path = tmp_path / "diagonal.json"
        terms = {
            (0, 1): np.diag([1.0, 0.0]),
            (1, 0): np.diag([0.0, 1.0]),
            (0, 0): np.diag([-1.0, 2.0]),
        }
        write_equation(eq_path, terms, 2, Orientation.UNKNOWNS_RIGHT)
    sol, points = tmp_path / "sol.json", tmp_path / "points.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", str(eq_path), "--seed", "0", "--output", str(sol)]) == 0
        argv = ["sample-variety", str(eq_path), "--seed", "0", "--output", str(points)]
        assert main(argv) == 0
        assert main(["verify", str(eq_path), str(sol)]) == 0
    assert capsys.readouterr().err == ""
    assert load(sol)["families"] and load(points)["points"]


def test_unimodular_equations_exit_2(tmp_path):
    # I + zN and I + (z1 + z2)N for nilpotent N have det P = 1 and no solution
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    uni, bi = tmp_path / "uni.json", tmp_path / "bi.json"
    write_equation(uni, {(0,): np.eye(2), (1,): nilpotent}, 2, Orientation.UNKNOWNS_LEFT)
    write_equation(
        bi, {(0, 0): np.eye(2), (1, 0): nilpotent, (0, 1): nilpotent}, 2, Orientation.UNKNOWNS_LEFT
    )
    out = tmp_path / "sol.json"
    assert main(["solve", str(uni), "--seed", "0", "--output", str(out)]) == 2
    (first,) = load(out)["diagnostics"]
    assert first["class_or_attempt"] == "solver"
    assert first["failure"] == "InsufficientRoots: nonzero constant polynomial has no roots"
    det = tmp_path / "det.json"
    assert main(["detpoly", str(uni), "--output", str(det)]) == 0
    assert load(det)["roots"] == []
    assert main(["solve", str(bi), "--seed", "0", "--output", str(out)]) == 2
    diagnostics = load(out)["diagnostics"]
    assert [d["class_or_attempt"] for d in diagnostics] == ["solver"] + [
        f"attempt {a}" for a in range(8)
    ]
    assert diagnostics[0]["failure"] == "NoPointsFound: every sampling attempt came back empty"


def test_solve_eigensolver_failure_exit_1(tmp_path, capsys, monkeypatch):
    # a companion eigensolve that does not converge is a package error: one
    # line naming it on stderr, exit 1, no traceback and no document
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", no_convergence)
    out = tmp_path / "sol.json"
    assert main(["solve", str(DATA / "circle.json"), "--seed", "0", "--output", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("solve: ConvergenceFailure: ")
    assert not out.exists()


def test_document_error_names_nested_path(tmp_path, capsys):
    doc = {
        "dimension": 1,
        "arity": 1,
        "orientation": "left",
        "terms": [{"exponents": [0], "coefficient": [[[1]]]}],
    }
    eq_path = tmp_path / "bad.json"
    with open(eq_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["solve", str(eq_path), "--seed", "0"]) == 1
    assert "$.terms[0].coefficient[0][0]" in capsys.readouterr().err


def test_round_trip_stability():
    for name in ("scalar_quadratic.json", "circle.json", "square_root_identity.json"):
        doc = load(DATA / name)
        once = io.equation_to_document(io.equation_from_document(doc))
        twice = io.equation_to_document(io.equation_from_document(once))
        assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)


def test_sandwich_document_round_trip(tmp_path):
    eq_path = tmp_path / "eq.json"
    main([
        "plant", "--dimension", "2", "--arity", "2", "--degree", "2",
        "--orientation", "sandwich", "--seed", "3",
        "--output", str(eq_path), "--truth", str(tmp_path / "t.json"),
    ])
    doc = load(eq_path)
    assert set(doc["sandwich_slots"]) == {"A", "B", "C", "D", "E", "F"}
    once = io.equation_to_document(io.equation_from_document(doc))
    assert json.dumps(once, sort_keys=True) == json.dumps(
        io.equation_to_document(io.equation_from_document(once)), sort_keys=True
    )


def test_solve_sandwich_document(tmp_path, capsys):
    eq_path = tmp_path / "eq.json"
    main([
        "plant", "--dimension", "2", "--arity", "2", "--degree", "2",
        "--orientation", "sandwich", "--seed", "3",
        "--output", str(eq_path), "--truth", str(tmp_path / "t.json"),
    ])
    assert main(["solve", str(eq_path), "--seed", "0"]) == 1
    assert "sandwich" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "matpolyeq", "detpoly", str(DATA / "scalar_quadratic.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert "coefficients" in doc


def test_solve_without_output_writes_stdout(capsys):
    rc = main(["solve", str(DATA / "scalar_quadratic.json"), "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("{\n") and out.endswith("\n}\n")
    assert len(json.loads(out)["families"]) == 2


def test_verify_sandwich_jordan_block_reports_probe_error(tmp_path):
    eq_path, sol_path, rep_path = tmp_path / "eq.json", tmp_path / "sol.json", tmp_path / "rep.json"
    main([
        "plant", "--dimension", "2", "--arity", "2", "--degree", "2",
        "--orientation", "sandwich", "--seed", "7",
        "--output", str(eq_path), "--truth", str(tmp_path / "truth.json"),
    ])
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    family = SolutionFamily(
        transform=np.eye(2, dtype=np.complex128),
        eigenvalues=[np.ones(2, dtype=np.complex128)] * 2,
        unknowns=[jordan, np.eye(2, dtype=np.complex128)],
        residual=0.0,
        transform_condition=1.0,
    )
    io.dump_document(io.solution_to_document([family], []), str(sol_path))
    main(["verify", str(eq_path), str(sol_path), "--output", str(rep_path)])
    (entry,) = load(rep_path)["families"]
    assert "probe" not in entry
    assert entry["probe_error"]


def test_detpoly_fix_skips_empty_parts(tmp_path):
    out, ref = tmp_path / "det.json", tmp_path / "ref.json"
    circle = str(DATA / "circle.json")
    assert main(["detpoly", circle, "--pivot", "1", "--fix", "1,", "--output", str(out)]) == 0
    assert main(["detpoly", circle, "--pivot", "1", "--fix", "1", "--output", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_detpoly_unparsable_fix_exit_1(capsys):
    rc = main(["detpoly", str(DATA / "circle.json"), "--pivot", "1", "--fix", "abc"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "detpoly: InvalidSetting: --fix: cannot parse 'abc' as a complex number\n"


def plant_argv(tmp_path, arity, output="eq.json", truth="truth.json", seed=11):
    return [
        "plant", "--dimension", "2", "--arity", str(arity), "--degree", "2", "--seed", str(seed),
        "--output", str(tmp_path / output), "--truth", str(tmp_path / truth),
    ]


@pytest.mark.parametrize(
    "command",
    ["solve", "verify", "plant-output", "plant-truth", "plant-output-fresh", "plant-truth-fresh"],
)
def test_unwritable_output_exit_1(tmp_path, capsys, command):
    missing = "missing/out.json"
    assert main(plant_argv(tmp_path, 1)) == 0
    eq_path, truth_path = str(tmp_path / "eq.json"), str(tmp_path / "truth.json")
    # a plant that cannot open one path leaves the other as it was: another
    # seed would rewrite an existing document, and a fresh path stays absent
    argv = {
        "solve": ["solve", eq_path, "--seed", "0", "--output", str(tmp_path / missing)],
        "verify": ["verify", eq_path, truth_path, "--output", str(tmp_path / missing)],
        "plant-output": plant_argv(tmp_path, 1, output=missing, seed=12),
        "plant-truth": plant_argv(tmp_path, 1, truth=missing, seed=12),
        "plant-output-fresh": plant_argv(tmp_path, 1, output=missing, truth="fresh.json"),
        "plant-truth-fresh": plant_argv(tmp_path, 1, output="fresh.json", truth=missing),
    }[command]
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: DocumentError: cannot write {tmp_path / missing}: ")
    assert err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("alias", ["same", "fresh", "dotted", "symlink", "hardlink"])
def test_plant_output_and_truth_one_file_exit_1(tmp_path, capsys, alias):
    # one file for both would be left holding the truth alone
    assert main(plant_argv(tmp_path, 1)) == 0
    output, truth = {
        "same": ("eq.json", "eq.json"),
        "fresh": ("fresh.json", "fresh.json"),
        "dotted": ("eq.json", "./eq.json"),
        "symlink": ("eq.json", "link.json"),
        "hardlink": ("eq.json", "hard.json"),
    }[alias]
    if alias == "symlink":
        os.symlink(tmp_path / "eq.json", tmp_path / "link.json")
    elif alias == "hardlink":
        os.link(tmp_path / "eq.json", tmp_path / "hard.json")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(plant_argv(tmp_path, 1, output=output, truth=truth, seed=12)) == 1
    err = capsys.readouterr().err
    assert err.startswith("plant: DocumentError: ")
    assert err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_verify_non_finite_unknown_exit_1(tmp_path, capsys, arity, value):
    assert main(plant_argv(tmp_path, arity)) == 0
    truth_path = tmp_path / "truth.json"
    doc = load(truth_path)
    # the second of two families holds the non-finite entry
    doc["families"].append(json.loads(json.dumps(doc["families"][0])))
    doc["families"][1]["unknowns"][arity - 1][0][1] = [1.0, value]
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["verify", str(tmp_path / "eq.json"), str(truth_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verify: NonFiniteInput: matrix entries must be finite\n"
    assert captured.out == ""


def test_solve_deeply_nested_document_exit_1(tmp_path, capsys):
    eq_path = tmp_path / "deep.json"
    eq_path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    assert main(["solve", str(eq_path), "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err == f"solve: DocumentError: {eq_path}: invalid JSON (nested too deeply)\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_solve_output_to_full_device_exit_1(capsys):
    argv = ["solve", str(DATA / "scalar_quadratic.json"), "--seed", "0", "--output", "/dev/full"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve: DocumentError: cannot write /dev/full: ")
    assert err.count("\n") == 1


def closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def full_device():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    return os.open("/dev/full", os.O_WRONLY)


@pytest.mark.parametrize("open_stdout", [closed_pipe, full_device], ids=["closed-pipe", "full-device"])
def test_solve_unwritable_stdout_exit_1(open_stdout):
    # stdout stays buffered, as by default, so the interpreter flushes it
    # once more at exit; that flush must not fail again
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    stdout = open_stdout()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "matpolyeq", "solve", str(DATA / "scalar_quadratic.json"),
             "--seed", "0"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(stdout)
    assert result.returncode == 1
    assert result.stderr.startswith("solve: DocumentError: cannot write <stdout>: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("max_classes", [str(sys.maxsize + 1), "100000000000000000000"])
def test_solve_max_classes_beyond_sys_maxsize_solves_every_class(capsys, max_classes):
    # a cap past what islice can count enumerates every class, as the default does
    argv = ["solve", str(DATA / "scalar_quadratic.json"), "--seed", "0"]
    assert main(argv + ["--max-classes", max_classes]) == 0
    capped = capsys.readouterr()
    assert main(argv) == 0
    assert capped == capsys.readouterr()
    assert capped.err == "" and len(json.loads(capped.out)["families"]) == 2


def test_repeated_main_calls_do_not_leak_state(tmp_path):
    # one process parses every argv with one parser: no call sees another's flags
    eq_path, sol_path, report_path = (str(tmp_path / name) for name in ("eq.json", "sol.json", "r.json"))
    plant = ["plant", "--dimension", "4", "--arity", "1", "--degree", "2", "--seed", "1"]
    assert main([*plant, "--output", eq_path, "--truth", str(tmp_path / "truth.json")]) == 0
    assert main(["solve", eq_path, "--bogus"]) == 1
    assert main(["solve", eq_path, "--seed", "0", "--max-classes", "1", "--output", sol_path]) == 0
    assert len(load(sol_path)["families"]) == 1
    assert main(["solve", eq_path, "--seed", "0", "--output", sol_path]) == 0
    assert len(load(sol_path)["families"]) == 70
    fresh = subprocess.run(
        [sys.executable, "-m", "matpolyeq", "solve", eq_path, "--seed", "0"],
        capture_output=True,
        check=True,
    )
    assert Path(sol_path).read_bytes() == fresh.stdout
    assert main(["verify", eq_path, sol_path, "--tol", "1e-300", "--output", report_path]) == 3
    assert main(["verify", eq_path, sol_path, "--output", report_path]) == 0
    assert load(report_path)["all_ok"] is True


def per_family_report(eq, doc, tol):
    """The verify report computed from per-family objects, each unknown stacked again."""
    families, _ = io.solution_from_document(doc, eq.dim, eq.arity)
    stacks = [np.stack([f.unknowns[s] for f in families]) for s in range(eq.arity)]
    residuals = _relative_residuals(eq, stacks).tolist()
    commutations = _commutations(stacks).tolist()
    report = []
    for k, (family, residual, commutation) in enumerate(zip(families, residuals, commutations)):
        entry = {"index": k, "residual": residual, "commutation": commutation, "ok": residual <= tol}
        if eq.orientation is Orientation.SANDWICH_BIVARIATE:
            try:
                rows = sandwich_probe(eq, family.unknowns[0], family.unknowns[1])
                entry["probe"] = [
                    {**dataclasses.asdict(row), "alpha": io.to_pairs(row.alpha), "mu": io.to_pairs(row.mu)}
                    for row in rows
                ]
            except NotSimultaneouslyDiagonalizable as exc:
                entry["probe_error"] = str(exc)
        report.append(entry)
    return {"families": report, "all_ok": all(entry["ok"] for entry in report)}


@pytest.mark.parametrize(
    "flags",
    [
        ["--arity", "1", "--orientation", "right"],
        ["--arity", "1", "--orientation", "left"],
        ["--arity", "2", "--orientation", "right"],
        ["--arity", "3", "--orientation", "left"],
        ["--arity", "2", "--orientation", "sandwich"],
    ],
    ids=["arity1-right", "arity1-left", "arity2", "arity3", "sandwich"],
)
def test_verify_report_matches_per_family_stacks(tmp_path, flags):
    eq_path, truth_path = tmp_path / "eq.json", tmp_path / "truth.json"
    sol_path, report_path, reference_path = (tmp_path / n for n in ("sol.json", "r.json", "ref.json"))
    plant = ["plant", "--dimension", "3", "--degree", "2", *flags, "--seed", "7"]
    assert main([*plant, "--output", str(eq_path), "--truth", str(truth_path)]) == 0
    eq = io.equation_from_document(load(eq_path))
    (truth,), _ = io.solution_from_document(load(truth_path), eq.dim, eq.arity)
    # the planted family, then perturbed copies: residuals, commutators and
    # (for sandwich) probe errors differ from family to family
    rng = np.random.default_rng(0)
    families = [
        dataclasses.replace(
            truth,
            unknowns=[x + 1e-3 * k * rng.standard_normal(x.shape) for x in truth.unknowns],
        )
        for k in range(5)
    ]
    io.dump_solution(families, [], str(sol_path))
    rc = main(["verify", str(eq_path), str(sol_path), "--output", str(report_path)])
    assert rc == 3
    io.dump_document(per_family_report(eq, load(sol_path), 1e-8), str(reference_path))
    assert report_path.read_bytes() == reference_path.read_bytes()


@pytest.mark.parametrize("broken", ["family", "diagnostics", "both"])
def test_verify_checks_families_before_diagnostics(tmp_path, capsys, broken):
    eq_path, sol_path = str(DATA / "scalar_quadratic.json"), tmp_path / "sol.json"
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol_path)]) == 0
    doc = load(sol_path)
    if broken != "diagnostics":
        doc["families"][1]["residual"] = "small"
    if broken != "family":
        doc["diagnostics"] = [{"class_or_attempt": 1, "failure": "x"}]
    sol_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", eq_path, str(sol_path)]) == 1
    expected = {
        "family": "$.families[1].residual: expected a number",
        "diagnostics": "$.diagnostics[0]: expected class_or_attempt and failure strings",
    }["diagnostics" if broken == "diagnostics" else "family"]
    assert capsys.readouterr().err == "verify: DocumentError: " + expected + "\n"
