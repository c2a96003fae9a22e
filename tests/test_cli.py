import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matpolyeq import io
from matpolyeq.cli import main
from matpolyeq.polymatrix import MatrixPolynomial
from matpolyeq.solver import Orientation, SolutionFamily, StructuredEquation, verify_residual

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
    assert "only pivot 0" in capsys.readouterr().err


def test_detpoly_matches_symbolic_oracle(tmp_path):
    from matpolyeq.instances import symbolic_det_oracle
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


def test_sample_variety_empty_variety():
    rc = main(["sample-variety", str(DATA / "constant_arity2.json"), "--count", "2", "--seed", "0"])
    assert rc == 2


def test_sample_variety_rejects_univariate():
    rc = main(["sample-variety", str(DATA / "scalar_quadratic.json"), "--count", "2", "--seed", "0"])
    assert rc == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "circle.json", "--seed", "-1"], "solve: seed must be >= 0"),
        (["sample-variety", "circle.json", "--seed", "-1"], "sample-variety: seed must be >= 0"),
        (
            ["sample-variety", "circle.json", "--seed", "0", "--count", "0"],
            "sample-variety: count must be >= 1",
        ),
        (
            ["plant", "--dimension", "2", "--arity", "2", "--degree", "2", "--seed", "-1"],
            "plant: seed must be >= 0",
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
    assert "verify: tol must be positive" in capsys.readouterr().err
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
    assert err.startswith(f"{eq_path}: invalid JSON") and "Traceback" not in err


def test_verify_non_utf8_solution_exit_1(tmp_path, capsys):
    eq_path = str(DATA / "scalar_quadratic.json")
    sol_path = tmp_path / "sol.json"
    assert main(["solve", eq_path, "--seed", "0", "--output", str(sol_path)]) == 0
    sol_path.write_bytes(b"\xff" + sol_path.read_bytes())
    assert main(["verify", eq_path, str(sol_path)]) == 1
    assert capsys.readouterr().err.startswith(f"{sol_path}: invalid JSON")


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
    assert "--fix: cannot parse 'abc' as a complex number" in capsys.readouterr().err


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
    assert capsys.readouterr().err == f"{eq_path}: invalid JSON (nested too deeply)\n"


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
