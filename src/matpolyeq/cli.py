"""Command-line front end: solve, verify, detpoly, sample-variety, plant.

Exit codes: 0 success, 1 input/usage error, 2 no result, 3 verification
failure.  Data goes to stdout (or --output); errors go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import io
from .errors import (
    DegreeZero,
    DocumentError,
    InsufficientRoots,
    MatPolyEqError,
    NoPointsFound,
    NotSimultaneouslyDiagonalizable,
    TransformSingular,
)
from .instances import plant_instance
from .polymatrix import det_poly_univariate, fix_all_but, poly_roots, sample_variety
from .solver import (
    Diagnostic,
    Orientation,
    SolutionFamily,
    SolverConfig,
    _commutations,
    _relative_residuals,
    sandwich_probe,
    solve_multivariate,
    solve_univariate,
    verify_residual,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_RESULT = 2
EXIT_VERIFY_FAILED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _parse_fix(text: str) -> list[complex]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(complex(part))
        except ValueError:
            raise DocumentError(f"--fix: cannot parse {part!r} as a complex number")
    return values


def _config_from(args) -> SolverConfig:
    return SolverConfig(
        tol_residual=args.tol_residual,
        max_classes=args.max_classes,
        seed=args.seed,
    )


def cmd_solve(args) -> int:
    try:
        eq = io.equation_from_document(io.load_document(args.input))
    except DocumentError as exc:
        return _fail(str(exc))
    try:
        cfg = _config_from(args)
    except ValueError as exc:
        return _fail(f"solve: {exc}")
    try:
        if eq.arity == 1:
            result = solve_univariate(eq, cfg)
        else:
            result = solve_multivariate(eq, cfg)
        families, diagnostics = result.families, result.diagnostics
    except (NoPointsFound, TransformSingular, InsufficientRoots) as exc:
        diagnostics = [Diagnostic("solver", f"{type(exc).__name__}: {exc}"), *exc.diagnostics]
        io.dump_solution([], diagnostics, args.output)
        return EXIT_NO_RESULT
    io.dump_solution(families, diagnostics, args.output)
    return EXIT_OK if families else EXIT_NO_RESULT


def cmd_verify(args) -> int:
    if not args.tol > 0:
        return _fail("verify: tol must be positive")
    try:
        eq = io.equation_from_document(io.load_document(args.equation))
        families, _ = io.solution_from_document(
            io.load_document(args.solutions), eq.dim, eq.arity
        )
    except DocumentError as exc:
        return _fail(str(exc))
    if families:
        stacks = [np.stack([f.unknowns[s] for f in families]) for s in range(eq.arity)]
        residuals = _relative_residuals(eq, stacks).tolist()
        commutations = _commutations(stacks).tolist()
    else:
        residuals = commutations = []
    report = []
    for k, (family, residual, commutation) in enumerate(zip(families, residuals, commutations)):
        entry = {
            "index": k,
            "residual": residual,
            "commutation": commutation,
            "ok": residual <= args.tol,
        }
        if eq.orientation is Orientation.SANDWICH_BIVARIATE:
            try:
                probe = sandwich_probe(eq, family.unknowns[0], family.unknowns[1])
                entry["probe"] = [
                    {
                        **dataclasses.asdict(row),
                        "alpha": io.to_pairs(row.alpha),
                        "mu": io.to_pairs(row.mu),
                    }
                    for row in probe.rows
                ]
            except NotSimultaneouslyDiagonalizable as exc:
                entry["probe_error"] = str(exc)
        report.append(entry)
    all_ok = all(entry["ok"] for entry in report)
    io.dump_document({"families": report, "all_ok": all_ok}, args.output)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_detpoly(args) -> int:
    try:
        eq = io.equation_from_document(io.load_document(args.input))
        fixed = _parse_fix(args.fix) if args.fix else []
    except DocumentError as exc:
        return _fail(str(exc))
    if eq.arity == 1:
        if fixed or args.pivot != 0:
            return _fail("detpoly: a univariate equation takes no --fix values and only pivot 0")
        slice_poly = eq.poly
    else:
        slice_poly = fix_all_but(eq.poly, args.pivot, np.array(fixed))
    det = det_poly_univariate(slice_poly)
    try:
        roots = poly_roots(det)
    except DegreeZero:
        roots = []
    io.dump_document(
        {
            "coefficients": io.to_pairs(det.coefficients),
            "roots": [
                {"value": io.to_pairs(root), "multiplicity": mult}
                for root, mult in roots
            ],
        },
        args.output,
    )
    return EXIT_OK


def cmd_sample_variety(args) -> int:
    try:
        eq = io.equation_from_document(io.load_document(args.input))
    except DocumentError as exc:
        return _fail(str(exc))
    try:
        sample = sample_variety(eq.poly, args.side, args.count, args.seed)
    except NoPointsFound as exc:
        print(f"sample-variety: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT
    except ValueError as exc:
        return _fail(f"sample-variety: {exc}")
    rows = zip(
        io.to_pairs(sample.values), io.to_pairs(sample.null_vectors), sample.det_residuals.tolist()
    )
    points = [
        {"values": values, "null_vector": vector, "side": sample.side, "det_residual": dres}
        for values, vector, dres in rows
    ]
    io.dump_document({"points": points}, args.output)
    return EXIT_OK


def cmd_plant(args) -> int:
    orientation = Orientation(args.orientation)
    try:
        planted = plant_instance(args.dimension, args.arity, args.degree, orientation, args.seed)
    except ValueError as exc:
        return _fail(f"plant: {exc}")
    eq = planted.equation
    # the truth family mirrors solver output: W = T^-1 for left, T otherwise
    if orientation is Orientation.UNKNOWNS_LEFT:
        stored = np.linalg.inv(planted.truth_transform)
    else:
        stored = planted.truth_transform
    family = SolutionFamily(
        transform=stored,
        eigenvalues=[np.asarray(v) for v in planted.truth_eigenvalues],
        unknowns=planted.truth_unknowns,
        residual=verify_residual(eq, planted.truth_unknowns),
        transform_condition=float(np.linalg.cond(planted.truth_transform)),
    )
    # one file for both would end up holding the truth alone
    if os.path.realpath(args.output) == os.path.realpath(args.truth) or (
        os.path.exists(args.output)
        and os.path.exists(args.truth)
        and os.path.samefile(args.output, args.truth)
    ):
        raise DocumentError(f"--output and --truth name one file: {args.truth}")
    # --truth is opened before --output is written, so that either path
    # failing to open leaves the other as it was
    io.check_writable(args.truth)
    io.dump_document(io.equation_to_document(eq), args.output)
    io.dump_solution([family], [], args.truth)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matpolyeq",
        description="Solve and probe structured matrix polynomial equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="solve an equation document and write a solution document"
    )
    solve.add_argument("input", help="equation document (JSON)")
    solve.add_argument("--output", default=None, help="solution document path (default: stdout)")
    solve.add_argument(
        "--tol-residual", type=float, default=SolverConfig.tol_residual, dest="tol_residual"
    )
    solve.add_argument(
        "--max-classes", type=int, default=SolverConfig.max_classes, dest="max_classes"
    )
    solve.add_argument("--seed", type=int, required=True)
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser(
        "verify", help="recompute residuals for a solution document against an equation"
    )
    verify.add_argument("equation", help="equation document (JSON)")
    verify.add_argument("solutions", help="solution document (JSON)")
    verify.add_argument("--tol", type=float, default=SolverConfig.tol_residual)
    verify.add_argument("--output", default=None)
    verify.set_defaults(func=cmd_verify)

    detpoly = sub.add_parser(
        "detpoly", help="determinant polynomial of a (sliced) equation, with roots"
    )
    detpoly.add_argument("input", help="equation document (JSON)")
    detpoly.add_argument("--pivot", type=int, default=0, help="free variable index")
    detpoly.add_argument(
        "--fix",
        default="",
        help="comma-separated complex values for the other variables, e.g. '1,0.5-2j'",
    )
    detpoly.add_argument("--output", default=None)
    detpoly.set_defaults(func=cmd_detpoly)

    sample = sub.add_parser(
        "sample-variety", help="sample zeros of the determinant polynomial"
    )
    sample.add_argument("input", help="equation document (JSON)")
    sample.add_argument("--count", type=int, default=8)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--side", choices=("left", "right"), default="right")
    sample.add_argument("--output", default=None)
    sample.set_defaults(func=cmd_sample_variety)

    plant = sub.add_parser(
        "plant", help="generate a planted equation plus its ground-truth solution"
    )
    plant.add_argument("--dimension", type=int, required=True)
    plant.add_argument("--arity", type=int, required=True)
    plant.add_argument("--degree", type=int, required=True)
    plant.add_argument(
        "--orientation", choices=("left", "right", "sandwich"), default="right"
    )
    plant.add_argument("--seed", type=int, required=True)
    plant.add_argument("--output", required=True, help="equation document path")
    plant.add_argument("--truth", required=True, help="truth solution document path")
    plant.set_defaults(func=cmd_plant)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except MatPolyEqError as exc:
        return _fail(f"{args.command}: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
