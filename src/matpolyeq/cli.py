"""Command-line front end: solve, verify, detpoly, sample-variety, plant.

Exit codes: 0 success, 1 input/usage error, 2 no result, 3 verification
failure.  Data goes to stdout (or --output); errors go to stderr.  The
commands let every library error propagate, and ``main`` alone reports it,
as one stderr line ``<command>: <Class>: <message>``: exit 2 for
``NoPointsFound``, exit 1 for any other.  A command catches only the
errors that belong in its output: ``solve``'s no-result document,
``verify``'s probe error and ``detpoly``'s empty root list.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import io, linalg
from .errors import (
    DegreeZero,
    DocumentError,
    InsufficientRoots,
    InvalidSetting,
    MatPolyEqError,
    NoPointsFound,
    NotSimultaneouslyDiagonalizable,
    TransformSingular,
)
from .instances import plant_instance
from .polymatrix import _SIDES, det_poly_univariate, fix_all_but, poly_roots, sample_variety
from .solver import (
    Diagnostic,
    Orientation,
    SolutionFamily,
    SolverConfig,
    _check_positive,
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


def _parse_fix(text: str) -> list[complex]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(complex(part))
        except ValueError:
            raise InvalidSetting(f"--fix: cannot parse {part!r} as a complex number")
    return values


def cmd_solve(args) -> int:
    eq = io.equation_from_document(io.load_document(args.input))
    cfg = SolverConfig(args.tol_residual, args.max_classes, args.seed)
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
    _check_positive(args.tol, "tol")
    eq = io.equation_from_document(io.load_document(args.equation))
    (_, _, unknowns, _), _ = io.solution_arrays(io.load_document(args.solutions), eq.dim, eq.arity)
    # contiguous copies, as np.stack made: a strided view may change the products' last bits
    stacks = [np.ascontiguousarray(unknowns[:, s]) for s in range(eq.arity)]
    residuals = _relative_residuals(eq, stacks).tolist()
    commutations = _commutations(stacks).tolist()
    report = []
    for k, (residual, commutation) in enumerate(zip(residuals, commutations)):
        entry = {
            "index": k,
            "residual": residual,
            "commutation": commutation,
            "ok": residual <= args.tol,
        }
        if eq.orientation is Orientation.SANDWICH_BIVARIATE:
            try:
                entry["probe"] = [
                    {
                        **dataclasses.asdict(row),
                        "alpha": io.to_pairs(row.alpha),
                        "mu": io.to_pairs(row.mu),
                    }
                    for row in sandwich_probe(eq, unknowns[k, 0], unknowns[k, 1])
                ]
            except NotSimultaneouslyDiagonalizable as exc:
                entry["probe_error"] = str(exc)
        report.append(entry)
    all_ok = all(entry["ok"] for entry in report)
    io.dump_document({"families": report, "all_ok": all_ok}, args.output)
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_detpoly(args) -> int:
    eq = io.equation_from_document(io.load_document(args.input))
    fixed = _parse_fix(args.fix) if args.fix else []
    if eq.arity == 1:
        if fixed or args.pivot != 0:
            raise InvalidSetting("a univariate equation takes no --fix values and only pivot 0")
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
    eq = io.equation_from_document(io.load_document(args.input))
    sample = sample_variety(eq.poly, args.side, args.count, args.seed)
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
    planted = plant_instance(args.dimension, args.arity, args.degree, orientation, args.seed)
    eq = planted.equation
    # the truth family mirrors solver output: W = T^-1 for left, T otherwise,
    # with T^-1 and cond(T) from the rule of every solver family
    inverse, condition = linalg.inverse(planted.truth_transform)
    family = SolutionFamily(
        transform=inverse if orientation is Orientation.UNKNOWNS_LEFT else planted.truth_transform,
        eigenvalues=[np.asarray(v) for v in planted.truth_eigenvalues],
        unknowns=planted.truth_unknowns,
        residual=verify_residual(eq, planted.truth_unknowns),
        transform_condition=condition,
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

    verify = sub.add_parser(
        "verify", help="recompute residuals for a solution document against an equation"
    )
    verify.add_argument("equation", help="equation document (JSON)")
    verify.add_argument("solutions", help="solution document (JSON)")
    verify.add_argument("--tol", type=float, default=SolverConfig.tol_residual)
    verify.add_argument("--output", default=None)

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

    sample = sub.add_parser(
        "sample-variety", help="sample zeros of the determinant polynomial"
    )
    sample.add_argument("input", help="equation document (JSON)")
    sample.add_argument("--count", type=int, default=8)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--side", choices=_SIDES, default="right")
    sample.add_argument("--output", default=None)

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

    return parser


# one parser per process; parse_args gives each argv a fresh namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; may be called many times in one process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up at each call, so a cmd_* rebound on the module (a tracer, a test) is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except MatPolyEqError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NO_RESULT if isinstance(exc, NoPointsFound) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
