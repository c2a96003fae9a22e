"""JSON interchange for equations and solution families.

Complex numbers serialize as two-element [re, im] arrays and matrices as
row-major nested arrays.  Parsing errors name the offending field path.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Any

import numpy as np

from .errors import DocumentError
from .polymatrix import MatrixPolynomial
from .solver import Diagnostic, Orientation, SANDWICH_SLOTS, SolutionFamily, StructuredEquation


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_rows(m: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_pair(z) for z in row] for row in np.asarray(m)]


def vector_to_pairs(v: np.ndarray) -> list[list[float]]:
    return [complex_to_pair(z) for z in np.asarray(v)]


def _pair_to_complex(value: Any, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise DocumentError(f"{path}: expected a [re, im] number pair")
    return complex(float(value[0]), float(value[1]))


def _rows_to_matrix(value: Any, dim: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise DocumentError(f"{path}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{path}[{i}]: expected {dim} entries")
        for j, cell in enumerate(row):
            out[i, j] = _pair_to_complex(cell, f"{path}[{i}][{j}]")
    return out


def _require(doc: dict, key: str, kind, path: str):
    if key not in doc:
        raise DocumentError(f"{path}.{key}: missing")
    value = doc[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise DocumentError(f"{path}.{key}: expected an integer")
    elif not isinstance(value, kind):
        raise DocumentError(f"{path}.{key}: expected {kind.__name__}")
    return value


def equation_to_document(eq: StructuredEquation) -> dict:
    doc: dict[str, Any] = {
        "dimension": eq.dim,
        "arity": eq.arity,
        "orientation": eq.orientation.value,
    }
    if eq.orientation is Orientation.SANDWICH_BIVARIATE:
        zero = np.zeros((eq.dim, eq.dim), dtype=np.complex128)
        doc["sandwich_slots"] = {
            name: matrix_to_rows(eq.poly.terms.get(key, zero))
            for name, key in SANDWICH_SLOTS.items()
        }
    else:
        doc["terms"] = [
            {"exponents": list(exps), "coefficient": matrix_to_rows(eq.poly.terms[exps])}
            for exps in sorted(eq.poly.terms)
        ]
    return doc


def equation_from_document(doc: Any) -> StructuredEquation:
    if not isinstance(doc, dict):
        raise DocumentError("$: expected a JSON object")
    dim = _require(doc, "dimension", int, "$")
    arity = _require(doc, "arity", int, "$")
    if dim < 1:
        raise DocumentError("$.dimension: must be >= 1")
    if arity < 1:
        raise DocumentError("$.arity: must be >= 1")
    orientation_tag = _require(doc, "orientation", str, "$")
    try:
        orientation = Orientation(orientation_tag)
    except ValueError:
        raise DocumentError(
            "$.orientation: expected 'left', 'right', or 'sandwich'"
        ) from None
    terms: dict[tuple[int, ...], np.ndarray] = {}
    if orientation is Orientation.SANDWICH_BIVARIATE:
        if arity != 2:
            raise DocumentError("$.arity: sandwich orientation requires arity 2")
        if "terms" in doc:
            raise DocumentError("$.terms: sandwich documents carry sandwich_slots instead")
        slots = _require(doc, "sandwich_slots", dict, "$")
        for name, key in SANDWICH_SLOTS.items():
            if name not in slots:
                raise DocumentError(f"$.sandwich_slots.{name}: missing")
            terms[key] = _rows_to_matrix(
                slots[name], dim, f"$.sandwich_slots.{name}"
            )
    else:
        raw_terms = _require(doc, "terms", list, "$")
        seen: set[tuple[int, ...]] = set()
        for t, entry in enumerate(raw_terms):
            path = f"$.terms[{t}]"
            if not isinstance(entry, dict):
                raise DocumentError(f"{path}: expected an object")
            exps_raw = _require(entry, "exponents", list, path)
            if len(exps_raw) != arity or not all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0
                for e in exps_raw
            ):
                raise DocumentError(
                    f"{path}.exponents: expected {arity} non-negative integers"
                )
            exps = tuple(exps_raw)
            if exps in seen:
                raise DocumentError(f"{path}.exponents: duplicate tuple {list(exps)}")
            seen.add(exps)
            coeff = _require(entry, "coefficient", list, path)
            terms[exps] = _rows_to_matrix(coeff, dim, f"{path}.coefficient")
    try:
        poly = MatrixPolynomial(arity=arity, dim=dim, terms=terms)
        return StructuredEquation(poly=poly, orientation=orientation)
    except Exception as exc:
        raise DocumentError(f"$: {exc}") from exc


def family_to_document(family: SolutionFamily) -> dict:
    return {
        "eigenvalues": [vector_to_pairs(vals) for vals in family.eigenvalues],
        "transform": matrix_to_rows(family.transform),
        "unknowns": [matrix_to_rows(x) for x in family.unknowns],
        "residual": float(family.residual),
        "transform_condition": float(family.transform_condition),
    }


def solution_to_document(
    families: list[SolutionFamily], diagnostics: list[Diagnostic]
) -> dict:
    return {
        "families": [family_to_document(f) for f in families],
        "diagnostics": [
            {"class_or_attempt": d.label, "failure": d.failure} for d in diagnostics
        ],
    }


def family_from_document(doc: Any, dim: int, arity: int, path: str) -> SolutionFamily:
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: expected an object")
    eigen_raw = _require(doc, "eigenvalues", list, path)
    if len(eigen_raw) != arity:
        raise DocumentError(f"{path}.eigenvalues: expected {arity} lists")
    eigenvalues = []
    for s, vals in enumerate(eigen_raw):
        if not isinstance(vals, list) or len(vals) != dim:
            raise DocumentError(f"{path}.eigenvalues[{s}]: expected {dim} pairs")
        eigenvalues.append(
            np.array(
                [
                    _pair_to_complex(v, f"{path}.eigenvalues[{s}][{k}]")
                    for k, v in enumerate(vals)
                ],
                dtype=np.complex128,
            )
        )
    transform = _rows_to_matrix(
        _require(doc, "transform", list, path), dim, f"{path}.transform"
    )
    unknowns_raw = _require(doc, "unknowns", list, path)
    if len(unknowns_raw) != arity:
        raise DocumentError(f"{path}.unknowns: expected {arity} matrices")
    unknowns = [
        _rows_to_matrix(x, dim, f"{path}.unknowns[{s}]")
        for s, x in enumerate(unknowns_raw)
    ]
    residual = doc.get("residual")
    condition = doc.get("transform_condition")
    if not isinstance(residual, (int, float)) or isinstance(residual, bool):
        raise DocumentError(f"{path}.residual: expected a number")
    if not isinstance(condition, (int, float)) or isinstance(condition, bool):
        raise DocumentError(f"{path}.transform_condition: expected a number")
    return SolutionFamily(
        transform=transform,
        eigenvalues=eigenvalues,
        unknowns=unknowns,
        residual=float(residual),
        transform_condition=float(condition),
    )


def solution_from_document(
    doc: Any, dim: int, arity: int
) -> tuple[list[SolutionFamily], list[Diagnostic]]:
    if not isinstance(doc, dict):
        raise DocumentError("$: expected a JSON object")
    families_raw = _require(doc, "families", list, "$")
    families = [
        family_from_document(f, dim, arity, f"$.families[{k}]")
        for k, f in enumerate(families_raw)
    ]
    diagnostics = []
    for k, d in enumerate(doc.get("diagnostics", [])):
        if (
            not isinstance(d, dict)
            or not isinstance(d.get("class_or_attempt"), str)
            or not isinstance(d.get("failure"), str)
        ):
            raise DocumentError(f"$.diagnostics[{k}]: expected class_or_attempt and failure strings")
        diagnostics.append(Diagnostic(d["class_or_attempt"], d["failure"]))
    return families, diagnostics


def load_document(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def dump_document(doc: Any, path: str | None) -> None:
    """Stream ``doc`` as indented JSON plus a newline to ``path``, or stdout."""
    if path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(path, "w", encoding="utf-8")
    with target as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
