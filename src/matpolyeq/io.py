"""JSON interchange for equations and solution families.

Complex numbers serialize as two-element [re, im] arrays and matrices as
row-major nested arrays; every value reads back bit for bit.  Arrays are
converted whole in both directions: a solution document's fields are each
converted across all of its families at once, and the document is walked
family by family, cell by cell, only to name the offending field path in an
error.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Any

import numpy as np

from .errors import DimensionMismatch, DocumentError
from .polymatrix import MatrixPolynomial
from .solver import Diagnostic, Orientation, SANDWICH_SLOTS, SolutionFamily, StructuredEquation


def to_pairs(values) -> list:
    """[re, im] float pairs of a complex scalar or array, nested like its shape."""
    # complex128 viewed as float64 holds each entry's [re, im] pair
    c = np.asarray(values, dtype=np.complex128, order="C")
    return c.reshape(-1).view(np.float64).reshape(c.shape + (2,)).tolist()


# documents are trees this package builds, so the encoder's cycle check is never needed
_encode = json.JSONEncoder(check_circular=False).encode

_ARRAY_KEYS = ("eigenvalues", "transform", "unknowns")


def _number(value: Any, path: str, expected: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DocumentError(f"{path}: {expected}")
    try:
        return float(value)
    except OverflowError:
        raise DocumentError(f"{path}: number out of float range") from None


def _check_pair(value: Any, path: str) -> None:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise DocumentError(f"{path}: expected a [re, im] number pair")
    for x in value:
        _number(x, path, "expected a [re, im] number pair")


def _complex_array(value: Any, shape: tuple[int, ...]) -> np.ndarray | None:
    """Nested [re, im] number pairs as a complex array, or None if malformed.

    One object-array pass checks the nesting and the number types; the
    float64 pairs are then viewed as complex128, so -0.0, inf and nan
    keep their bits.
    """
    cells = np.array(value, dtype=object)
    if cells.shape != shape + (2,):
        return None
    flat = cells.ravel().tolist()
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, flat))):
        return None
    try:
        return np.array(flat, dtype=np.float64).view(np.complex128).reshape(shape)
    except OverflowError:
        return None


def _rows_to_matrix(value: Any, dim: int, path: str) -> np.ndarray:
    out = _complex_array(value, (dim, dim))
    if out is not None:
        return out
    # locate the first malformed row or cell for the error message
    if not isinstance(value, list) or len(value) != dim:
        raise DocumentError(f"{path}: expected {dim} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{path}[{i}]: expected {dim} entries")
        for j, cell in enumerate(row):
            _check_pair(cell, f"{path}[{i}][{j}]")
    raise AssertionError(f"{path}: bulk check and cell walk disagree")


def _pairs_to_vector(value: Any, dim: int, path: str) -> np.ndarray:
    out = _complex_array(value, (dim,))
    if out is not None:
        return out
    if not isinstance(value, list) or len(value) != dim:
        raise DocumentError(f"{path}: expected {dim} pairs")
    for k, cell in enumerate(value):
        _check_pair(cell, f"{path}[{k}]")
    raise AssertionError(f"{path}: bulk check and cell walk disagree")


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
            name: to_pairs(eq.poly.terms.get(key, zero))
            for name, key in SANDWICH_SLOTS.items()
        }
    else:
        doc["terms"] = [
            {"exponents": list(exps), "coefficient": to_pairs(coeff)}
            for exps, coeff in eq.poly.terms.items()
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


def solution_to_document(
    families: list[SolutionFamily], diagnostics: list[Diagnostic]
) -> dict:
    """The solution document; each array field is converted across all families at once.

    The families must share one dimension and arity, else ``DimensionMismatch``.
    """
    try:
        fields = [
            to_pairs(np.array([getattr(f, key) for f in families], dtype=np.complex128))
            for key in _ARRAY_KEYS
        ]
    except ValueError:
        raise DimensionMismatch("families must share one dimension and arity") from None
    return {
        "families": [
            {
                "eigenvalues": e,
                "transform": t,
                "unknowns": u,
                "residual": float(f.residual),
                "transform_condition": float(f.transform_condition),
            }
            for f, e, t, u in zip(families, *fields)
        ],
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
    eigenvalues = [
        _pairs_to_vector(vals, dim, f"{path}.eigenvalues[{s}]")
        for s, vals in enumerate(eigen_raw)
    ]
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
    residual = _number(doc.get("residual"), f"{path}.residual", "expected a number")
    condition = _number(
        doc.get("transform_condition"), f"{path}.transform_condition", "expected a number"
    )
    return SolutionFamily(
        transform=transform,
        eigenvalues=eigenvalues,
        unknowns=unknowns,
        residual=residual,
        transform_condition=condition,
    )


def _stacked_families(raw: list, dim: int, arity: int) -> list[SolutionFamily] | None:
    """The families read one array field at a time across all of them, or None
    if any check fails.  Each family holds views of the stacked arrays."""
    if not all(
        isinstance(f, dict) and all(isinstance(f.get(key), list) for key in _ARRAY_KEYS)
        for f in raw
    ):
        return None
    shapes = [(arity, dim), (dim, dim), (arity, dim, dim)]
    stacks = [
        _complex_array([f[key] for f in raw], (len(raw), *shape))
        for key, shape in zip(_ARRAY_KEYS, shapes)
    ]
    if any(stack is None for stack in stacks):
        return None
    eigenvalues, transforms, unknowns = stacks
    return [
        SolutionFamily(
            transform=transforms[k],
            eigenvalues=list(eigenvalues[k]),
            unknowns=list(unknowns[k]),
            residual=_number(f.get("residual"), f"$.families[{k}].residual", "expected a number"),
            transform_condition=_number(
                f.get("transform_condition"),
                f"$.families[{k}].transform_condition",
                "expected a number",
            ),
        )
        for k, f in enumerate(raw)
    ]


def solution_from_document(
    doc: Any, dim: int, arity: int
) -> tuple[list[SolutionFamily], list[Diagnostic]]:
    if not isinstance(doc, dict):
        raise DocumentError("$: expected a JSON object")
    families_raw = _require(doc, "families", list, "$")
    families = _stacked_families(families_raw, dim, arity)
    if families is None:
        # the walk raises the first error in document order
        families = [
            family_from_document(f, dim, arity, f"$.families[{k}]")
            for k, f in enumerate(families_raw)
        ]
    diagnostics_raw = _require(doc, "diagnostics", list, "$") if "diagnostics" in doc else []
    diagnostics = []
    for k, d in enumerate(diagnostics_raw):
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
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, overlong integers
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc


def dump_document(doc: dict[str, Any], path: str | None) -> None:
    """Write the object ``doc`` as JSON plus a newline to ``path``, or stdout.

    Each top-level key, and each item of a top-level list, goes on its own
    line through the C encoder, one item at a time; no string for the whole
    document is ever built.  A path that cannot be opened is a
    ``DocumentError``.
    """
    if path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        try:
            target = open(path, "w", encoding="utf-8")
        except OSError as exc:
            raise DocumentError(f"cannot write {path}: {exc}") from exc
    with target as fh:
        fh.write("{")
        sep = "\n  "
        for key, value in doc.items():
            fh.write(f"{sep}{_encode(key)}: ")
            sep = ",\n  "
            if isinstance(value, list) and value:
                item_sep = "[\n    "
                for item in value:
                    fh.write(item_sep + _encode(item))
                    item_sep = ",\n    "
                fh.write("\n  ]")
            else:
                fh.write(_encode(value))
        fh.write("\n}\n")
