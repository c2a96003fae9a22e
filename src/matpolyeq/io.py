"""JSON interchange for equations and solution families.

Complex numbers serialize as two-element [re, im] arrays and matrices as
row-major nested arrays; every value reads back bit for bit.  Arrays are
converted whole in both directions.  ``dump_solution`` writes a solution
document a chunk of families at a time: each chunk's fields are stacked as
float64, each distinct bit pattern is formatted once, and each family line
is written as soon as it is filled in.  These lines are the one formatter
of solution numbers: ``solution_to_document`` reads them back with
``json.loads``, so ``dump_document`` of it writes the same bytes.
``solution_arrays`` reads each field of a solution document across all
families into one stack; ``verify`` uses the stacks,
``solution_from_document`` wraps them in families.
Every array read goes through one converter, ``_complex_array``; only when
its whole-array check fails does one locator walk the document in order, to
name the first offending field path in the error.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import DimensionMismatch, DocumentError
from .linalg import chunk_size
from .polymatrix import MatrixPolynomial
from .solver import Diagnostic, Orientation, SANDWICH_SLOTS, SolutionFamily, StructuredEquation


def to_pairs(values) -> list:
    """[re, im] float pairs of a complex scalar or array, nested like its shape."""
    # complex128 viewed as float64 holds each entry's [re, im] pair
    c = np.asarray(values, dtype=np.complex128, order="C")
    return c.reshape(-1).view(np.float64).reshape(c.shape + (2,)).tolist()


# documents are trees this package builds, so the encoder's cycle check is never needed
_encode = json.JSONEncoder(check_circular=False).encode

#: A solution family's array fields: key, shape in terms of the document's
#: arity and dimension, and the noun for the items at each level of the shape.
_FAMILY_ARRAYS = (
    ("eigenvalues", ("arity", "dim"), ("lists", "pairs")),
    ("transform", ("dim", "dim"), ("rows", "entries")),
    ("unknowns", ("arity", "dim", "dim"), ("matrices", "rows", "entries")),
)
_PAIR = "expected a [re, im] number pair"


def _number(value: Any, path: str, expected: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DocumentError(f"{path}: {expected}")
    try:
        return float(value)
    except OverflowError:
        raise DocumentError(f"{path}: number out of float range") from None


def _complex_array(value: Any, shape: tuple[int, ...], locate: Callable[[], None]) -> np.ndarray:
    """Nested [re, im] number pairs as a complex array of ``shape``.

    One object-array pass checks the nesting and the number types; the
    float64 pairs are then viewed as complex128, so -0.0, inf and nan
    keep their bits.  Only if that check fails does ``locate()`` run, to
    raise the ``DocumentError`` that names the first fault.
    """
    cells = np.array(value, dtype=object)
    if cells.shape == shape + (2,):
        flat = cells.ravel().tolist()
        if all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, flat))):
            try:
                return np.array(flat, dtype=np.float64).view(np.complex128).reshape(shape)
            except OverflowError:
                pass
    locate()
    raise AssertionError("whole-array check and locator disagree")


def _locate(value: Any, shape: tuple[int, ...], nouns: tuple[str, ...], path: str) -> None:
    """Raise the first fault of ``value`` against ``shape``, in document order.

    Each level of ``shape`` must be a list of ``nouns[level]``; each leaf a
    list or tuple of two numbers.
    """
    if shape:
        if not isinstance(value, list) or len(value) != shape[0]:
            raise DocumentError(f"{path}: expected {shape[0]} {nouns[0]}")
        for i, item in enumerate(value):
            _locate(item, shape[1:], nouns[1:], f"{path}[{i}]")
    elif not isinstance(value, (list, tuple)) or len(value) != 2:
        raise DocumentError(f"{path}: {_PAIR}")
    else:
        for x in value:
            _number(x, path, _PAIR)


def _matrix(value: Any, dim: int, path: str) -> np.ndarray:
    shape = (dim, dim)
    return _complex_array(value, shape, lambda: _locate(value, shape, ("rows", "entries"), path))


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
            terms[key] = _matrix(slots[name], dim, f"$.sandwich_slots.{name}")
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
            terms[exps] = _matrix(coeff, dim, f"{path}.coefficient")
    try:
        poly = MatrixPolynomial(arity=arity, dim=dim, terms=terms)
        return StructuredEquation(poly=poly, orientation=orientation)
    except Exception as exc:
        raise DocumentError(f"$: {exc}") from exc


def solution_to_document(
    families: list[SolutionFamily], diagnostics: list[Diagnostic]
) -> dict:
    """The solution document, as the lines ``dump_solution`` writes read back.

    The families must share one dimension and arity, else ``DimensionMismatch``.
    The CLI writes solution documents with ``dump_solution`` instead; this
    in-memory document is kept for callers and tests that inspect it, and
    for the benchmark tracer, which wraps it by name.
    """
    lines, notes = _members(families, diagnostics)
    return {"families": list(map(json.loads, lines)), "diagnostics": notes}


def _members(families: list[SolutionFamily], diagnostics: list[Diagnostic]) -> tuple:
    # mixed shapes raise here, before any family line is drawn
    lines = _family_lines(families, _shared_shape(families)) if families else ()
    return lines, [{"class_or_attempt": d.label, "failure": d.failure} for d in diagnostics]


def _layout(shape: tuple[int, ...]) -> str:
    """The JSON text of a nested pair array of ``shape``, with ``%s`` for each number."""
    if not shape:
        return "[%s, %s]"
    return "[" + ", ".join([_layout(shape[1:])] * shape[0]) + "]"


def _shape(value) -> tuple:
    """``np.shape(value)`` without building an array: a list's is read from its items'."""
    if not isinstance(value, list):
        return value.shape if isinstance(value, np.ndarray) else np.shape(value)
    (item,) = {_shape(v) for v in value} or {()}  # ValueError when ragged
    return (len(value), *item)


def _shared_shape(families: list[SolutionFamily]) -> tuple:
    """The shapes of the array fields, which all families must share."""
    keys = [key for key, _, _ in _FAMILY_ARRAYS]
    try:  # a ragged field, or two shapes among the families
        (shape,) = {tuple(_shape(getattr(f, key)) for key in keys) for f in families}
    except ValueError:
        raise DimensionMismatch("families must share one dimension and arity") from None
    return shape


def _family_lines(families: list[SolutionFamily], shape: tuple) -> Iterator[str]:
    """Each family's JSON text, filled into one ``%s`` layout a chunk at a time.

    A chunk's numbers are stacked as float64 and de-duplicated on their bit
    pattern, so ``0.0`` and ``-0.0`` stay apart; the distinct numbers are
    encoded in one call, as the encoder writes them anywhere else.
    """
    layout = "{%s}" % ", ".join(
        [f"{_encode(key)}: {_layout(s)}" for (key, _, _), s in zip(_FAMILY_ARRAYS, shape)]
        + ['"residual": %s', '"transform_condition": %s']
    )
    step = chunk_size(sum(int(np.prod(s)) for s in shape))
    for start in range(0, len(families), step):
        chunk = families[start : start + step]
        fields = [
            np.array([getattr(f, key) for f in chunk], dtype=np.complex128)
            .reshape(len(chunk), -1)
            .view(np.float64)
            for key, _, _ in _FAMILY_ARRAYS
        ]
        scalars = [(f.residual, f.transform_condition) for f in chunk]
        fields.append(np.array(scalars, dtype=np.float64))
        numbers = np.concatenate(fields, axis=1)
        distinct, inverse = np.unique(numbers.view(np.uint64), return_inverse=True)
        # no number's text holds ", ", so one list's text splits into the numbers'
        texts = _encode(distinct.view(np.float64).tolist())[1:-1].split(", ")
        for row in np.array(texts, dtype=object)[inverse.reshape(numbers.shape)].tolist():
            yield layout % tuple(row)


def dump_solution(
    families: list[SolutionFamily], diagnostics: list[Diagnostic], path: str | None
) -> None:
    """Write the solution document of ``families`` and ``diagnostics`` to ``path``, or stdout.

    The bytes are those of ``dump_document(solution_to_document(...))``, but
    no nested lists are built: each family line is written as soon as its
    chunk is formatted.  Mixed shapes raise ``DimensionMismatch`` before the
    target is opened.
    """
    lines, notes = _members(families, diagnostics)
    _write(path, [("families", lines), ("diagnostics", map(_encode, notes))])


def _scalars(family: dict, path: str) -> list[float]:
    return [
        _number(family.get(key), f"{path}.{key}", "expected a number")
        for key in ("residual", "transform_condition")
    ]


def solution_arrays(
    doc: Any, dim: int, arity: int
) -> tuple[tuple[np.ndarray, ...], list[Diagnostic]]:
    """A solution document's family fields as stacks, and its diagnostics.

    The stacks are eigenvalues (F, m, n), transforms (F, n, n), unknowns
    (F, m, n, n) and scalars (F, 2), each residual and transform condition.
    Families are checked before diagnostics; an error names the first fault's path.
    """
    if not isinstance(doc, dict):
        raise DocumentError("$: expected a JSON object")
    raw = _require(doc, "families", list, "$")
    sizes = {"arity": arity, "dim": dim}
    shapes = [(len(raw), *(sizes[a] for a in axes)) for _, axes, _ in _FAMILY_ARRAYS]

    def locate() -> None:
        for k, family in enumerate(raw):
            path = f"$.families[{k}]"
            if not isinstance(family, dict):
                raise DocumentError(f"{path}: expected an object")
            for (key, _, nouns), shape in zip(_FAMILY_ARRAYS, shapes):
                value = _require(family, key, list, path)
                _locate(value, shape[1:], nouns, f"{path}.{key}")
            _scalars(family, path)

    if not all(
        isinstance(f, dict) and all(isinstance(f.get(key), list) for key, _, _ in _FAMILY_ARRAYS)
        for f in raw
    ):
        locate()  # raises: a family is not an object or lacks a list field
    arrays = [
        _complex_array([f[key] for f in raw], shape, locate) if raw else np.empty(shape, complex)
        for (key, _, _), shape in zip(_FAMILY_ARRAYS, shapes)
    ]
    scalars = [_scalars(f, f"$.families[{k}]") for k, f in enumerate(raw)]
    arrays.append(np.array(scalars, dtype=np.float64).reshape(len(raw), 2))
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
    return tuple(arrays), diagnostics


def solution_from_document(
    doc: Any, dim: int, arity: int
) -> tuple[list[SolutionFamily], list[Diagnostic]]:
    """``solution_arrays``, each family holding views of the stacks."""
    (eigenvalues, transforms, unknowns, scalars), diagnostics = solution_arrays(doc, dim, arity)
    rows = zip(transforms, eigenvalues, unknowns, scalars.tolist())
    families = [SolutionFamily(t, list(e), list(u), *scalar) for t, e, u, scalar in rows]
    return families, diagnostics


def load_document(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, overlong integers
        raise DocumentError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError:
        raise DocumentError(f"{path}: invalid JSON (nested too deeply)") from None


def check_writable(path: str) -> None:
    """Raise the ``DocumentError`` of a path that cannot be opened for writing.

    The path is left as it was: an existing file keeps its bytes, and an
    absent one is created only for the test and removed again.
    """
    try:
        if os.path.exists(path):
            open(path, "rb+").close()
        else:
            open(path, "xb").close()
            os.remove(path)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc


def _write(path: str | None, members: Iterable[tuple[str, str | Iterable[str]]]) -> None:
    """Write a JSON object plus a newline to ``path``, or stdout.

    Each member is a key with either its value's JSON text or, for a list,
    an iterable of its items' texts; each key starts a line, and each list
    item sits on its own line, written as soon as it is drawn.  A path that
    cannot be opened or written, or a stdout that cannot take the output,
    is a ``DocumentError``; what was written before the failure stays at
    the target.
    """
    try:
        target = (
            contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")
        )
        with target as fh:
            fh.write("{")
            sep = "\n  "
            for key, value in members:
                fh.write(f"{sep}{_encode(key)}: ")
                sep = ",\n  "
                if isinstance(value, str):
                    fh.write(value)
                    continue
                item_sep = "[\n    "
                for text in value:
                    fh.write(item_sep + text)
                    item_sep = ",\n    "
                fh.write("[]" if item_sep == "[\n    " else "\n  ]")
            fh.write("\n}\n")
            fh.flush()
    except OSError as exc:
        if path is None:
            # the interpreter flushes stdout again at exit: send what is left to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise DocumentError(f"cannot write {'<stdout>' if path is None else path}: {exc}") from exc


def dump_document(doc: dict[str, Any], path: str | None) -> None:
    """Write the object ``doc`` as JSON plus a newline to ``path``, or stdout.

    Each top-level key, and each item of a top-level list, goes on its own
    line through the C encoder, one item at a time; no string for the whole
    document is ever built.  Failures are as in ``_write``.
    """
    items = [(k, map(_encode, v) if isinstance(v, list) else _encode(v)) for k, v in doc.items()]
    _write(path, items)
