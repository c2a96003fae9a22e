import copy
import itertools
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matpolyeq import io
from matpolyeq.errors import DimensionMismatch, DocumentError
from matpolyeq.linalg import chunk_size
from matpolyeq.polymatrix import MatrixPolynomial
from matpolyeq.solver import (
    SANDWICH_SLOTS,
    Diagnostic,
    Orientation,
    SolutionFamily,
    StructuredEquation,
)

DATA = Path(__file__).parent / "data"

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.5e-308, 1e300, -1e300]
finite = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True),
)
# JSON writes every nan as NaN, which reads back as the canonical quiet nan
anything = st.one_of(finite, st.sampled_from([float("inf"), float("-inf"), float("nan")]))


def complex_arrays(shape, elements):
    size = 2 * int(np.prod(shape))
    return st.lists(elements, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=np.float64).view(np.complex128).reshape(shape)
    )


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.complex128).tobytes()


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def round_trip(doc, tmp_path):
    path = tmp_path / "doc.json"
    io.dump_document(doc, str(path))
    return io.load_document(str(path))


@st.composite
def equations(draw):
    # coefficients must be finite: equations with inf or nan are rejected
    dim = draw(st.integers(1, 3))
    orientation = draw(st.sampled_from(list(Orientation)))
    if orientation is Orientation.SANDWICH_BIVARIATE:
        arity, keys = 2, list(SANDWICH_SLOTS.values())
    else:
        arity = draw(st.integers(1, 2))
        keys = [tuple(e) for e in np.ndindex(*(3,) * arity)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    terms = {k: draw(complex_arrays((dim, dim), finite)) for k in chosen}
    poly = MatrixPolynomial(arity=arity, dim=dim, terms=terms)
    return StructuredEquation(poly=poly, orientation=orientation)


@st.composite
def solutions(draw):
    dim = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 2))
    families = [
        SolutionFamily(
            transform=draw(complex_arrays((dim, dim), anything)),
            eigenvalues=[draw(complex_arrays((dim,), anything)) for _ in range(arity)],
            unknowns=[draw(complex_arrays((dim, dim), anything)) for _ in range(arity)],
            residual=draw(anything),
            transform_condition=draw(anything),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    diagnostics = [
        Diagnostic(draw(st.text()), draw(st.text()))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return dim, arity, families, diagnostics


@settings(max_examples=60, deadline=None)
@given(eq=equations())
def test_equation_round_trip_is_bit_exact(tmp_path_factory, eq):
    doc = round_trip(io.equation_to_document(eq), tmp_path_factory.mktemp("eq"))
    back = io.equation_from_document(doc)
    assert back.orientation is eq.orientation
    assert sorted(back.poly.terms) == sorted(eq.poly.terms)
    for key, coeff in eq.poly.terms.items():
        assert bits(back.poly.terms[key]) == bits(coeff)


@settings(max_examples=60, deadline=None)
@given(case=solutions())
def test_solution_round_trip_is_bit_exact(tmp_path_factory, case):
    dim, arity, families, diagnostics = case
    doc = round_trip(
        io.solution_to_document(families, diagnostics), tmp_path_factory.mktemp("sol")
    )
    back, back_diagnostics = io.solution_from_document(doc, dim, arity)
    assert back_diagnostics == diagnostics
    assert len(back) == len(families)
    for got, want in zip(back, families):
        assert bits(got.transform) == bits(want.transform)
        assert [bits(v) for v in got.eigenvalues] == [bits(v) for v in want.eigenvalues]
        assert [bits(x) for x in got.unknowns] == [bits(x) for x in want.unknowns]
        assert float_bits(got.residual) == float_bits(want.residual)
        assert float_bits(got.transform_condition) == float_bits(want.transform_condition)


def per_family_layout(families, diagnostics) -> str:
    """A solution document written family by family, one item per line."""

    def pairs(a):
        a = np.asarray(a, dtype=np.complex128)
        return np.stack([a.real, a.imag], axis=-1).tolist()

    def items(key, values):
        if not values:
            return f"{json.dumps(key)}: []"
        lines = ",\n".join("    " + json.dumps(v) for v in values)
        return f"{json.dumps(key)}: [\n{lines}\n  ]"

    family_docs = [
        {
            "eigenvalues": [pairs(v) for v in f.eigenvalues],
            "transform": pairs(f.transform),
            "unknowns": [pairs(x) for x in f.unknowns],
            "residual": float(f.residual),
            "transform_condition": float(f.transform_condition),
        }
        for f in families
    ]
    diagnostic_docs = [{"class_or_attempt": d.label, "failure": d.failure} for d in diagnostics]
    return (
        "{\n  " + items("families", family_docs)
        + ",\n  " + items("diagnostics", diagnostic_docs) + "\n}\n"
    )


@settings(max_examples=60, deadline=None)
@given(case=solutions())
def test_solution_document_bytes_match_per_family_layout(tmp_path_factory, case):
    _, _, families, diagnostics = case
    path = tmp_path_factory.mktemp("bytes") / "sol.json"
    io.dump_document(io.solution_to_document(families, diagnostics), str(path))
    assert path.read_bytes().decode("utf-8") == per_family_layout(families, diagnostics)


def first_line_apart(a: str, b: str):
    """The first line at which two texts differ, as (index, a's, b's), or None;
    a short message where pytest would diff two large documents."""
    for k, pair in enumerate(itertools.zip_longest(a.split("\n"), b.split("\n"))):
        if pair[0] != pair[1]:
            return (k, *pair)
    return None


@st.composite
def shared_solutions(draw):
    """Families as the solver writes them: a few transforms and eigenvalue
    lists shared between families, entries drawn from a small pool that
    always holds 0.0 and -0.0, NaN, both infinities and a subnormal, and a
    family count at and around the writer's chunk size."""
    dim = draw(st.integers(1, 3))
    arity = draw(st.integers(1, 2))
    step = chunk_size(arity * dim + dim * dim + arity * dim * dim)
    count = draw(st.sampled_from([0, 1, 3, step + 1]))
    pool = np.array(
        [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324]
        + draw(st.lists(anything, min_size=1, max_size=6))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def entries(shape):
        return pool[rng.integers(len(pool), size=shape + (2,))].view(np.complex128)[..., 0]

    transforms = [entries((dim, dim)) for _ in range(2)]
    spectra = [list(entries((arity, dim))) for _ in range(2)]
    families = [
        SolutionFamily(
            transform=transforms[rng.integers(2)],
            eigenvalues=spectra[rng.integers(2)],
            unknowns=list(entries((arity, dim, dim))),
            residual=float(pool[rng.integers(len(pool))]),
            transform_condition=float(pool[rng.integers(len(pool))]),
        )
        for _ in range(count)
    ]
    diagnostics = [
        Diagnostic(draw(st.text()), draw(st.text())) for _ in range(draw(st.integers(0, 2)))
    ]
    return families, diagnostics


@settings(max_examples=40, deadline=None)
@given(case=shared_solutions())
def test_dump_solution_bytes_match_both_layouts(tmp_path_factory, case):
    families, diagnostics = case
    path = tmp_path_factory.mktemp("bytes")
    io.dump_solution(families, diagnostics, str(path / "streamed.json"))
    io.dump_document(io.solution_to_document(families, diagnostics), str(path / "whole.json"))
    streamed = (path / "streamed.json").read_text(encoding="utf-8")
    assert first_line_apart(streamed, per_family_layout(families, diagnostics)) is None
    assert first_line_apart(streamed, (path / "whole.json").read_text(encoding="utf-8")) is None


def test_dump_solution_of_no_family_keeps_its_diagnostics(tmp_path):
    diagnostics = [Diagnostic("solver", "InsufficientRoots: none"), Diagnostic("root 0", "thin")]
    io.dump_solution([], diagnostics, str(tmp_path / "sol.json"))
    assert (tmp_path / "sol.json").read_text(encoding="utf-8") == per_family_layout([], diagnostics)


def square_family(dim, arity):
    return SolutionFamily(
        transform=np.eye(dim),
        eigenvalues=[np.ones(dim)] * arity,
        unknowns=[np.eye(dim)] * arity,
        residual=0.0,
        transform_condition=1.0,
    )


@pytest.mark.parametrize("shapes", [[(2, 1), (2, 2)], [(2, 1), (3, 1)]], ids=["arity", "dimension"])
def test_solution_to_document_rejects_mixed_families(tmp_path, shapes):
    families = [square_family(dim, arity) for dim, arity in shapes]
    with pytest.raises(DimensionMismatch):
        io.solution_to_document(families, [])
    # the streaming writer raises before it opens the target
    with pytest.raises(DimensionMismatch):
        io.dump_solution(families, [], str(tmp_path / "sol.json"))
    assert list(tmp_path.iterdir()) == []


def test_dump_solution_unwritable_path(tmp_path):
    path = tmp_path / "missing" / "sol.json"
    with pytest.raises(DocumentError, match=re.escape(f"cannot write {path}: ")):
        io.dump_solution([square_family(2, 1)], [], str(path))


def test_dump_document_writes_one_item_per_line(tmp_path):
    family = SolutionFamily(
        transform=np.eye(2, dtype=np.complex128),
        eigenvalues=[np.array([1.0, -1.0 + 0.5j])],
        unknowns=[np.diag([1.0, -1.0 + 0.5j])],
        residual=0.0,
        transform_condition=1.0,
    )
    doc = io.solution_to_document([family, family], [Diagnostic("class (0)", "why")])
    path = tmp_path / "sol.json"
    io.dump_document(doc, str(path))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[:2] == ["{", '  "families": [']
    assert [json.loads(line.rstrip(",")) for line in lines[2:4]] == doc["families"]
    assert lines[4:6] == ["  ],", '  "diagnostics": [']
    assert json.loads(lines[6]) == doc["diagnostics"][0]
    assert lines[7:] == ["  ]", "}", ""]
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def equation_doc():
    with open(DATA / "square_root_identity.json", encoding="utf-8") as fh:
        return json.load(fh)


def solution_doc():
    return {
        "families": [
            {
                "eigenvalues": [[[1.0, 0.0], [-1.0, 0.0]]],
                "transform": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "unknowns": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]],
                "residual": 0.0,
                "transform_condition": 1.0,
            }
        ],
        "diagnostics": [],
    }


def in_matrix(edit):
    doc = equation_doc()
    edit(doc["terms"][0]["coefficient"])
    return lambda: io.equation_from_document(doc)


def in_eigenvalues(edit):
    doc = solution_doc()
    edit(doc["families"][0]["eigenvalues"][0])
    return lambda: io.solution_from_document(doc, 2, 1)


def set_cell(value):
    def edit(rows):
        rows[1][0] = copy.deepcopy(value)

    return edit


def set_pair(value):
    def edit(pairs):
        pairs[1] = copy.deepcopy(value)

    return edit


def nest_every_matrix_cell(rows):
    rows[:] = [[[cell] for cell in row] for row in rows]


def nest_every_pair(pairs):
    pairs[:] = [[pair] for pair in pairs]


def in_family(k, edit):
    """A three-family document with family k edited."""
    doc = solution_doc()
    doc["families"] = [copy.deepcopy(doc["families"][0]) for _ in range(3)]
    edit(doc["families"][k])
    return lambda: io.solution_from_document(doc, 2, 1)


def set_key(key, value):
    def edit(family):
        family[key] = value

    return edit


MATRIX_CELL = "$.terms[0].coefficient[1][0]: expected a [re, im] number pair"
EIGEN_CELL = "$.families[0].eigenvalues[0][1]: expected a [re, im] number pair"
BAD_CELLS = {
    "bool": [True, 0.0],
    "string": ["1", 0.0],
    "dict": {"re": 1.0, "im": 0.0},
    "triple": [1.0, 0.0, 0.0],
    "too deep": [[1.0, 0.0], [0.0, 0.0]],
}

ERROR_TABLE = [
    *[
        pytest.param(in_matrix(set_cell(v)), MATRIX_CELL, id=f"matrix-{k}")
        for k, v in BAD_CELLS.items()
    ],
    *[
        pytest.param(in_eigenvalues(set_pair(v)), EIGEN_CELL, id=f"eigenvalue-{k}")
        for k, v in BAD_CELLS.items()
    ],
    pytest.param(
        in_matrix(lambda rows: rows[1].pop()),
        "$.terms[0].coefficient[1]: expected 2 entries",
        id="matrix-ragged-row",
    ),
    pytest.param(
        in_eigenvalues(lambda pairs: pairs.pop()),
        "$.families[0].eigenvalues[0]: expected 2 pairs",
        id="eigenvalue-ragged",
    ),
    pytest.param(
        in_matrix(nest_every_matrix_cell),
        "$.terms[0].coefficient[0][0]: expected a [re, im] number pair",
        id="matrix-every-cell-too-deep",
    ),
    pytest.param(
        in_eigenvalues(nest_every_pair),
        "$.families[0].eigenvalues[0][0]: expected a [re, im] number pair",
        id="eigenvalue-every-pair-too-deep",
    ),
    pytest.param(
        in_family(1, lambda f: set_cell(["1", 0.0])(f["unknowns"][0])),
        "$.families[1].unknowns[0][1][0]: expected a [re, im] number pair",
        id="family-1-cell",
    ),
    pytest.param(
        in_family(2, set_key("transform", [[[1.0, 0.0]] * 3] * 3)),
        "$.families[2].transform: expected 2 rows",
        id="family-2-transform-dimension",
    ),
    pytest.param(
        in_family(1, lambda f: f.pop("unknowns")),
        "$.families[1].unknowns: missing",
        id="family-1-no-unknowns",
    ),
    pytest.param(
        in_family(1, set_key("residual", True)),
        "$.families[1].residual: expected a number",
        id="family-1-bool-residual",
    ),
]


@pytest.mark.parametrize("parse, message", ERROR_TABLE)
def test_document_error_messages(parse, message):
    with pytest.raises(DocumentError) as info:
        parse()
    assert str(info.value) == message


HUGE = 10**400


@pytest.mark.parametrize(
    "parse, message",
    [
        pytest.param(
            in_matrix(set_cell([HUGE, 0])),
            "$.terms[0].coefficient[1][0]: number out of float range",
            id="matrix-cell",
        ),
        pytest.param(
            in_eigenvalues(set_pair([0, -HUGE])),
            "$.families[0].eigenvalues[0][1]: number out of float range",
            id="eigenvalue-cell",
        ),
    ],
)
def test_integer_too_large_for_a_float_names_its_cell(parse, message):
    with pytest.raises(DocumentError) as info:
        parse()
    assert str(info.value) == message


def test_integer_too_large_for_a_float_in_residual():
    doc = solution_doc()
    doc["families"][0]["residual"] = HUGE
    with pytest.raises(DocumentError, match=r"^\$\.families\[0\]\.residual: number out of"):
        io.solution_from_document(doc, 2, 1)


FAMILY_ARRAY_NOUNS = {
    "eigenvalues": ("lists", "pairs"),
    "transform": ("rows", "entries"),
    "unknowns": ("matrices", "rows", "entries"),
}


@st.composite
def one_fault_solutions(draw):
    """A valid solution document with one fault put in, and the message it must raise."""
    dim, arity = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    count = draw(st.integers(1, 3))
    doc = io.solution_to_document([square_family(dim, arity)] * count, [])
    k = draw(st.integers(0, count - 1))
    family, path = doc["families"][k], f"$.families[{k}]"
    fault = draw(st.sampled_from(["cell", "ragged", "missing array", "scalar"]))
    if fault == "missing array":
        key = draw(st.sampled_from(list(FAMILY_ARRAY_NOUNS)))
        del family[key]
        return doc, dim, arity, f"{path}.{key}: missing"
    if fault == "scalar":
        key = draw(st.sampled_from(["residual", "transform_condition"]))
        bad = draw(st.sampled_from([True, "0.5", None, [0.0], {"value": 0.0}, "missing"]))
        if bad == "missing":
            del family[key]
        else:
            family[key] = bad
        return doc, dim, arity, f"{path}.{key}: expected a number"
    key = draw(st.sampled_from(list(FAMILY_ARRAY_NOUNS)))
    nouns = FAMILY_ARRAY_NOUNS[key]
    sizes = {"eigenvalues": (arity, dim), "transform": (dim, dim), "unknowns": (arity, dim, dim)}[key]
    # the cell takes every index; a ragged level stops above the cells
    depth = len(sizes) if fault == "cell" else draw(st.integers(0, len(sizes) - 1))
    index = [draw(st.integers(0, size - 1)) for size in sizes[:depth]]
    parent, slot = family, key
    for i in index:
        parent, slot = parent[slot], i
    where = f"{path}.{key}" + "".join(f"[{i}]" for i in index)
    if fault == "cell":
        parent[slot] = copy.deepcopy(draw(st.sampled_from(list(BAD_CELLS.values()))))
        return doc, dim, arity, f"{where}: expected a [re, im] number pair"
    items = parent[slot]
    if draw(st.booleans()):
        items.pop()
    else:
        items.append(copy.deepcopy(items[0]))
    return doc, dim, arity, f"{where}: expected {sizes[depth]} {nouns[depth]}"


@settings(max_examples=300, deadline=None)
@given(case=one_fault_solutions())
def test_one_fault_anywhere_names_its_path(case):
    doc, dim, arity, message = case
    with pytest.raises(DocumentError) as info:
        io.solution_from_document(doc, dim, arity)
    assert str(info.value) == message
