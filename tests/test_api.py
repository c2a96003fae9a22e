import re
from pathlib import Path

import numpy as np

import matpolyeq


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
