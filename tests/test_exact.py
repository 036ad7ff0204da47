"""No float reaches an exact result.

Polynomial coefficients are ints wherever they are integral, and ``int / int``
is a float in Python, so a division that sees a coefficient must go through
``Fraction``.  Each test walks a result dataclass field by field, through
tuples, lists, dicts and the coefficients of every polynomial, and asserts
that no float appears outside the two places that hold floats by design: a
flow check's ``max_residual`` and the proportionality witnesses.
"""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from paracr.embedding import solve_embedding
from paracr.flows import FlowCheck, ProportionalityWitness
from paracr.normalform import DefiningFunction, NormalFormError, finite_type, singular_locus
from paracr.poly import Poly
from paracr.report import analyze
from paracr.surface import ModelSurface
from conftest import k_ladder_surfaces, rational_gamma_surfaces, suite_surfaces

CLI_GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"


def floats_in(value, path="result"):
    """The paths of every float inside ``value``."""
    if isinstance(value, float):
        return [path]
    if isinstance(value, ProportionalityWitness):
        return []
    if isinstance(value, Poly):
        return [f"{path}[{exp}]" for exp, c in value.items() if isinstance(c, float)]
    if dataclasses.is_dataclass(value):
        return [
            p
            for f in dataclasses.fields(value)
            if not (isinstance(value, FlowCheck) and f.name == "max_residual")
            for p in floats_in(getattr(value, f.name), f"{path}.{f.name}")
        ]
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in floats_in(v, f"{path}[{k!r}]")]
    if isinstance(value, (tuple, list)):
        return [p for i, v in enumerate(value) for p in floats_in(v, f"{path}[{i}]")]
    return []


def golden_args(command, flag):
    cases = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    values = []
    for case in cases:
        argv = case["argv"]
        if argv[0] == command and flag in argv:
            value = argv[argv.index(flag) + 1]
            if value not in values:
                values.append(value)
    return values


def surface_id(s):
    return f"k{s.k}-" + ",".join(str(g) for g in s.gamma)


def test_walk_finds_a_float():
    # control: the walk reaches into lists, tuples, dicts and dataclass fields
    s = ModelSurface(3, (Fraction(3), Fraction(3)))
    assert floats_in((s, {"p": Poly.parse("x")})) == []
    assert floats_in(FlowCheck("c", True, True, 0.5, "")) == []
    assert floats_in(dataclasses.replace(FlowCheck("c", True, True, None), detail=0.5)) == [
        "result.detail"
    ]
    assert floats_in([1, (2, 0.5)]) == ["result[1][1]"]


@pytest.mark.parametrize(
    "s", suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces(), ids=surface_id
)
def test_analyze_report_is_exact(s):
    assert floats_in(analyze(s.k, s.gamma)) == []


@pytest.mark.parametrize("phi", golden_args("finite-type", "--phi"))
def test_finite_type_is_exact(phi):
    try:
        result = finite_type(DefiningFunction(Poly.parse(phi)))
    except NormalFormError:
        return  # a usage error in the golden: no result to walk
    assert floats_in(result) == []


@pytest.mark.parametrize(
    "s",
    suite_surfaces()
    + rational_gamma_surfaces()
    + [ModelSurface(4, (Fraction(4, 3), Fraction(4, 3), Fraction(16, 27)))],
    ids=surface_id,
)
def test_singular_locus_is_exact(s):
    assert floats_in(singular_locus(s)) == []


@pytest.mark.parametrize("psi", golden_args("embed", "--psi") + ["1/3 x + 2/3 a b"])
def test_embedding_is_exact(psi):
    assert floats_in(solve_embedding(Poly.parse(psi), 6)) == []
