"""No float reaches an exact result, and no exact value breaks the scalar rule.

Exact values are ints wherever they are integral (``poly.exact``), and
``int / int`` is a float in Python, so a division that sees one must go
through ``Fraction``.  Each test walks a result record field by field,
through tuples, lists, dicts and the coefficients of every polynomial, and
asserts that no float appears outside the two places that hold floats by
design: a flow check's ``max_residual`` and the proportionality witnesses.
The kernels, the structure constants and the Lie profile are also walked for
a ``Fraction`` whose denominator is 1, which the rule makes an int.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from paracr import linalg, liealg
from paracr.embedding import solve_embedding
from paracr.flows import FlowCheck, ProportionalityWitness
from paracr.normalform import DefiningFunction, NormalFormError, finite_type, singular_locus
from paracr.poly import Poly, format_fraction
from paracr.report import analyze, report_to_dict
from paracr.solver import build_ansatz, solve_algebra
from paracr.surface import ModelSurface
from conftest import (
    dense_rows,
    k_ladder_surfaces,
    rational_gamma_surfaces,
    suite_surfaces,
    unit_system,
)
from test_liealg import change_basis, random_rational_basis_change

CLI_GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"


def floats_in(value, path="result", integral_fractions=False):
    """The paths of every float inside ``value`` and, with ``integral_fractions``,
    of every ``Fraction`` whose denominator is 1."""

    def stray(v):
        if isinstance(v, Fraction):
            return integral_fractions and v.denominator == 1
        return isinstance(v, float)

    def walk(value, path):
        if stray(value):
            return [path]
        if isinstance(value, ProportionalityWitness):
            return []
        if isinstance(value, Poly):
            return [f"{path}[{exp}]" for exp, c in value.items() if stray(c)]
        # a record's fields: a NamedTuple's _fields, a plain record class's __match_args__
        names = getattr(value, "_fields", None) or getattr(type(value), "__match_args__", None)
        if names:
            return [
                p
                for name in names
                if not (isinstance(value, FlowCheck) and name == "max_residual")
                for p in walk(getattr(value, name), f"{path}.{name}")
            ]
        if isinstance(value, dict):
            return [p for k, v in value.items() for p in walk(v, f"{path}[{k!r}]")]
        if isinstance(value, (tuple, list)):
            return [p for i, v in enumerate(value) for p in walk(v, f"{path}[{i}]")]
        return []

    return walk(value, path)


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
    # control: the walk reaches into lists, tuples, dicts and record fields
    s = ModelSurface(3, (Fraction(3), Fraction(3)))
    assert floats_in((s, {"p": Poly.parse("x")})) == []
    assert floats_in(FlowCheck("c", True, True, 0.5, "")) == []
    assert floats_in(FlowCheck("c", True, True, None)._replace(detail=0.5)) == [
        "result.detail"
    ]
    assert floats_in([1, (2, 0.5)]) == ["result[1][1]"]
    mixed = [1, Fraction(1, 2), (Fraction(2), 0.5)]
    assert floats_in(mixed) == ["result[2][1]"]
    assert floats_in(mixed, integral_fractions=True) == ["result[2][0]", "result[2][1]"]


@pytest.mark.parametrize(
    "s", suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces(), ids=surface_id
)
def test_analyze_report_is_exact(s):
    assert floats_in(analyze(s.k, s.gamma)) == []


def test_serializer_refuses_a_float():
    # Fraction(1.0) would print "1"; a float in a report raises instead
    assert format_fraction(1) == "1" and format_fraction(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(TypeError, match="1.0"):
        format_fraction(1.0)
    rep = analyze(4, (1, 0, 1))
    assert rep.algebra.profile.ad_eigenvalue_data == (1,)
    assert report_to_dict(rep)["algebra"]["profile"]["ad_eigenvalue_data"] == ["1"]
    profile = rep.algebra.profile._replace(ad_eigenvalue_data=(1.0,))
    planted = rep._replace(algebra=rep.algebra._replace(profile=profile))
    assert floats_in(planted) == ["result.algebra.profile.ad_eigenvalue_data[0]"]
    with pytest.raises(TypeError, match="1.0"):
        report_to_dict(planted)


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


SYSTEM_SURFACES = suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces()


@pytest.mark.parametrize("s", SYSTEM_SURFACES, ids=surface_id)
def test_structure_constants_and_profile_follow_the_scalar_rule(s):
    alg = solve_algebra(s)
    assert floats_in(alg.structure_constants, integral_fractions=True) == []
    profile = liealg.profile(liealg.structure_constants(alg))
    assert floats_in(profile, integral_fractions=True) == []


@pytest.mark.parametrize("s", SYSTEM_SURFACES, ids=surface_id)
def test_kernels_follow_the_scalar_rule(s):
    # every per-weight tangency system solve_algebra solves, through each routine
    for m in range(-s.k, solve_algebra(s).weight_cap + 1):
        ansatz = build_ansatz(s, m)
        t = len(ansatz)
        if not t:
            continue
        rows = unit_system(ansatz)[1]
        dense = dense_rows(rows, t)
        reduced = linalg.rref(dense, t)[0]
        # the sum of the system's rows, in the basis of its reduced rows
        coeffs = linalg.solve_in_span(reduced, [sum(column) for column in zip(*dense)])
        assert coeffs is not None
        outputs = {
            "nullspace_modular": linalg.nullspace_modular(rows, t),
            "nullspace_bareiss": linalg.nullspace_bareiss(dense, t),
            "nullspace_gauss_jordan": linalg.nullspace_gauss_jordan(dense, t),
            "rref": reduced,
            "solve_in_span": coeffs,
        }
        assert floats_in(outputs, f"weight {m}", integral_fractions=True) == []


def test_rational_basis_changes_follow_the_scalar_rule():
    # no computed table holds a non-integral constant; these tables do, so the
    # rule's Fraction branch runs in brackets, the Killing form and the eigenvalues
    rng = random.Random(2229)
    fractional = 0
    for s in SYSTEM_SURFACES:
        sc = liealg.structure_constants(solve_algebra(s))
        for _ in range(3):
            transformed = change_basis(sc, random_rational_basis_change(rng, sc.dimension))
            cells = [c for row in transformed.table for cell in row for c in cell]
            fractional += any(type(c) is Fraction for c in cells)
            assert floats_in(transformed.table, integral_fractions=True) == []
            assert floats_in(liealg.profile(transformed), integral_fractions=True) == []
    assert fractional > 0
