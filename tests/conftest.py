import random
from fractions import Fraction
from math import comb
from typing import Dict

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from paracr.poly import Poly
from paracr.solver import tangency_system
from paracr.surface import ModelSurface, ParaVectorField


# CI runs `pytest --hypothesis-profile=ci`: fixed examples and no per-example
# deadline, so a slow runner neither draws new inputs nor times out
settings.register_profile("ci", derandomize=True, deadline=None)


def binomial_gamma(k, delta=1, nu=1):
    delta, nu = Fraction(delta), Fraction(nu)
    return tuple(comb(k, i) * delta * nu**i for i in range(1, k))


def monomial_gamma(k, iota, value=1):
    return tuple(Fraction(value) if i == iota else Fraction(0) for i in range(1, k))


INTERIOR_MONOMIALS = [(4, 2), (5, 2), (5, 3), (6, 3)]
BINOMIALS = [(3, 1, 1), (4, 1, 1), (5, 1, 1), (3, 2, 3), (4, 2, 3), (5, 2, 3)]
GENERICS = [(4, (1, 0, 1)), (5, (1, 1, 0, 0)), (6, (0, 1, 0, 1, 0))]
BOUNDARY_MONOMIALS = [(3, 1), (4, 1), (3, 2), (4, 3)]


def suite_surfaces():
    """The surfaces exercised across the acceptance criteria."""
    surfaces = []
    for k, iota in INTERIOR_MONOMIALS:
        surfaces.append(ModelSurface(k, monomial_gamma(k, iota)))
    for k, delta, nu in BINOMIALS:
        surfaces.append(ModelSurface(k, binomial_gamma(k, delta, nu)))
    for k, gamma in GENERICS:
        surfaces.append(ModelSurface(k, tuple(Fraction(g) for g in gamma)))
    for k, iota in BOUNDARY_MONOMIALS:
        surfaces.append(ModelSurface(k, monomial_gamma(k, iota)))
    return surfaces


def rational_gamma_surfaces():
    """A binomial with rational delta, nu and a generic surface, both with non-integral gamma."""
    return [
        ModelSurface(4, binomial_gamma(4, Fraction(1, 2), Fraction(2, 3))),
        ModelSurface(5, (Fraction(1, 2), Fraction(0), Fraction(-2, 3), Fraction(0))),
    ]


# the benchmark's k ladder, with the generic draws written out literally
K_LADDER_GENERICS = [
    (6, (-3, -1, 1, 2, 3)),
    (12, (2, 2, -2, 2, -2, -1, 2, 1, 2, 1, 3)),
    (20, (2, -1, 3, 2, 2, -2, 3, 2, 2, 2, 1, -1, 1, -1, -3, -1, -1, -1, 1)),
]
K_LADDER_BINOMIALS = [6, 7]
K_LADDER_MONOMIALS = [6, 12, 16]


def k_ladder_surfaces():
    """Generic k = 6, 12, 20; binomial gamma_i = C(k, i) at k = 6, 7; monomial
    iota = k/2 at k = 6, 12, 16."""
    surfaces = [
        ModelSurface(k, tuple(Fraction(g) for g in gamma)) for k, gamma in K_LADDER_GENERICS
    ]
    surfaces += [ModelSurface(k, binomial_gamma(k)) for k in K_LADDER_BINOMIALS]
    surfaces += [ModelSurface(k, monomial_gamma(k, k // 2)) for k in K_LADDER_MONOMIALS]
    return surfaces


def sparse_rows(rows):
    """Dense rows as sparse rows: each row's nonzero (column, value) pairs, ascending."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def unit_system(ansatz):
    """``tangency_system`` on the unit fields of ``ansatz``: the full per-weight system."""
    return tangency_system(ansatz, [[(j, 1)] for j in range(len(ansatz))])


def dense_rows(rows, ncols):
    """Sparse rows, (column, value) pairs in any order, as dense rows of ``ncols`` entries."""
    dense = []
    for row in rows:
        values = [0] * ncols
        for j, v in row:
            values[j] = v
        dense.append(values)
    return dense


@pytest.fixture(scope="session")
def suite():
    return suite_surfaces()


# -- randomized object builders (plain RNG, used by the big property suites) --


def random_fraction(rng, span=6, den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_poly(rng, variables=("x", "y", "a", "b"), max_terms=4, max_exp=3):
    from paracr.poly import _VAR_INDEX  # noqa: PLC2701  (test-only convenience)

    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = [0, 0, 0, 0]
        for v in variables:
            exp[_VAR_INDEX[v]] = rng.randint(0, max_exp)
        terms[tuple(exp)] = random_fraction(rng)
    return Poly(terms)


def random_para_field(rng, max_terms=3, max_exp=2):
    return ParaVectorField(
        random_poly(rng, ("a", "b"), max_terms, max_exp),
        random_poly(rng, ("a", "b"), max_terms, max_exp),
        random_poly(rng, ("x", "y"), max_terms, max_exp),
        random_poly(rng, ("x", "y"), max_terms, max_exp),
    )


# -- float evaluation reference -------------------------------------------------


def reference_eval_float(p, point):
    """``Poly.eval_floats`` at one point as it was before the Horner tree was
    kept: the sparse Horner below, rebuilt at every call, kept verbatim as
    the reference."""
    if not p:
        return 0.0
    pt = tuple(float(v) for v in point)
    return _horner(list(p.items()), pt, 0)


def _horner(items, point, vi):
    # sparse Horner in floats, one variable at a time; the report witnesses
    # pin this operation order, so eval_floats is reproducible bit for bit
    if vi == 4:
        total = 0.0
        for _, c in items:
            total += float(c)
        return total
    buckets: Dict[int, list] = {}
    for exp, c in items:
        buckets.setdefault(exp[vi], []).append((exp, c))
    v = point[vi]
    acc = None
    prev = 0
    for e in sorted(buckets, reverse=True):
        sub = _horner(buckets[e], point, vi + 1)
        if acc is None:
            acc = sub
        else:
            acc = acc * v ** (prev - e) + sub
        prev = e
    return acc * v**prev


# -- hypothesis strategies -----------------------------------------------------

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def exponents_st(variables):
    from paracr.poly import _VAR_INDEX

    idx = [_VAR_INDEX[v] for v in variables]

    def build(draws):
        exp = [0, 0, 0, 0]
        for i, d in zip(idx, draws):
            exp[i] = d
        return tuple(exp)

    return st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=len(idx),
        max_size=len(idx),
    ).map(build)


def poly_st(variables=("x", "y", "a", "b"), max_terms=4):
    return st.dictionaries(
        exponents_st(variables), fractions_st, max_size=max_terms
    ).map(Poly)


def para_field_st():
    return st.builds(
        ParaVectorField,
        poly_st(("a", "b"), 3),
        poly_st(("a", "b"), 3),
        poly_st(("x", "y"), 3),
        poly_st(("x", "y"), 3),
    )
