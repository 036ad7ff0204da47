"""The weight-0 torus map and the four places that read from it.

``detect_case``, ``normalize_binomial``, ``discrete_group`` and the EXP_V0 and
EXP_V0PRIME flows all read from ``normalform.TorusMap``.  The formulas they
used before, one per place, are written out here as references: the
per-index binomial test gamma_i = C(k, i) delta nu^i, the parity rule of the
sign flips, and the two dilation tuples.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from paracr.flows import EXP_V0, EXP_V0PRIME, discrete_group, flow
from paracr.normalform import BINOMIAL, GENERIC, MONOMIAL, TorusMap, detect_case
from paracr.poly import A, B, X, Y
from paracr.report import discrete_dict
from paracr.surface import ModelSurface
from conftest import binomial_gamma, monomial_gamma

_RATIONALS = [Fraction(n, d) for n in range(-5, 6) if n for d in (1, 2, 3, 7)]
_NUS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3)]


def reference_surfaces(count=400, seed=20261021):
    """Seeded surfaces, k = 3-9; the kinds cycle through monomial, binomial
    C(k, i) delta nu^i with rational delta and nu of either sign, random
    rational gamma, and sparse integer gamma."""
    rng = random.Random(seed)
    surfaces = []
    for n in range(count):
        k = rng.randint(3, 9)
        kind = n % 4
        if kind == 0:
            gamma = monomial_gamma(k, rng.randint(1, k - 1), rng.choice(_RATIONALS))
        elif kind == 1:
            gamma = binomial_gamma(k, rng.choice(_RATIONALS), rng.choice(_NUS))
        elif kind == 2:
            gamma = tuple(rng.choice(_RATIONALS) for _ in range(k - 1))
        else:
            gamma = [Fraction(rng.choice([-2, -1, 1, 3])) if rng.random() < 0.4 else 0
                     for _ in range(k - 1)]
            gamma[rng.randrange(k - 1)] = Fraction(rng.choice([-1, 1, 2]))
        surfaces.append(ModelSurface(k, tuple(gamma)))
    return surfaces


SURFACES = reference_surfaces()


def reference_case(k, gamma):
    # the per-index binomial formula: every gamma_i equals C(k, i) delta nu^i
    nonzero = [i for i, g in enumerate(gamma, start=1) if g != 0]
    if len(nonzero) == 1:
        return (MONOMIAL, nonzero[0], None, None)
    if len(nonzero) < k - 1:
        return (GENERIC, None, None, None)
    nu = (gamma[1] / comb(k, 2)) / (gamma[0] / k)
    delta = gamma[0] / k / nu
    if all(g == comb(k, i) * delta * nu**i for i, g in enumerate(gamma, start=1)):
        return (BINOMIAL, None, delta, nu)
    return (GENERIC, None, None, None)


def reference_group(k, gamma):
    # the parity rule: (-x, (-1)^k y, (-1)^k a, -b) always; the b-only flip
    # (x, s y, s a, -b), s = (-1)^i, when every nonzero gamma_i has one parity
    sk = (-1) ** k
    generators = [[-1, sk, sk, -1]]
    indices = [i for i, g in enumerate(gamma, start=1) if g != 0]
    if len({i % 2 for i in indices}) == 1:
        si = (-1) ** indices[0]
        generators.append([1, si, si, -1])
    return ("Z2xZ2" if len(generators) == 2 else "Z2", generators)


class TestReferenceFormulas:
    def test_set_covers_every_case_and_group(self):
        cases = {detect_case(s).kind for s in SURFACES}
        groups = {discrete_group(s).kind for s in SURFACES}
        nus = {detect_case(s).nu for s in SURFACES if detect_case(s).kind == BINOMIAL}
        assert len(SURFACES) >= 300
        assert cases == {MONOMIAL, BINOMIAL, GENERIC} and groups == {"Z2", "Z2xZ2"}
        assert any(nu < 0 for nu in nus) and {s.k for s in SURFACES} == set(range(3, 10))

    def test_detect_case_equals_per_index_formula(self):
        for s in SURFACES:
            assert tuple(detect_case(s)) == reference_case(s.k, s.gamma), s

    def test_discrete_group_equals_parity_rule(self):
        for s in SURFACES:
            d = discrete_dict(discrete_group(s))
            assert (d["kind"], d["generators"]) == reference_group(s.k, s.gamma), s
            assert all(type(v) is int for g in d["generators"] for v in g)

    @pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2), Fraction(7, 5)])
    def test_dilation_flows_equal_hand_written_tuples(self, p):
        for s in SURFACES:
            k = s.k
            assert tuple(flow(EXP_V0, s, p).components) == (p * X, p**k * Y, p**k * A, p * B)
            detection = detect_case(s)
            if detection.kind == MONOMIAL:
                iota = detection.iota
                hand = (p**iota * X, Y, A, Fraction(1) / p ** (k - iota) * B)
                assert tuple(flow(EXP_V0PRIME, s, p).components) == hand


class TestTorusMap:
    def test_act_is_the_exact_image_surface(self):
        # the image surface's defining polynomial, composed with the map, is
        # mu times the source's: this pins both exponents of act and its mu
        rng = random.Random(38)
        for _ in range(60):
            k = rng.randint(3, 9)
            gamma = tuple(rng.choice(_RATIONALS + [Fraction(0)]) for _ in range(k - 1))
            if not any(gamma):
                continue
            t = TorusMap(*(rng.choice(_RATIONALS) for _ in range(3)))
            image = ModelSurface(k, t.act(gamma))
            source = ModelSurface(k, gamma)
            assert t.transform_poly(image.defining_poly) == t.mu * source.defining_poly, t
            point = source.point_from_xab(Fraction(1, 2), Fraction(-2, 3), Fraction(3))
            assert image.defining_poly.eval_exact(t.apply(point)) == 0, t

    def test_change_is_the_map(self):
        t = TorusMap(Fraction(2), Fraction(-1, 3), Fraction(5))
        assert tuple(t.change()) == (2 * X, 5 * Y, 5 * A, Fraction(-1, 3) * B)
        point = (Fraction(1), Fraction(2), Fraction(3), Fraction(4))
        assert t.apply(point) == tuple(c.eval_exact(point) for c in t.change())

    def test_binomial_is_the_orbit_of_the_binomial_coefficients(self):
        for k, delta, nu in [(3, 1, 1), (4, Fraction(1, 2), -2), (7, -3, Fraction(2, 5))]:
            t = TorusMap(1, Fraction(nu), 1 / Fraction(delta))
            assert t.act(binomial_gamma(k, delta, nu)) == tuple(comb(k, i) for i in range(1, k))
