import itertools
import random
import time
from fractions import Fraction
from operator import itemgetter
from typing import Dict

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from paracr import poly as poly_mod
from paracr.flows import (
    DEFAULT_FLOW_SAMPLES,
    DEFAULT_SEED,
    EXP_VK,
    EXP_VM1,
    EXP_VMK,
    FlowMap,
    _RadicalFlow,
    admissible_flow_names,
    flow,
    sample_on_surface,
    verification_params,
)
from paracr.normalform import DefiningFunction, NormalFormError, detect_case, finite_type
from paracr.poly import (
    A,
    B,
    Grading,
    Poly,
    PolyParseError,
    UnsupportedDegreeError,
    VARS,
    X,
    Y,
    as_fraction,
)
from paracr.solver import WeightAnsatz, build_ansatz
from paracr.surface import ModelSurface, ParaVectorField
from conftest import (
    binomial_gamma,
    k_ladder_surfaces,
    monomial_gamma,
    poly_st,
    random_poly,
    rational_gamma_surfaces,
    reference_eval_float,
    suite_surfaces,
)


def P(text):
    return Poly.parse(text)


class TestArithmetic:
    def test_add_cancellation(self):
        assert P("x + b") + P("x - b") == P("2x")

    def test_add_identity(self):
        p = P("3 a^2 b - x")
        assert p + Poly.zero() == p

    def test_add_disjoint_supports(self):
        assert P("3 b x^2") + P("3 b^2 x") == P("3 b x^2 + 3 b^2 x")

    def test_mul_difference_of_squares(self):
        assert P("x + b") * P("x - b") == P("x^2 - b^2")

    def test_mul_binomial_cube(self):
        assert P("x + b") ** 3 == P("x^3 + 3 b x^2 + 3 b^2 x + b^3")

    def test_mul_zero_annihilates(self):
        assert 0 * P("x^2 + a b") == Poly.zero()

    def test_scalar_fraction(self):
        assert Fraction(1, 2) * P("2x") == P("x")


def coefficient_types(p):
    return {type(c) for _, c in p.items()}


class TestIntegralCoefficients:
    """An integral coefficient is an int, whichever way it was made."""

    def test_int_and_fraction_give_one_value(self):
        e = (1, 0, 0, 3)
        p, q = Poly({e: 2}), Poly({e: Fraction(2)})
        assert p == q
        assert hash(p) == hash(q)
        assert str(p) == str(q) == "2 b^3 x"
        assert coefficient_types(q) == {int}
        assert p.eval_exact((1, 2, 3, Fraction(1, 2))) == q.eval_exact((1, 2, 3, Fraction(1, 2)))
        assert p.eval_floats([(1.5, 0, 0, 2.0)]) == q.eval_floats([(1.5, 0, 0, 2.0)])

    @pytest.mark.parametrize("s", suite_surfaces() + k_ladder_surfaces(), ids=lambda s: f"k{s.k}")
    def test_integral_products_stay_int(self, s):
        assert all(g.denominator == 1 for g in s.gamma)
        power = (A + s.p) ** 4
        for p in (power, power * s.p_x, power * P("-3 x^2"), power.diff("a") * s.p_b):
            assert coefficient_types(p) == {int}

    def test_integral_results_of_fractions_become_int(self):
        half = P("1/2 x")
        assert coefficient_types(half * P("4 b")) == {int}
        assert coefficient_types(half + half) == {int}
        assert coefficient_types(Fraction(2) * half) == {int}
        assert coefficient_types(P("1/2 x^2").diff("x")) == {int}
        assert coefficient_types(P("3/3 x + 4/2 b")) == {int}
        assert coefficient_types(half * P("b")) == {Fraction}

    def test_product_matches_termwise_fraction_product(self):
        # the product runs at one common denominator per factor; the reference
        # multiplies term by term in Fractions
        rng = random.Random(17)
        for _ in range(300):
            p, q = random_poly(rng), random_poly(rng)
            if rng.random() < 0.3:
                p = p * rng.randint(-6, 6)
            expected: Dict[tuple, Fraction] = {}
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    e = tuple(u + v for u, v in zip(e1, e2))
                    expected[e] = expected.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
            product = p * q
            assert dict(product.items()) == {e: c for e, c in expected.items() if c}
            assert all(type(c) is int or c.denominator != 1 for _, c in product.items())

    def test_absent_coefficient_is_int_zero(self):
        c = P("1/2 x").coefficient((0, 0, 0, 1))
        assert c == 0 and type(c) is int


class TestDiff:
    def test_diff_x(self):
        assert P("b^2 x^2").diff("x") == P("2 b^2 x")

    def test_diff_b_then_x(self):
        # hand differentiation of P_xb for k=4, gamma=(0,1,0)
        assert P("b^2 x^2").diff("b").diff("x") == P("4 b x")

    def test_diff_constant(self):
        assert P("7").diff("x") == Poly.zero()


class TestSubstitute:
    def test_substitute_y_definition(self):
        repl = A + P("b^2 x^2")
        assert Y.substitute({"y": repl}) == P("a + b^2 x^2")

    def test_substitute_y_square(self):
        repl = A + P("b^2 x^2")
        assert (Y**2).substitute({"y": repl}) == P("a^2 + 2 a b^2 x^2 + b^4 x^4")

    def test_substitute_y_free(self):
        repl = A + P("b^2 x^2")
        assert X.substitute({"y": repl}) == X

    def test_substitute_high_power(self):
        # powers of the replacement are built in a loop, not by recursion
        result = P("a^1500").substitute({"a": P("b")})
        assert result == P("b^1500")

    def test_substitution_is_simultaneous(self):
        # each replacement is read in the original variables; one variable
        # at a time, x -> b and then b -> x would give x^2
        swap = {"x": B, "b": X}
        assert (X * B).substitute(swap) == X * B
        assert (X**3 * B - A).substitute(swap) == X * B**3 - A
        assert (X * B).substitute({"x": B}).substitute({"b": X}) == X**2

    def test_composes_binomial_flows(self):
        # EXP_Vm1 at u after EXP_Vm1 at t is EXP_Vm1 at t + u, on a binomial
        # surface with delta = 2, nu = 3; replacing y before x would also
        # move the x inside y's replacement, so one at a time it fails
        s = ModelSurface(5, binomial_gamma(5, 2, 3))
        t, u = Fraction(1, 10), Fraction(-2, 7)
        phi = dict(zip(VARS, flow(EXP_VM1, s, t).components))
        partner = flow(EXP_VM1, s, u).components
        assert tuple(c.substitute(phi) for c in partner) == flow(EXP_VM1, s, t + u).components
        y_then_x = partner[1].substitute({"y": phi["y"]}).substitute({"x": phi["x"]})
        assert y_then_x != flow(EXP_VM1, s, t + u).components[1]


def reference_substitute(p, replacements):
    # Poly.substitute as it was before its power lists were kept as ints over
    # a common denominator: each replaced variable's powers as Polys, and
    # each term's image as their Poly product
    slots = [(VARS.index(name), r, [r]) for name, r in replacements.items()]
    total = Poly.zero()
    for exp, c in p.items():
        rest = list(exp)
        image = Poly.constant(c)
        for i, r, powers in slots:
            e, rest[i] = rest[i], 0
            if e:
                while len(powers) < e:
                    powers.append(powers[-1] * r)
                image = image * powers[e - 1]
        total = total + image * Poly.monomial(tuple(rest))
    return total


def _recorded_substitutions(monkeypatch, run):
    # every (poly, replacements, result) Poly.substitute returns while run() runs
    calls = []
    substitute = Poly.substitute

    def spy(p, replacements):
        result = substitute(p, replacements)
        calls.append((p, dict(replacements), result))
        return result

    monkeypatch.setattr(Poly, "substitute", spy)
    run()
    monkeypatch.undo()
    return calls


def _assert_reference_expansions(calls):
    for p, replacements, result in calls:
        assert result == reference_substitute(p, replacements), (p, replacements)
        assert all(type(c) is int or c.denominator != 1 for _, c in result.items())


class TestSubstituteAgainstPolyPowers:
    """The int power lists over a common denominator expand as the Poly powers did."""

    def test_finite_type_elimination_steps(self, monkeypatch):
        # a^2 + b^2 or b^3, plus up to four terms with Fraction coefficients:
        # each pure-b elimination step substitutes a -> a - g
        rng = random.Random(40)
        phis = []
        for _ in range(60):
            phi = P(rng.choice(["a^2 + b^2", "a^2 + b^3", "x b^2 + a^2"]))
            for _ in range(rng.randint(1, 4)):
                exp = (rng.randint(0, 3), 0, rng.randint(0, 3), rng.randint(0, 4))
                if sum(exp) >= 2:
                    phi = phi + Poly.monomial(exp, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            phis.append(phi)

        def run():
            for phi in phis:
                try:
                    finite_type(DefiningFunction(phi))
                except NormalFormError:
                    pass

        calls = _recorded_substitutions(monkeypatch, run)
        assert len(calls) > 60 and any(
            Fraction in coefficient_types(r) for _, repl, _ in calls for r in repl.values()
        )
        _assert_reference_expansions(calls)

    def test_flow_identities(self, monkeypatch):
        # each flow's surface preservation and group-law compositions, on the
        # suite, the k ladder and the rational-gamma surfaces
        surfaces = suite_surfaces() + k_ladder_surfaces() + rational_gamma_surfaces()

        def run():
            for s in surfaces:
                for name in admissible_flow_names(detect_case(s)):
                    param, partner = verification_params(name)
                    fm = flow(name, s, param)
                    if fm.is_polynomial:
                        phi = dict(zip(VARS, fm.components))
                        s.defining_poly.substitute(phi)
                        for c in fm.with_param(partner).components:
                            c.substitute(phi)

        calls = _recorded_substitutions(monkeypatch, run)
        assert len(calls) > 200
        _assert_reference_expansions(calls)

    def test_seeded_polynomials(self):
        rng = random.Random(41)
        for _ in range(200):
            names = rng.sample(VARS, rng.randint(0, 4))
            replacements = {name: random_poly(rng, max_terms=3) for name in names}
            p = random_poly(rng, max_terms=5, max_exp=4)
            assert p.substitute(replacements) == reference_substitute(p, replacements)


def reference_uses_only(p, allowed):
    # Poly.uses_only before it went through poly.mentions: each term's
    # exponents of the banned variables, read by one itemgetter
    allowed_idx = {VARS.index(v) for v in allowed}
    banned = [i for i in range(4) if i not in allowed_idx]
    if not banned:
        return True
    zero = 0 if len(banned) == 1 else (0,) * len(banned)
    return all(e == zero for e in map(itemgetter(*banned), (exp for exp, _ in p.items())))


class TestUsesOnly:
    def test_agrees_with_the_itemgetter_rule(self):
        # seeded exponent sets, many with zeros in some slots, and the empty Poly
        rng = random.Random(42)
        polys = [Poly.zero()]
        for _ in range(300):
            zero_slots = rng.sample(range(4), rng.randint(0, 4))
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exp = [0 if i in zero_slots else rng.randint(0, 2) for i in range(4)]
                terms[tuple(exp)] = rng.randint(1, 3)
            polys.append(Poly(terms))
        subsets = [c for n in range(5) for c in itertools.combinations(VARS, n)]
        for p in polys:
            for allowed in subsets:
                assert p.uses_only(allowed) == reference_uses_only(p, allowed), (p, allowed)
                banned = [v for v in VARS if v not in allowed]
                assert poly_mod.mentions(banned, p) == (not reference_uses_only(p, allowed))
        # one pass over several polys is the rule on each
        for p, q in zip(polys, polys[1:]):
            for allowed in subsets:
                banned = [v for v in VARS if v not in allowed]
                expected = not (reference_uses_only(p, allowed) and reference_uses_only(q, allowed))
                assert poly_mod.mentions(banned, p, q) == expected


class TestEval:
    def test_eval_exact(self):
        assert P("x^2 - b^2").eval_exact((2, 0, 0, 1)) == 3

    def test_eval_on_surface_identity(self):
        surface = P("y - a - b^2 x^2")
        x, a, b = Fraction(3, 2), Fraction(-1, 3), Fraction(2)
        y = a + Fraction(b**2 * x**2)
        assert surface.eval_exact((x, y, a, b)) == 0

    def test_eval_float_matches_exact(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_poly(rng)
            point = tuple(rng.randint(-3, 3) for _ in range(4))
            exact = float(p.eval_exact(point))
            approx = p.eval_floats([point])[0]
            assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


def reference_eval_exact(p, point):
    """``Poly.eval_exact`` as it was before it ran over integers: sparse
    Horner over ``Fraction``, kept verbatim as the reference."""
    if not p:
        return Fraction(0)
    pt = tuple(as_fraction(v) for v in point)
    return _reference_horner(list(p.items()), pt, 0, as_fraction)


def _reference_horner(items, point, vi, numeric):
    # sparse Horner: expand one variable at a time
    if vi == 4:
        total = numeric(0)
        for _, c in items:
            total += numeric(c)
        return total
    buckets: Dict[int, list] = {}
    for exp, c in items:
        buckets.setdefault(exp[vi], []).append((exp, c))
    v = point[vi]
    acc = None
    prev = 0
    for e in sorted(buckets, reverse=True):
        sub = _reference_horner(buckets[e], point, vi + 1, numeric)
        if acc is None:
            acc = sub
        else:
            acc = acc * v ** (prev - e) + sub
        prev = e
    return acc * v**prev


def _report_evaluations():
    """(polynomial, exact point) pairs that flow verification evaluates on
    the suite, rational-gamma and k-ladder surfaces at the report samples:
    flow components, their Jacobian entries, p_x, p_b and the defining
    polynomial, at the samples and at the images.  Also returns how many
    (polynomial flow, sample) pairs were visited."""
    pairs = []
    visited = 0
    for s in suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces():
        samples = sample_on_surface(s, DEFAULT_FLOW_SAMPLES, seed=DEFAULT_SEED)
        for point in samples:
            pairs += [(s.defining_poly, point), (s.p_x, point), (s.p_b, point)]
        for name in admissible_flow_names(detect_case(s)):
            param, partner = verification_params(name)
            fm = flow(name, s, param)
            if not fm.is_polynomial:
                continue
            partner = fm.with_param(partner)
            comps = fm.components
            jacobian = [comps[i].diff(v) for i in (0, 1) for v in "xy"]
            jacobian += [comps[i].diff(v) for i in (2, 3) for v in "ab"]
            for point in samples:
                image = tuple(reference_eval_exact(c, point) for c in comps)
                pairs += [(c, point) for c in comps + tuple(jacobian)]
                pairs += [(c, image) for c in partner.components + (s.defining_poly, s.p_x, s.p_b)]
                visited += 1
    return pairs, visited


def _big_fraction(rng):
    # 30-digit numerator and denominator, either sign
    num = rng.randint(10**29, 10**30 - 1) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(10**29, 10**30 - 1))


def _coordinate(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return Fraction(-rng.randint(1, 9), rng.randint(1, 7))
    if kind == 2:
        return rng.randint(-5, 5)
    if kind == 3:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"
    if kind == 4:
        return _big_fraction(rng)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


class TestEvalExact:
    def _check(self, p, point):
        got = p.eval_exact(point)
        assert type(got) is Fraction
        assert got == reference_eval_exact(p, point), (p, point)

    def test_random_polys_match_reference(self):
        rng = random.Random(8)
        for _ in range(300):
            p = random_poly(rng, max_terms=6, max_exp=5)
            if rng.random() < 0.3:
                p = p + Poly({(rng.randint(0, 3), 0, rng.randint(0, 3), 1): _big_fraction(rng)})
            self._check(p, tuple(_coordinate(rng) for _ in range(4)))

    def test_zero_and_constants(self):
        for point in [(0, 0, 0, 0), (Fraction(-2, 3), "5/7", 4, 0)]:
            assert Poly.zero().eval_exact(point) == 0
            for c in [Fraction(1), Fraction(-7, 3), Fraction(10**30 + 1, 10**30 - 1)]:
                self._check(Poly.constant(c), point)
                assert Poly.constant(c).eval_exact(point) == c

    def test_zero_coordinates(self):
        p = P("x^3 - 2/3 a^2 b + 5 y + 7/2")
        self._check(p, (0, 0, 0, 0))
        self._check(p, (0, Fraction(1, 3), 0, -2))

    def test_flow_components_and_surfaces_match_reference(self):
        pairs, visited = _report_evaluations()
        for p, point in pairs:
            self._check(p, point)
        assert visited == 20 * 74  # the 74 polynomial flows of the 27 surfaces

    def test_builds_one_fraction(self, monkeypatch):
        built = []
        fraction_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return fraction_new(cls, *args, **kwargs)

        p = P("3/4 x^5 b - 2/9 a^2 y + 7/5 x b^3 - 1")
        point = (Fraction(-3, 7), Fraction(5, 11), 2, Fraction(10**30 + 7, 3**60))
        monkeypatch.setattr(Fraction, "__new__", counting_new)
        value = p.eval_exact(point)
        monkeypatch.undo()
        assert len(built) == 1
        assert value == reference_eval_exact(p, point)

    def test_sparse_high_power_is_fast(self):
        # x^100000 + 1: a dense power table up to the degree does not fit the budget
        p = P("x^100000 + 1")
        start = time.perf_counter()
        value = p.eval_exact((Fraction(1, 3), 0, 0, 0))
        assert time.perf_counter() - start < 0.25
        assert value == Fraction(3**100000 + 1, 3**100000)

    def test_float_coordinate_is_a_type_error(self):
        p = P("x^2 - 3/2 b")
        for point in [(1, 0, 0, 2.0), (1, 0.5, 0, 2), (1.0, 0, 0, 2)]:  # y is unused
            for _ in range(2):
                with pytest.raises(TypeError):
                    p.eval_exact(point)
            assert p.eval_exact((1, 0, 0, 2)) == -2


def _float_point(point):
    return tuple(float(as_fraction(v)) for v in point)


class TestEvalFloat:
    def _check(self, p, point):
        got = p.eval_floats([point])[0]
        assert type(got) is float
        assert got.hex() == reference_eval_float(p, point).hex(), (p, point)

    def test_random_polys_match_reference(self):
        rng = random.Random(8)
        for _ in range(300):
            p = random_poly(rng, max_terms=6, max_exp=5)
            if rng.random() < 0.3:
                p = p + Poly({(rng.randint(0, 3), 0, rng.randint(0, 3), 1): _big_fraction(rng)})
            point = _float_point(tuple(_coordinate(rng) for _ in range(4)))
            self._check(p, point)
            self._check(p, point)  # the second call walks the stored tree

    def test_flow_components_and_surfaces_match_reference(self):
        pairs, visited = _report_evaluations()
        assert visited == 20 * 74
        for p, point in pairs:
            self._check(p, _float_point(point))
            self._check(p, point)

    def test_coefficient_that_underflows_to_negative_zero(self):
        # the reference adds each leaf to 0.0, which turns -0.0 into 0.0
        p = Poly({(1, 0, 0, 0): Fraction(-1, 10**400), (0, 0, 0, 1): 1})
        for point in [(1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0), (2.0, 1.0, 1.0, -0.0)]:
            self._check(p, point)

    def test_coefficient_too_large_overflows_at_every_call(self):
        p = Poly({(1, 0, 0, 0): Fraction(10**400, 3), (0, 0, 0, 1): 1})
        for _ in range(2):
            with pytest.raises(OverflowError):
                p.eval_floats([(1.0, 0.0, 0.0, 2.0)])
        assert p.eval_exact((1, 0, 0, 2)) == Fraction(10**400, 3) + 2
        with pytest.raises(OverflowError):
            p.eval_floats([(1.0, 0.0, 0.0, 2.0)])


# coordinates where a float step is most likely to differ: signed zeros,
# subnormals, the smallest normal float, and powers that overflow
_EDGE_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e154, -1e200)
# terms added to a polynomial: none, a coefficient too large for a float,
# and one that underflows to -0.0
_EXTREME_TERMS = (None, Fraction(10**400, 3), Fraction(-1, 10**400))
_coordinate_st = st.one_of(
    st.sampled_from(_EDGE_COORDINATES),
    st.floats(-8, 8),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestEvalFloats:
    @given(
        poly_st(max_terms=6),
        st.lists(st.tuples(*[_coordinate_st] * 4), min_size=1, max_size=6),
        st.sampled_from(_EXTREME_TERMS),
        st.sampled_from([(1, 0, 0, 0), (0, 2, 0, 1), (0, 0, 0, 0)]),
    )
    # no point, no float step: a coefficient too large for a float raises nothing
    @example(P("x^2 - 3/2 b"), [], _EXTREME_TERMS[1], (1, 0, 0, 0))
    def test_batch_matches_reference_bit_for_bit(self, p, points, extreme, exp):
        if extreme is not None:
            p = p + Poly({exp: extreme})
        want = []  # per point: the reference value's hex, or None where it overflows
        for point in points:
            try:
                want.append(reference_eval_float(p, point).hex())
            except OverflowError:
                want.append(None)
                with pytest.raises(OverflowError):
                    p.eval_floats([point])
        if None in want:
            with pytest.raises(OverflowError):
                p.eval_floats(points)
        else:
            got = p.eval_floats(points)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == want, (p, points)


class TestFloatColumns:
    def test_column_entry_point_matches_bit_for_bit(self):
        # seeded point lists, the empty one included: eval_floats and
        # eval_columns over float_columns give the same floats, or both raise
        rng = random.Random(3913)
        coordinates = (0.0, -0.0, 5e-324, 1e-310, 1e150, -1e200, 2.5)
        outcomes = set()
        for trial in range(300):
            p = random_poly(rng, max_terms=6, max_exp=4)
            points = [
                tuple(rng.choice(coordinates) if rng.random() < 0.2 else rng.uniform(-4, 4)
                      for _ in range(4))
                for _ in range(trial % 7)
            ]
            try:
                want = [v.hex() for v in p.eval_floats(points)]
            except OverflowError:
                with pytest.raises(OverflowError):
                    p.eval_columns(poly_mod.float_columns(points))
                outcomes.add("overflow")
                continue
            got = p.eval_columns(poly_mod.float_columns(points))
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == want, (p, points)
            outcomes.add(len(points) > 0)
        assert outcomes == {"overflow", True, False}
        assert P("x - b").eval_floats([]) == [] == P("x - b").eval_columns([[], [], [], []])

    def test_overflow_at_one_point_falls_back_to_one_point_at_a_time(self):
        from paracr.flows import _finite_rows

        p = P("x^2 + b")
        points = [(1.0, 0.0, 0.0, 2.0), (1.5e308, 0.0, 0.0, 1.0), (3.0, 0.0, 0.0, 1.0)]
        with pytest.raises(OverflowError):
            p.eval_floats(points)
        with pytest.raises(OverflowError):
            p.eval_columns(poly_mod.float_columns(points))
        rows = _finite_rows(
            lambda pts: [(v,) for v in p.eval_columns(poly_mod.float_columns(pts))], points
        )
        assert rows == [(3.0,), None, (10.0,)]


class TestEvaluationPlan:
    def test_built_once_per_polynomial(self, monkeypatch):
        built = []
        horner_tree = poly_mod._horner_tree

        def counting_horner_tree(items, vi):
            if vi == 0:  # the root call; the tree recurses with vi > 0
                built.append(items)
            return horner_tree(items, vi)

        monkeypatch.setattr(poly_mod, "_horner_tree", counting_horner_tree)
        p, q = P("3/4 x^5 b - 2/9 a^2 y + 1"), P("x - b")
        p.eval_exact((1, 2, 3, 4))
        assert built == [] and p._tree is None  # eval_exact caches nothing
        for i in range(5):
            point = (Fraction(i, 3), 2, Fraction(-1, 7), i)
            p.eval_exact(point)
            p.eval_floats([point])
            q.eval_floats([point, point])
            q.eval_exact(point)
        assert built == [list(p.items()), list(q.items())]
        assert p._tree is not None and q._tree is not None

    def test_equality_and_hash_ignore_the_plan(self):
        p, q = P("x^2 b - 5/3 a y + 2"), P("x^2 b - 5/3 a y + 2")
        before = hash(p)
        p.eval_exact((1, 2, 3, 4))
        p.eval_floats([(1.0, 2.0, 3.0, 4.0)])
        assert p == q and q == p
        assert hash(p) == before == hash(q)
        assert p != P("x^2 b - 5/3 a y + 3")
        assert {p: 1}[q] == 1

    def test_stays_immutable(self):
        p = P("x + b")
        p.eval_floats([(1.0, 0.0, 0.0, 1.0)])
        with pytest.raises(AttributeError):
            p._tree = None


class TestGrading:
    def test_rejects_low_degree(self):
        with pytest.raises(UnsupportedDegreeError):
            Grading(2)


_MONOMIAL_K4 = ModelSurface(4, monomial_gamma(4, 1))

# (class, a builder of one record, whether the class has __slots__ all the way down)
_RECORDS = [
    (Grading, lambda: Grading(5), True),
    (ModelSurface, lambda: ModelSurface(4, (1, 0, Fraction(2, 3))), False),
    (ParaVectorField, lambda: ParaVectorField(P("a^2"), P("b"), P("x y"), P("y")), False),
    (WeightAnsatz, lambda: build_ansatz(_MONOMIAL_K4, 1), True),
    (DefiningFunction, lambda: DefiningFunction(P("b^3 x + a^2")), True),
    (FlowMap, lambda: flow(EXP_VMK, _MONOMIAL_K4, 2), False),
    (_RadicalFlow, lambda: flow(EXP_VK, _MONOMIAL_K4, Fraction(1, 3)), False),
]


def _destructure(record):
    match record:
        case Grading(k):
            return (k,)
        case ModelSurface(k, gamma):
            return (k, gamma)
        case ParaVectorField(alpha, beta, xi, eta):
            return (alpha, beta, xi, eta)
        case WeightAnsatz(surface, weight, unknowns):
            return (surface, weight, unknowns)
        case DefiningFunction(phi):
            return (phi,)
        case FlowMap(name, surface, detection, param, components):
            return (name, surface, detection, param, components)


class TestRecord:
    """The immutable value classes share ``poly.Record``: equal, hashed and
    printed by the fields named in ``__match_args__``."""

    @pytest.mark.parametrize(
        "cls, build, slotted", _RECORDS, ids=[c.__qualname__ for c, _, _ in _RECORDS]
    )
    def test_value_semantics(self, cls, build, slotted):
        r, twin = build(), build()
        assert type(r) is cls and r is not twin
        names = cls.__match_args__
        fields = tuple(getattr(r, n) for n in names)
        assert r == twin and not r != twin
        assert hash(r) == hash(twin) == hash(fields)
        assert cls(*fields) == r
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, fields))
        assert repr(r) == f"{cls.__qualname__}({shown})"
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(r, names[0], fields[0])
        with pytest.raises(AttributeError):
            r.extra = 1
        assert hasattr(r, "__dict__") is not slotted
        assert _destructure(r) == fields
        with pytest.raises(TypeError):
            cls(*fields[:-1])
        with pytest.raises(TypeError):
            cls(*fields, None)

    def test_reprs(self):
        assert repr(Grading(5)) == "Grading(k=5)"
        assert repr(DefiningFunction(P("x b^3"))) == "DefiningFunction(phi=Poly('b^3 x'))"

    def test_class_strict(self):
        radical = flow(EXP_VK, _MONOMIAL_K4, 1)
        plain = FlowMap(*_destructure(radical))
        assert plain != radical and radical != plain
        assert hash(plain) == hash(radical)
        assert ModelSurface(3, (1, 1)) != (3, (1, 1))
        assert Grading(4) != 4


class TestTextRoundTrip:
    def test_canonical_example(self):
        assert P("3b x^2 + 3/1 b^2 x").to_text() == "3 b x^2 + 3 b^2 x"

    def test_zero(self):
        assert Poly.zero().to_text() == "0"
        assert P("x - x") == Poly.zero()

    def test_negative_leading(self):
        assert P("-x + b").to_text() == "-x + b"

    def test_fraction_coefficients(self):
        assert P("1/2 a b - 3/4").to_text() == "-3/4 + 1/2 a b"

    def test_star_and_caret(self):
        assert P("3*b*x^2") == P("3 b x^2")

    def test_repeated_variable_multiplies(self):
        assert P("x x") == P("x^2")

    def test_parse_error_position(self):
        with pytest.raises(PolyParseError) as err:
            P("3 + z")
        assert err.value.position == 4

    def test_parse_error_dangling(self):
        with pytest.raises(PolyParseError):
            P("3 +")

    def test_parse_error_empty(self):
        with pytest.raises(PolyParseError):
            P("")

    @pytest.mark.parametrize(
        "text, position",
        [("9" * 5000 + " x", 0), ("x^" + "9" * 5000, 2), ("x + 1/" + "3" * 5000, 6)],
        ids=["coefficient", "exponent", "denominator"],
    )
    def test_parse_error_integer_over_digit_limit(self, text, position):
        with pytest.raises(PolyParseError) as err:
            P(text)
        assert err.value.position == position

    @given(poly_st())
    def test_round_trip(self, p):
        assert Poly.parse(p.to_text()) == p


class TestRingAxioms:
    @given(poly_st(), poly_st(), poly_st())
    def test_associativity_distributivity(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(poly_st(), poly_st())
    def test_leibniz(self, p, q):
        for v in ("x", "y", "a", "b"):
            assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

    @given(poly_st(), poly_st())
    def test_substitution_is_ring_hom(self, p, q):
        repl = A + P("b x^2 + b^2 x")
        sub = {"y": repl}
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
