import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from paracr.poly import Grading, Poly, UnsupportedDegreeError
from paracr.surface import (
    InvalidSurfaceError,
    MixedComponentError,
    ModelSurface,
    ParaVectorField,
    ambient_apply,
    ambient_bracket,
    direction_pair,
    tangency_residual,
    weight_of,
)
from paracr.solver import (
    grading_field,
    oblique_translation_field,
    relative_dilation_field,
    solve_algebra,
    special_conformal_field,
    vertical_translation,
)
from conftest import fractions_st, para_field_st, poly_st, random_para_field, random_poly


def P(text):
    return Poly.parse(text)


def _half_field_st():
    # a field with its (a, b) or its (x, y) half zero, scaled by a Fraction
    # so that its coefficients are Fractions
    zero = Poly.zero()
    scale = st.sampled_from([Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9)])
    ab, xy = poly_st(("a", "b"), 3), poly_st(("x", "y"), 3)
    return st.one_of(
        st.builds(lambda p, q, c: ParaVectorField(c * p, c * q, zero, zero), ab, ab, scale),
        st.builds(lambda p, q, c: ParaVectorField(zero, zero, c * p, c * q), xy, xy, scale),
    )


class TestModelSurface:
    def test_p_expansion(self):
        s = ModelSurface(4, (0, 1, 0))
        assert s.p == P("b^2 x^2")
        assert s.defining_poly == P("y - a - b^2 x^2")

    def test_rejects_k2(self):
        with pytest.raises(UnsupportedDegreeError):
            ModelSurface(2, (1,))

    def test_rejects_zero_gamma(self):
        with pytest.raises(InvalidSurfaceError):
            ModelSurface(3, (0, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidSurfaceError):
            ModelSurface(3, (1,))

    @pytest.mark.parametrize("gamma", [(1, 1), (Fraction(1, 2), Fraction(-2, 3))])
    def test_hash_and_equality_are_the_fields(self, gamma):
        s, t = ModelSurface(3, gamma), ModelSurface(3, gamma)
        assert hash(s) == hash(t) == hash((3, s.gamma))
        assert hash(s) == hash(s) and "_hash" in vars(s)
        assert s == t and len({s, t}) == 1
        assert s != ModelSurface(3, (gamma[0], gamma[1] + 1)) and s != ModelSurface(4, gamma + (1,))

    def test_point_lift(self):
        s = ModelSurface(3, (1, 1))
        pt = s.point_from_xab(2, 1, 1)
        assert s.defining_poly.eval_exact(pt) == 0

    @pytest.mark.parametrize("gamma", [(1, 1), (Fraction(1, 2), Fraction(-2, 3))])
    def test_y_power_is_the_cached_power(self, gamma):
        s = ModelSurface(3, gamma)
        on_s = P("a") + s.p
        for j in (5, 0, 3, 1):
            assert s.y_power(j) == on_s**j
        assert s.y_power(3) is s.y_power(3)

    @pytest.mark.parametrize("gamma", [(1, 1), (Fraction(1, 2), Fraction(-2, 3))])
    def test_y_power_p_x_is_the_cached_product(self, gamma):
        s = ModelSurface(3, gamma)
        for j in (5, 0, 3, 1):
            assert s.y_power_p_x(j) == s.y_power(j) * s.p_x
        assert s.y_power_p_x(3) is s.y_power_p_x(3)

    @given(poly_st())
    def test_substitute_y_matches_poly_substitute(self, p):
        s = ModelSurface(4, (2, Fraction(-1, 3), 1))
        assert s.substitute_y(p) == p.substitute({"y": P("a") + s.p})


class TestParaVectorField:
    def test_rejects_mixed_alpha(self):
        with pytest.raises(MixedComponentError):
            ParaVectorField(P("x"), Poly.zero(), Poly.zero(), Poly.zero())

    def test_rejects_mixed_xi(self):
        with pytest.raises(MixedComponentError):
            ParaVectorField(Poly.zero(), Poly.zero(), P("a"), Poly.zero())

    @pytest.mark.parametrize("component", range(4))
    @pytest.mark.parametrize("foreign", ["x", "y", "a", "b"])
    def test_rejects_a_foreign_variable_in_each_component(self, component, foreign):
        # alpha and beta take a and b, xi and eta x and y; a term of the other
        # half's variable, planted among allowed terms, is refused by name
        name, allowed = [("alpha", "ab"), ("beta", "ab"), ("xi", "xy"), ("eta", "xy")][component]
        comps = [P("a b + 2"), P("b^2"), P("x y"), P("y^3 - x")]
        comps[component] = comps[component] + P(f"3 {foreign}^2 {allowed[0]}")
        if foreign in allowed:
            assert getattr(ParaVectorField(*comps), name) == comps[component]
            return
        with pytest.raises(MixedComponentError, match=f"^{name} component"):
            ParaVectorField(*comps)

    def test_apply_kills_defining_translation(self):
        v = vertical_translation()
        assert v.apply(P("y - a")) == Poly.zero()

    def test_apply_euler(self):
        v = ParaVectorField(Poly.zero(), Poly.zero(), P("x"), Poly.zero())
        assert v.apply(P("x^5")) == P("5 x^5")

    def test_apply_grading_scales_defining(self):
        # the dilation scales every weight-3 polynomial by 3
        for gamma in [(1, 1), (2, 0), (0, 5)]:
            s = ModelSurface(3, gamma)
            v = grading_field(3)
            assert v.apply(s.defining_poly) == 3 * s.defining_poly


class TestBracket:
    def test_translation_with_grading(self):
        k = 4
        vmk = vertical_translation()
        v0 = grading_field(k)
        assert vmk.bracket(v0) == k * vmk

    def test_antisymmetry_self(self):
        rng = random.Random(3)
        for _ in range(20):
            v = random_para_field(rng)
            assert v.bracket(v).is_zero

    def test_relative_dilation_with_conformal(self):
        # hand bracket: the two monomial-only generators commute
        assert relative_dilation_field(4, 2).bracket(
            special_conformal_field(4, 2)
        ).is_zero

    @given(para_field_st(), para_field_st())
    def test_closure(self, v, w):
        br = v.bracket(w)  # constructor enforces para-holomorphicity
        assert br.alpha.uses_only(("a", "b"))
        assert br.xi.uses_only(("x", "y"))

    @given(para_field_st(), para_field_st(), para_field_st())
    def test_jacobi(self, u, v, w):
        total = (
            u.bracket(v).bracket(w)
            + v.bracket(w).bracket(u)
            + w.bracket(u).bracket(v)
        )
        assert total.is_zero

    @given(para_field_st(), para_field_st(), poly_st())
    def test_matches_reference_derivation(self, v, w, f):
        assert v.apply(f) == _reference_apply(v, f)
        assert v.bracket(w) == _reference_bracket(v, w)

    @given(st.one_of(_half_field_st(), para_field_st()), _half_field_st())
    def test_half_fields_match_reference_derivation(self, v, w):
        # one half zero and Fraction coefficients: the bracket taken on the two
        # halves agrees with the full four-variable derivation either way round
        assert v.bracket(w) == _reference_bracket(v, w)
        assert w.bracket(v) == _reference_bracket(w, v)

    def test_each_half_is_derived_by_its_own_variables(self):
        # each half carries a planted term in the other half's variables: the
        # bracket on the half is the derivation over the half's own variables
        # only, where a derivative by the other half's would not vanish
        rng = random.Random(40)
        for variables, other in (("xy", ("a", "b")), ("ab", ("x", "y"))):
            for _ in range(40):
                own = tuple(variables)
                v = (random_poly(rng, own), random_poly(rng, own) + _planted(rng, other))
                w = (random_poly(rng, own) + _planted(rng, own + other), random_poly(rng, own))
                def derive(u, f):
                    return _reference_half_apply(u, f, variables)

                want = tuple(derive(v, wi) - derive(w, vi) for vi, wi in zip(v, w))
                assert ambient_bracket(v, w, variables) == want, (variables, v, w)
                assert ambient_apply(v, w[0], variables) == derive(v, w[0])

    def test_suite_brackets_match_reference_derivation(self, suite):
        # every ordered pair of generators of the suite algebras
        brackets = 0
        for s in suite:
            fields = [f for _, f in solve_algebra(s).generators]
            for v in fields:
                for w in fields:
                    assert v.bracket(w) == _reference_bracket(v, w), (s, v, w)
                    brackets += 1
        assert brackets > 100

    @given(st.lists(poly_st(max_terms=3), min_size=4, max_size=4), poly_st(), fractions_st)
    def test_apply_matches_diff_and_multiply(self, v, f, scale):
        v = [scale * c for c in v]
        assert ambient_apply(v, f) == _reference_half_apply(v, f, "xyab")
        # the Hamiltonian field (f_y, -f_x) of f and its swap on (a, b) kill f:
        # every term pair cancels, and the sum is the zero Poly
        g = scale * f
        hamiltonian = (g.diff("y"), -g.diff("x"), g.diff("b"), -g.diff("a"))
        assert ambient_apply(hamiltonian, f) == Poly.zero() == _reference_half_apply(
            hamiltonian, f, "xyab"
        )
        assert ambient_apply(hamiltonian[:2], f, "xy") == _reference_half_apply(
            hamiltonian[:2], f, "xy"
        )

    def test_generators_match_reference_derivation(self):
        fields = [
            vertical_translation(),
            grading_field(5),
            relative_dilation_field(5, 2),
            special_conformal_field(5, 2),
            oblique_translation_field(5, Fraction(2), Fraction(-1, 3)),
        ]
        s = ModelSurface(5, (1, 0, -2, Fraction(1, 3)))
        for v in fields:
            assert v.apply(s.defining_poly) == _reference_apply(v, s.defining_poly)
            for w in fields:
                assert v.bracket(w) == _reference_bracket(v, w)


def _planted(rng, variables):
    # one term with a nonzero exponent of each of ``variables``
    exp = [0, 0, 0, 0]
    for var in variables:
        exp["xyab".index(var)] = rng.randint(1, 3)
    return Poly.monomial(tuple(exp), Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))


def _reference_half_apply(v, f, variables):
    # sum_i v_i df/dx_i over ``variables``, one Poly.diff and product per slot
    total = Poly.zero()
    for coeff, var in zip(v, variables):
        total = total + coeff * f.diff(var)
    return total


def _reference_apply(v, f):
    # ParaVectorField.apply and bracket before both went through
    # ambient_apply and ambient_bracket; kept as the reference
    return (
        v.alpha * f.diff("a")
        + v.beta * f.diff("b")
        + v.xi * f.diff("x")
        + v.eta * f.diff("y")
    )


def _reference_bracket(v, w):
    return ParaVectorField(
        _reference_apply(v, w.alpha) - _reference_apply(w, v.alpha),
        _reference_apply(v, w.beta) - _reference_apply(w, v.beta),
        _reference_apply(v, w.xi) - _reference_apply(w, v.xi),
        _reference_apply(v, w.eta) - _reference_apply(w, v.eta),
    )


class TestWeightOf:
    def test_translation_weight(self):
        assert weight_of(vertical_translation(), Grading(5)) == -5

    def test_grading_weight(self):
        assert weight_of(grading_field(4), Grading(4)) == 0

    def test_mixed(self):
        v = ParaVectorField(P("1"), P("b"), Poly.zero(), Poly.zero())
        assert weight_of(v, Grading(3)) is None

    def test_zero_has_no_weight(self):
        assert weight_of(ParaVectorField.zero(), Grading(3)) is None


class TestTangencyResidual:
    def test_translation_always_tangent(self):
        for k, gamma in [(3, (1, 1)), (4, (0, 1, 0)), (5, (1, 0, 0, 2))]:
            s = ModelSurface(k, gamma)
            assert tangency_residual(vertical_translation(), s) == Poly.zero()

    def test_pure_b_translation(self):
        # eta - alpha - beta P_b - xi P_x by hand for P = b^2 x^2
        s = ModelSurface(4, (0, 1, 0))
        v = ParaVectorField(Poly.zero(), P("1"), Poly.zero(), Poly.zero())
        assert tangency_residual(v, s) == P("-2 b x^2")

    def test_special_conformal_tangent(self):
        s = ModelSurface(4, (0, 1, 0))
        assert tangency_residual(special_conformal_field(4, 2), s) == Poly.zero()

    @given(para_field_st(), para_field_st())
    def test_linearity(self, v, w):
        s = ModelSurface(3, (1, 1))
        c1, c2 = Fraction(3, 2), Fraction(-2, 5)
        lhs = tangency_residual(c1 * v + c2 * w, s)
        rhs = c1 * tangency_residual(v, s) + c2 * tangency_residual(w, s)
        assert lhs == rhs


class TestGradedStructure:
    def test_homogeneous_bracket_weight_adds(self):
        rng = random.Random(9)
        from paracr.solver import build_ansatz

        s = ModelSurface(4, (0, 1, 0))
        g = Grading(s.k)
        for _ in range(60):
            m = rng.randint(-4, 5)
            n = rng.randint(-4, 5)
            va = build_ansatz(s, m)
            wa = build_ansatz(s, n)
            if len(va) == 0 or len(wa) == 0:
                continue
            v = va.field_from_vector([random.Random(rng.random()).randint(-4, 4) for _ in range(len(va))])
            w = wa.field_from_vector([random.Random(rng.random()).randint(-4, 4) for _ in range(len(wa))])
            br = v.bracket(w)
            if br.is_zero:
                continue
            assert weight_of(br, g) == m + n

    def test_homogeneous_residual_weight(self):
        from paracr.solver import build_ansatz

        rng = random.Random(10)
        s = ModelSurface(3, (1, 1))
        g = Grading(s.k)
        for _ in range(60):
            m = rng.randint(-3, 4)
            ans = build_ansatz(s, m)
            if len(ans) == 0:
                continue
            v = ans.field_from_vector([rng.randint(-4, 4) for _ in range(len(ans))])
            res = tangency_residual(v, s)
            if res.is_zero:
                continue
            assert g.weight_of_poly(res) == m + s.k


class TestDirectionPair:
    def test_components_k4(self):
        s = ModelSurface(4, (0, 1, 0))
        pair = direction_pair(s)
        assert pair.y_field[2] == P("-2 b x^2")  # Y = d_b - P_b d_a
        assert pair.x_field[1] == s.p_x

    def test_commutator_k3(self):
        s = ModelSurface(3, (1, 1))
        pair = direction_pair(s)
        comm = pair.commutator()
        assert comm[1] == P("-2x - 2b")
        assert comm[2] == P("-2x - 2b")

    def test_commutator_identity_random(self):
        rng = random.Random(2)
        for _ in range(15):
            k = rng.randint(3, 6)
            gamma = [Fraction(rng.randint(-3, 3)) for _ in range(k - 1)]
            if all(g == 0 for g in gamma):
                gamma[0] = Fraction(1)
            s = ModelSurface(k, tuple(gamma))
            pair = direction_pair(s)  # raises if the identity fails
            comm = pair.commutator()
            assert comm[0].is_zero and comm[3].is_zero
