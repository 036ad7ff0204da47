import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from paracr import surface as surface_mod
from paracr.poly import Grading, Poly, UnsupportedDegreeError
from paracr.surface import (
    InvalidSurfaceError,
    MixedComponentError,
    ModelSurface,
    ParaVectorField,
    direction_pair,
    tangency_residual,
    weight_of,
)
from paracr.solver import (
    grading_field,
    oblique_translation_field,
    relative_dilation_field,
    special_conformal_field,
    vertical_translation,
)
from conftest import para_field_st, poly_st, random_para_field


def P(text):
    return Poly.parse(text)


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

    def test_point_lift(self):
        s = ModelSurface(3, (1, 1))
        pt = s.point_from_xab(2, 1, 1)
        assert s.contains(pt)

    @pytest.mark.parametrize("gamma", [(1, 1), (Fraction(1, 2), Fraction(-2, 3))])
    def test_y_power_is_the_cached_power(self, gamma):
        s = ModelSurface(3, gamma)
        on_s = P("a") + s.p
        for j in (5, 0, 3, 1):
            assert s.y_power(j) == on_s**j
        assert s.y_power(3) is s.y_power(3)

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


def _reference_velocity(v, point):
    # the term-by-term power product, summed in Poly.items() order
    x, y, a, b = point
    out = []
    for comp in (v.xi, v.eta, v.alpha, v.beta):
        total = 0.0
        for (ex, ey, ea, eb), c in comp.items():
            total += float(c) * x**ex * y**ey * a**ea * b**eb
        out.append(total)
    return tuple(out)


class TestFloatVelocity:
    FIELDS = [
        ParaVectorField.zero(),
        vertical_translation(),
        grading_field(4),
        oblique_translation_field(4, Fraction(1, 2), Fraction(2, 3)),
        grading_field(5) + special_conformal_field(5, 2) + Fraction(-3, 7) * vertical_translation(),
    ]
    POINTS = [
        (0.0, 0.0, 0.0, 0.0),
        (1.0, -2.0, 0.5, 3.0),
        (-0.7, 1.3, -2.25, -1.1),
        (1e10, -3e-5, 7.0, 1e-3),
    ]

    def test_matches_reference_exactly(self):
        for v in self.FIELDS:
            velocity = v.float_velocity()
            for pt in self.POINTS:
                assert velocity(pt) == _reference_velocity(v, pt)
                assert v.velocity_float(pt) == velocity(pt)

    def test_matches_eval_float(self):
        for v in self.FIELDS:
            velocity = v.float_velocity()
            for pt in self.POINTS:
                expected = [c.eval_float(pt) for c in (v.xi, v.eta, v.alpha, v.beta)]
                for got, want in zip(velocity(pt), expected):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_zero_field(self):
        assert ParaVectorField.zero().float_velocity()((1.0, 2.0, 3.0, 4.0)) == (0.0,) * 4

    def test_tiny_coefficients_round_trip(self):
        # 1/10^320 is subnormal; -1/10^400 underflows to -0.0
        tiny = Fraction(1, 10**320)
        assert 0.0 < float(tiny) < sys.float_info.min
        v = ParaVectorField(
            Poly({(0, 0, 0, 0): Fraction(-1, 10**400)}),
            Poly.zero(),
            Poly({(0, 0, 0, 0): tiny, (1, 0, 0, 0): tiny}),
            Poly({(0, 2, 0, 0): -tiny}),
        )
        velocity = v.float_velocity()
        assert velocity((0.0, 0.0, 0.0, 0.0))[0] == float(tiny)
        for pt in self.POINTS:
            got = [c.hex() for c in velocity(pt)]
            assert got == [c.hex() for c in _reference_velocity(v, pt)]

    def test_coefficient_too_large_for_a_float_raises(self):
        v = ParaVectorField(
            Poly.zero(), Poly.zero(), Poly({(1, 0, 0, 0): Fraction(10**400, 3)}), Poly.zero()
        )
        with pytest.raises(OverflowError):
            v.float_velocity()
        with pytest.raises(OverflowError):
            v.velocity_float((1, 0, 0, 0))

    def test_compiled_once_per_field(self, monkeypatch):
        compiled = []

        def counting_compile(*args):
            compiled.append(args)
            return compile(*args)

        monkeypatch.setattr(surface_mod, "compile", counting_compile, raising=False)
        v = grading_field(5) + special_conformal_field(5, 2)
        velocity = v.float_velocity()
        assert v.float_velocity() is velocity
        v.velocity_float((1, 2, 3, 4))
        assert len(compiled) == 1
        # an equal field built apart compiles its own function
        w = grading_field(5) + special_conformal_field(5, 2)
        assert w == v and w.float_velocity() is not velocity
        assert len(compiled) == 2

    def test_velocity_float_takes_rationals(self):
        v = oblique_translation_field(4, Fraction(1, 2), Fraction(2, 3))
        pt = (Fraction(1, 3), Fraction(2), Fraction(-1, 2), Fraction(5, 4))
        assert v.velocity_float(pt) == v.float_velocity()(tuple(float(c) for c in pt))


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
        g = s.grading()
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
        g = s.grading()
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
