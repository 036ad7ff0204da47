import random
from fractions import Fraction
from math import factorial

import pytest

from paracr.embedding import (
    EmbeddingError,
    ParaCRFunctionPair,
    induced_Y,
    paracr_residuals,
    solve_embedding,
    truncate_b,
)
from paracr.poly import Poly
from paracr.surface import MixedComponentError, ModelSurface
from conftest import random_poly


def P(text):
    return Poly.parse(text)


class TestSolveEmbedding:
    def test_zero_psi(self):
        series = solve_embedding(Poly.zero(), 6)
        assert series.coeffs[0] == P("a")
        assert all(c.is_zero for c in series.coeffs[1:])

    def test_constant_psi(self):
        series = solve_embedding(P("5"), 6)
        assert series.coeffs[1] == P("-5")
        assert all(c.is_zero for c in series.coeffs[2:])
        assert series.phi_tilde() == P("a - 5b")

    def test_exponential_decay(self):
        n = 8
        series = solve_embedding(P("a"), n)
        for j, c in enumerate(series.coeffs):
            expected = Fraction((-1) ** j, factorial(j)) * P("a")
            assert c == expected

    def test_xb_psi_closed_form(self):
        series = solve_embedding(P("x b"), 8)
        assert series.phi_tilde() == P("a - 1/2 x b^2")

    def test_transport_residual_vanishes(self):
        for text in ("0", "3", "a", "x b", "a^2 + x", "a b + x^2 b^2"):
            series = solve_embedding(P(text), 8)
            assert series.transport_residual().is_zero

    def test_rejects_y(self):
        with pytest.raises(EmbeddingError):
            solve_embedding(P("y"), 4)

    def test_rejects_bad_order(self):
        with pytest.raises(EmbeddingError):
            solve_embedding(P("a"), 0)

    def test_coherence_under_order_increase(self):
        rng = random.Random(8)
        for _ in range(20):
            psi = random_poly(rng, ("x", "a", "b"), max_terms=3, max_exp=2)
            low = solve_embedding(psi, 4)
            high = solve_embedding(psi, 9)
            assert high.coeffs[:5] == low.coeffs

    def test_a_independent_psi_integrates(self):
        # psi = psi(x, b): phi~ = a - integral of psi in b, term by term
        rng = random.Random(9)
        for _ in range(20):
            psi = random_poly(rng, ("x", "b"), max_terms=4, max_exp=3)
            series = solve_embedding(psi, 10)
            integral = Poly.zero()
            for exp, c in psi.items():
                lifted = (exp[0], exp[1], exp[2], exp[3] + 1)
                integral = integral + Poly.monomial(lifted, c * Fraction(1, exp[3] + 1))
            assert series.phi_tilde() == P("a") - truncate_b(integral, 10)


class TestInducedY:
    def test_zero_psi_gives_db(self):
        ind = induced_Y(solve_embedding(Poly.zero(), 6))
        assert ind.numerator.is_zero
        assert ind.denominator == P("1")
        assert ind.psi_residual.is_zero

    def test_constant_psi(self):
        ind = induced_Y(solve_embedding(P("3"), 6))
        assert ind.numerator == P("3")
        assert ind.denominator == P("1")
        assert ind.psi_residual.is_zero

    def test_psi_a_residual_vanishes(self):
        ind = induced_Y(solve_embedding(P("a"), 8))
        assert ind.psi_residual.is_zero

    def test_random_psi_residual_vanishes(self):
        rng = random.Random(10)
        for _ in range(15):
            psi = random_poly(rng, ("x", "a", "b"), max_terms=3, max_exp=2)
            ind = induced_Y(solve_embedding(psi, 7))
            assert ind.psi_residual.is_zero


class TestParaCRFunctions:
    def test_coordinate_pair(self):
        s = ModelSurface(4, (0, 1, 0))
        pair = ParaCRFunctionPair(P("x"), P("a"))
        assert paracr_residuals(pair, s) == (Poly.zero(), Poly.zero())

    def test_y_b_pair(self):
        s = ModelSurface(4, (0, 1, 0))
        pair = ParaCRFunctionPair(P("y"), P("b"))
        assert paracr_residuals(pair, s) == (Poly.zero(), Poly.zero())

    def test_ill_typed_rejected(self):
        with pytest.raises(MixedComponentError):
            ParaCRFunctionPair(P("x"), P("x"))

    def test_two_sided_extension(self):
        pair = ParaCRFunctionPair(P("x^2 y"), P("a - b^3"))
        assert (pair.u, pair.v) == (P("x^2 y"), P("a - b^3"))

    def test_linearity(self):
        rng = random.Random(12)
        s = ModelSurface(3, (1, 1))
        for _ in range(15):
            u1 = random_poly(rng, ("x", "y"), 3, 2)
            u2 = random_poly(rng, ("x", "y"), 3, 2)
            v1 = random_poly(rng, ("a", "b"), 3, 2)
            v2 = random_poly(rng, ("a", "b"), 3, 2)
            c = Fraction(rng.randint(-3, 3))
            p1 = ParaCRFunctionPair(u1 + c * u2, v1 + c * v2)
            xv, yu = paracr_residuals(p1, s)
            xv1, yu1 = paracr_residuals(ParaCRFunctionPair(u1, v1), s)
            xv2, yu2 = paracr_residuals(ParaCRFunctionPair(u2, v2), s)
            assert xv == xv1 + c * xv2
            assert yu == yu1 + c * yu2
