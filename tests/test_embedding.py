import random
from fractions import Fraction
from math import factorial

import pytest

from paracr.embedding import EmbeddingError, solve_embedding, truncate_b
from paracr.linalg import rank
from paracr.poly import A, Poly, X
from conftest import k_ladder_surfaces, random_poly, suite_surfaces


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


class TestModelFrame:
    """The model surface's own frame embeds as the model surface."""

    def test_model_frame_embeds_as_the_model(self):
        # Y = d_b - P_b d_a is psi = -P_b, and phi~ = a + P solves the
        # transport problem: P has b-degree below k and vanishes at b = 0
        for s in suite_surfaces() + k_ladder_surfaces():
            for order in (s.k, s.k + 3):
                assert solve_embedding(-s.p_b, order).phi_tilde() == A + s.p, (s, order)

    def test_kernel_of_y_is_functions_of_x_and_y(self):
        # a polynomial f(x, a, b) with Y f = f_b - P_b f_a = 0 is u(x, a + P):
        # in weighted degree d the kernel has one element per monomial
        # x^i y^j with i + k j = d, and x^i (a + P)^j is that element
        for s in suite_surfaces():
            k = s.k

            def apply_y(f):
                return f.diff("b") - s.p_b * f.diff("a")

            for d in range(3 * k):
                basis = [
                    Poly.monomial((i, 0, j, d - i - k * j))
                    for j in range(d // k + 1)
                    for i in range(d - k * j + 1)
                ]
                images = [apply_y(f) for f in basis]
                targets = sorted({exp for image in images for exp, _ in image.items()})
                rows = [[image.coefficient(t) for image in images] for t in targets]
                kernel_dim = len(basis) - rank(rows, len(basis))
                assert kernel_dim == d // k + 1, (s, d)
                for j in range(d // k + 1):
                    assert apply_y(X ** (d - k * j) * (A + s.p) ** j).is_zero
