import random
import time
from fractions import Fraction

import numpy as np
import pytest

from paracr import normalform, sturm
from paracr.normalform import (
    BINOMIAL,
    GENERIC,
    LINE,
    MONOMIAL,
    PENCIL,
    POINT,
    CaseDetection,
    DefiningFunction,
    NormalFormError,
    detect_case,
    finite_type,
    normalize_binomial,
    singular_locus,
)
from paracr.poly import Poly
from paracr.surface import ModelSurface
from conftest import binomial_gamma, monomial_gamma


def P(text):
    return Poly.parse(text)


class TestDefiningFunction:
    def test_rejects_y(self):
        with pytest.raises(NormalFormError):
            DefiningFunction(P("y"))

    def test_rejects_constant(self):
        with pytest.raises(NormalFormError):
            DefiningFunction(P("1 + b"))

    def test_rejects_linear_a(self):
        with pytest.raises(NormalFormError):
            DefiningFunction(P("a + b x"))


class TestFiniteType:
    def test_model_monomial(self):
        res = finite_type(DefiningFunction(P("b^2 x^2")))
        assert res.is_finite and res.k == 4
        assert res.gamma == (Fraction(0), Fraction(1), Fraction(0))

    def test_a_divisible_is_infinite(self):
        assert finite_type(DefiningFunction(P("a b"))).kind == "INFINITE"

    def test_pure_term_removal(self):
        res = finite_type(DefiningFunction(P("x^3 + b x^2")))
        assert res.is_finite and res.k == 3
        assert res.gamma == (Fraction(1), Fraction(0))
        assert res.normalized == P("b x^2")

    def test_no_x_dependence_is_infinite(self):
        assert finite_type(DefiningFunction(P("b^2 + a^2 b"))).kind == "INFINITE"

    def test_cancellation_to_infinite(self):
        # y = a(1 + x) + b^2 (1 + x) straightens to an a-divisible graph
        res = finite_type(DefiningFunction(P("a x + b^2 x + b^2")))
        assert res.kind == "INFINITE"

    def test_hidden_mixed_term(self):
        # substitution a -> a - b^2 creates the decisive mixed term
        res = finite_type(DefiningFunction(P("b^2 + a b x")))
        assert res.is_finite
        assert res.k == 4
        assert res.gamma == (Fraction(0), Fraction(0), Fraction(-1))

    def test_type_two(self):
        res = finite_type(DefiningFunction(P("b x")))
        assert res.is_finite and res.k == 2

    def test_idempotent_after_normalization(self):
        rng = random.Random(77)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exp = (rng.randint(0, 2), 0, rng.randint(0, 2), rng.randint(0, 2))
                terms[exp] = Fraction(rng.randint(-3, 3))
            terms.pop((0, 0, 0, 0), None)
            terms.pop((0, 0, 1, 0), None)
            phi = Poly(terms)
            first = finite_type(DefiningFunction(phi))
            if not first.is_finite:
                continue
            again = finite_type(DefiningFunction(first.normalized))
            assert again.is_finite
            assert (again.k, again.gamma) == (first.k, first.gamma)
            assert again.normalized == first.normalized

    @pytest.mark.parametrize(
        "text", ["x^5 b^5 + a^5 b + b^2 + a^2", "x^9 b^9 + a^5 b + b^2 + a^2"]
    )
    def test_elimination_stops_at_term_bound(self, text):
        # both reach 680 terms at step 3; unbounded, the first took 12.7 s and
        # the second did not finish in 40 s
        t0 = time.perf_counter()
        with pytest.raises(NormalFormError, match="MAX_ELIMINATION_TERMS"):
            finite_type(DefiningFunction(P(text)))
        assert time.perf_counter() - t0 < 2.0


    def test_oversized_step_refused_before_expanding(self):
        # p has 104 terms, under MAX_ELIMINATION_TERMS, but the step multiplies
        # out 171,711 terms; unbounded it took 8 s
        t0 = time.perf_counter()
        with pytest.raises(NormalFormError, match="MAX_STEP_TERMS"):
            finite_type(DefiningFunction(P("x^99 b^99 + a^99 b + b^2 + a^2")))
        assert time.perf_counter() - t0 < 1.0

    def test_step_terms_bound_the_expansion(self):
        # the count is the number of terms before like terms merge, so the
        # substituted polynomial never has more
        rng = random.Random(7)
        for _ in range(200):
            terms = {
                (rng.randint(0, 3), 0, rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-3, 3)
                for _ in range(rng.randint(1, 5))
            }
            p = Poly(terms)
            g = Poly({(0, 0, 0, rng.randint(1, 6)): rng.randint(1, 3) for _ in range(3)})
            expanded = p.substitute({"a": Poly.variable("a") - g})
            assert len(expanded) <= normalform._step_terms(p, g)

    def test_step_digits_bound_the_expansion(self):
        # each term c (a - g)^e of the step, counted by its numerator or
        # denominator, whichever has more digits, fits in the count
        rng = random.Random(11)

        def digits(q):
            return max(len(str(abs(q.numerator))), len(str(q.denominator)))

        for _ in range(200):
            p = Poly({
                (rng.randint(0, 3), 0, rng.randint(0, 5), rng.randint(0, 5)): Fraction(
                    rng.randint(-10**rng.randint(1, 30), 10**30), rng.randint(1, 10**5)
                )
                for _ in range(rng.randint(1, 5))
            })
            g = Poly({
                (0, 0, 0, rng.randint(1, 6)): Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 99))
                for _ in range(3)
            })
            written = sum(
                digits(c * u)
                for exp, c in p.items()
                for _, u in ((Poly.variable("a") - g) ** exp[2]).items()
            )
            terms = normalform._step_terms(p, g)
            assert written <= normalform._step_digits(p, g, terms)

    def test_step_terms_exact_without_merging(self):
        # (a - b)^e has e + 1 terms, (a - b - b^3)^2 has 1 + 2 + 3 = 6 before merging
        a, b = Poly.variable("a"), Poly.variable("b")
        assert normalform._step_terms(a**4, b) == 5
        assert normalform._step_terms(a**2 + a, b + b**3) == 6 + 3


class TestDetectCase:
    def test_binomial_unit(self):
        det = detect_case(ModelSurface(3, (3, 3)))
        assert det.kind == BINOMIAL
        assert (det.delta, det.nu) == (Fraction(1), Fraction(1))

    def test_monomial(self):
        det = detect_case(ModelSurface(4, (0, 1, 0)))
        assert det.kind == MONOMIAL and det.iota == 2

    def test_generic_zero_gap(self):
        assert detect_case(ModelSurface(4, (1, 0, 1))).kind == GENERIC

    def test_scaled_binomial(self):
        det = detect_case(ModelSurface(4, binomial_gamma(4, 2, 3)))
        assert det.kind == BINOMIAL
        assert (det.delta, det.nu) == (Fraction(2), Fraction(3))

    def test_negative_nu_binomial(self):
        det = detect_case(ModelSurface(4, binomial_gamma(4, 1, -2)))
        assert det.kind == BINOMIAL
        assert (det.delta, det.nu) == (Fraction(1), Fraction(-2))

    def test_all_nonzero_but_not_binomial(self):
        assert detect_case(ModelSurface(4, (1, 1, 1))).kind == GENERIC

    def test_scaling_equivariance(self):
        rng = random.Random(41)
        for _ in range(20):
            k = rng.randint(3, 6)
            kind = rng.choice(["m", "b", "g"])
            if kind == "m":
                gamma = monomial_gamma(k, rng.randint(1, k - 1), rng.randint(1, 4))
            elif kind == "b":
                gamma = binomial_gamma(k, rng.randint(1, 3), rng.randint(1, 3))
            else:
                gamma = tuple(Fraction(rng.randint(0, 2)) for _ in range(k - 1))
                if all(g == 0 for g in gamma):
                    continue
            c = Fraction(rng.choice([2, 3, Fraction(1, 2), -1]))
            before = detect_case(ModelSurface(k, gamma))
            after = detect_case(ModelSurface(k, tuple(c * g for g in gamma)))
            assert before.kind == after.kind
            if before.kind == BINOMIAL:
                assert after.delta == c * before.delta
                assert after.nu == before.nu


class TestNormalizeBinomial:
    def test_unit_case_maps(self):
        s = ModelSurface(3, (3, 3))
        res = normalize_binomial(s, detect_case(s))
        assert res.change.a_map == P("a - b^3")
        assert res.change.y_map == P("y + x^3")
        assert res.normalized.gamma == (Fraction(3), Fraction(3))

    def test_scaled_case_maps(self):
        s = ModelSurface(3, (6, 6))
        res = normalize_binomial(s, detect_case(s))
        assert res.change.a_map == P("1/2 a - b^3")
        assert res.change.y_map == P("1/2 y + x^3")
        assert res.normalized.gamma == (Fraction(3), Fraction(3))

    def test_redetects_as_unit_binomial(self):
        for k, delta, nu in [(3, 1, 1), (4, 2, 3), (5, 1, 1), (5, 2, 3)]:
            s = ModelSurface(k, binomial_gamma(k, delta, nu))
            res = normalize_binomial(s, detect_case(s))
            redet = detect_case(res.normalized)
            assert redet.kind == BINOMIAL
            assert (redet.delta, redet.nu) == (Fraction(1), Fraction(1))

    def test_model_identity(self):
        # the diagonal map carries the defining polynomial onto the model one
        for k, delta, nu in [(3, 2, 1), (4, 1, 2)]:
            s = ModelSurface(k, binomial_gamma(k, delta, nu))
            res = normalize_binomial(s, detect_case(s))
            mc = res.model_change
            image = mc.y_map - mc.a_map - res.normalized.p.substitute({"b": mc.b_map})
            assert image == Fraction(1, delta) * s.defining_poly

    def test_rejects_non_binomial(self):
        s = ModelSurface(4, (1, 0, 1))
        with pytest.raises(NormalFormError):
            normalize_binomial(s, detect_case(s))


class TestSingularLocus:
    def test_pencil(self):
        locus = singular_locus(ModelSurface(4, (0, 1, 0)))
        assert locus.kind == PENCIL and locus.line_count == 2

    def test_line_x(self):
        locus = singular_locus(ModelSurface(4, (1, 0, 0)))
        assert locus.kind == LINE and locus.line == P("x")

    def test_point(self):
        assert singular_locus(ModelSurface(4, (1, 0, 1))).kind == POINT

    def test_diagonal_line(self):
        locus = singular_locus(ModelSurface(4, binomial_gamma(4)))
        assert locus.kind == LINE and locus.line == P("x + b")

    def test_single_line_partial_power_is_pencil(self):
        # P_xb = 6 b x^2 + 12 b^3: one real line but not a full power
        locus = singular_locus(ModelSurface(5, (0, 1, 0, Fraction(3, 5))))
        assert locus.kind == PENCIL and locus.line_count == 1

    @staticmethod
    def surface_with_pxb(k, pxb_coeffs):
        # pxb_coeffs[j] is the coefficient of x^(k-2-j) b^j in P_xb; the
        # b^(i-1) x^(k-1-i) coefficient of P_xb is gamma_i i (k - i)
        return ModelSurface(
            k, tuple(Fraction(pxb_coeffs[i - 1], i * (k - i)) for i in range(1, k))
        )

    def test_interior_simple_root_with_complex_pair_is_pencil(self):
        # P_xb = (x - b)(x^2 + b^2): one real line, neither x nor b
        s = self.surface_with_pxb(5, [1, -1, 1, -1])
        assert s.p_xb == P("x^3 - x^2 b + x b^2 - b^3")
        locus = singular_locus(s)
        assert locus.kind == PENCIL and locus.line_count == 1

    def test_interior_double_root_with_complex_pair_is_pencil(self):
        # P_xb = (x - b)^2 (x^2 + b^2)
        s = self.surface_with_pxb(6, [1, -2, 2, -2, 1])
        locus = singular_locus(s)
        assert locus.kind == PENCIL and locus.line_count == 1

    def test_interior_full_power_is_line(self):
        # P_xb = 3 (2x - 3b)^3: the line 2x - 3b carries multiplicity k - 2 = 3
        s = self.surface_with_pxb(5, [24, -108, 162, -81])
        locus = singular_locus(s)
        assert locus.kind == LINE and locus.line == P("2 x - 3 b")

    def test_generic_k30_runtime_budget(self):
        # the integer Sturm chain; the Fraction chain took 0.12 s here
        s = ModelSurface(30, tuple(Fraction(g) for g in GENERIC_K30))
        start = time.perf_counter()
        locus = singular_locus(s)
        elapsed = time.perf_counter() - start
        assert locus.kind == PENCIL
        assert elapsed < 0.02, f"singular_locus took {elapsed:.3f}s"

    def test_swap_invariance(self):
        rng = random.Random(52)
        for _ in range(25):
            k = rng.randint(3, 6)
            gamma = [Fraction(rng.randint(-2, 2)) for _ in range(k - 1)]
            if all(g == 0 for g in gamma):
                gamma[0] = Fraction(1)
            s1 = ModelSurface(k, tuple(gamma))
            s2 = ModelSurface(k, tuple(reversed(gamma)))
            assert singular_locus(s1).kind == singular_locus(s2).kind


GENERIC_K30 = (2, -1, 3, -1, 3, 3, 3, 2, -3, 1, -2, 3, -3, -2, -3, -1, 1, -2, 1, 2, -3, 2, -2,
               -3, 3, -2, 1, -1, -2)


# -- reference: the Fraction Sturm chain on the square-free part --------------


def ref_trim(p):
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def ref_derivative(p):
    return [c * i for i, c in enumerate(ref_trim(p))][1:]


def ref_divmod(num, den):
    num, den = ref_trim(num), ref_trim(den)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    dn = len(den) - 1
    while rem and len(rem) - 1 >= dn:
        shift = len(rem) - 1 - dn
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        rem = ref_trim(rem)
    return ref_trim(quot), rem


def ref_square_free_part(p):
    a, b = ref_trim(p), ref_derivative(p)
    while b:
        a, b = b, ref_divmod(a, b)[1]
    quot, rem = ref_divmod(p, a)
    assert not rem
    return quot


def ref_count_real_roots(p):
    chain = [ref_square_free_part(p)]
    chain.append(ref_derivative(chain[0]))
    while len(chain[-1]) > 1:
        rem = ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    at_pos = [q[-1] > 0 for q in chain if q]
    at_neg = [(q[-1] > 0) == (len(q) % 2 == 1) for q in chain if q]
    return sum(u != v for u, v in zip(at_neg, at_neg[1:])) - sum(
        u != v for u, v in zip(at_pos, at_pos[1:])
    )


def poly_mul(c1, c2):
    out = [0] * (len(c1) + len(c2) - 1)
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            out[i + j] += a * b
    return out


class TestIntegerSturmChain:
    def seeded_polynomials(self):
        # degrees 10 to 44: linear factors t - r, r in [-3, 3], so roots
        # repeat, and irreducible quadratics; every fourth starts from a cube
        rng = random.Random(64)
        polys = []
        for index in range(40):
            target = 10 + (34 * index) // 39
            coeffs = [1]
            if index % 4 == 0:
                root = rng.randint(-2, 2)
                for _ in range(3):
                    coeffs = poly_mul(coeffs, [-root, 1])
            while len(coeffs) - 1 < target:
                if target - len(coeffs) >= 1 and rng.random() < 0.5:
                    p = rng.randint(-2, 2)
                    factor = [rng.randint(p * p // 4 + 1, p * p // 4 + 2), p, 1]
                else:
                    factor = [rng.randint(-3, 3), 1]
                coeffs = poly_mul(coeffs, factor)
            scale = Fraction(rng.choice([-7, -1, 1, 2]), rng.choice([1, 3, 10]))
            polys.append([scale * c for c in coeffs])
        return polys

    def test_counts_match_fraction_reference(self):
        polys = self.seeded_polynomials()
        assert sorted({sturm.degree(p) for p in polys}) == list(range(10, 45))
        for p in polys:
            assert sturm.count_real_roots(p) == ref_count_real_roots(p)

    def test_sparse_counts_match_fraction_reference(self):
        # zero coefficients make the chain skip degrees, so a division takes
        # an odd number of steps and a negative lc(den) would flip the sign
        rng = random.Random(65)
        for _ in range(400):
            p = [Fraction(rng.choice([0, 0, 0, -2, -1, 1, 2, 3])) for _ in range(rng.randint(3, 8))]
            p.append(Fraction(rng.choice([-2, -1, 1, 3])))
            assert sturm.count_real_roots(p) == ref_count_real_roots(p), p

    @pytest.mark.parametrize(
        "coeffs, roots", [([0, 3, 0, 1], 1), ([1, 3, 0, -1], 3), ([0, -1, 0, -1], 1)]
    )
    def test_degree_gap_with_negative_leading_coefficient(self, coeffs, roots):
        assert sturm.count_real_roots([Fraction(c) for c in coeffs]) == roots

    def test_repeated_factors_counted_once(self):
        # (t - 1)^3 (t + 2)^2 (t^2 + 1): two distinct real roots
        p = poly_mul(poly_mul([-1, 1], [-1, 1]), [-1, 1])
        p = poly_mul(poly_mul(p, [2, 1]), poly_mul([2, 1], [1, 0, 1]))
        assert sturm.count_real_roots([Fraction(c) for c in p]) == 2

    def test_negative_leading_coefficients_keep_signs(self):
        # -(t - 1)(t - 2)(t - 3)(t^2 + 1): every sign of the chain matters
        p = poly_mul(poly_mul([-1, 1], [-2, 1]), poly_mul([-3, 1], [1, 0, 1]))
        assert sturm.count_real_roots([Fraction(-c) for c in p]) == 3

    def test_constants_have_no_roots(self):
        assert sturm.count_real_roots([]) == 0
        assert sturm.count_real_roots([Fraction(5)]) == 0
        assert sturm.count_real_roots([Fraction(-2), Fraction(0)]) == 0


class TestSturmOracle:
    def test_known_roots(self):
        # (t-1)(t+2)(t^2+1) = t^4 + t^3 - t^2 + t - 2: two distinct real roots
        coeffs = [Fraction(-2), Fraction(1), Fraction(-1), Fraction(1), Fraction(1)]
        assert sturm.count_real_roots(coeffs) == 2

    def test_repeated_roots_counted_once(self):
        # (t-1)^2
        assert sturm.count_real_roots([Fraction(1), Fraction(-2), Fraction(1)]) == 1

    def test_against_constructed_and_floating(self):
        # constructed forms carry a known distinct-real-root count; the
        # floating finder is consulted only on simple roots, where it is
        # reliable within its tolerance
        rng = random.Random(63)
        checked = 0
        while checked < 100:
            real_roots = sorted(rng.sample(range(-8, 9), rng.randint(0, 4)))
            n_quad = rng.randint(0, 2)
            repeat = rng.random() < 0.3
            coeffs = [Fraction(1)]

            def mul(c1, c2):
                out = [Fraction(0)] * (len(c1) + len(c2) - 1)
                for i, a in enumerate(c1):
                    for j, b in enumerate(c2):
                        out[i + j] += a * b
                return out

            for r in real_roots:
                power = rng.randint(1, 2) if repeat else 1
                for _ in range(power):
                    coeffs = mul(coeffs, [Fraction(-r), Fraction(1)])
            for _ in range(n_quad):
                # irreducible t^2 + p t + q with roots at least 1 off the axis
                p = rng.randint(-3, 3)
                q = rng.randint(p * p // 4 + 1, p * p // 4 + 5)
                coeffs = mul(coeffs, [Fraction(q), Fraction(p), Fraction(1)])
            if sturm.degree(coeffs) > 8 or sturm.degree(coeffs) < 1:
                continue
            checked += 1
            expected = len(set(real_roots))
            assert sturm.count_real_roots(coeffs) == expected
            if repeat:
                continue
            np_roots = np.roots([float(c) for c in reversed(coeffs)])
            reals = [z.real for z in np_roots if abs(z.imag) < 1e-6]
            distinct = []
            for r in sorted(reals):
                if not distinct or abs(r - distinct[-1]) > 1e-4:
                    distinct.append(r)
            assert len(distinct) == expected
