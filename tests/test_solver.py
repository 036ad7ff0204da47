import random
import time
from fractions import Fraction

import pytest

from paracr import solver
from paracr.poly import Poly, order_key
from paracr.surface import ModelSurface, tangency_residual, weight_of
from paracr.solver import (
    KernelBasis,
    OracleMismatchError,
    brute_force_check,
    build_ansatz,
    grading_field,
    oblique_translation_field,
    solve_algebra,
    solve_weight,
    special_conformal_field,
    tangency_system,
    vertical_translation,
)
from conftest import binomial_gamma, monomial_gamma, rational_gamma_surfaces, suite_surfaces


def P(text):
    return Poly.parse(text)


class TestBuildAnsatz:
    def test_bottom_weight(self):
        s = ModelSurface(4, (0, 1, 0))
        ans = build_ansatz(s, -4)
        assert [(c, e) for c, e in ans.unknowns] == [
            ("alpha", (0, 0, 0, 0)),
            ("eta", (0, 0, 0, 0)),
        ]

    def test_below_bottom_weight_empty(self):
        s = ModelSurface(4, (0, 1, 0))
        assert len(build_ansatz(s, -5)) == 0

    def test_weight_minus_one_k3(self):
        # hand enumeration from the degree constraints
        s = ModelSurface(3, (1, 1))
        ans = build_ansatz(s, -1)
        assert ans.unknowns == (
            ("alpha", (0, 0, 0, 2)),
            ("beta", (0, 0, 0, 0)),
            ("xi", (0, 0, 0, 0)),
            ("eta", (2, 0, 0, 0)),
        )

    def test_weight_zero_k3(self):
        s = ModelSurface(3, (1, 1))
        ans = build_ansatz(s, 0)
        assert ans.unknowns == (
            ("alpha", (0, 0, 1, 0)),
            ("alpha", (0, 0, 0, 3)),
            ("beta", (0, 0, 0, 1)),
            ("xi", (1, 0, 0, 0)),
            ("eta", (0, 1, 0, 0)),
            ("eta", (3, 0, 0, 0)),
        )


class TestSolveWeight:
    def test_bottom_weight_translation(self):
        s = ModelSurface(4, (0, 1, 0))
        kb = solve_weight(s, -4)
        assert kb.dimension == 1
        assert kb.basis[0] == vertical_translation()

    def test_monomial_weight_zero_two_dims(self):
        kb = solve_weight(ModelSurface(4, (0, 1, 0)), 0)
        assert kb.dimension == 2

    def test_binomial_weight_minus_one(self):
        kb = solve_weight(ModelSurface(3, (3, 3)), -1)
        assert kb.dimension == 1
        assert kb.basis[0] == oblique_translation_field(3, Fraction(1), Fraction(1))

    def test_generic_weight_minus_one_empty(self):
        kb = solve_weight(ModelSurface(4, (1, 0, 1)), -1)
        assert kb.dimension == 0

    def test_monomial_weight_one_empty(self):
        kb = solve_weight(ModelSurface(4, (0, 1, 0)), 1)
        assert kb.dimension == 0

    def test_every_basis_field_has_zero_residual(self, suite):
        for s in suite:
            for m in range(-s.k, s.k + 1):
                for f in solve_weight(s, m).basis:
                    assert tangency_residual(f, s).is_zero

    def test_basis_fields_are_homogeneous(self, suite):
        for s in suite[:6]:
            g = s.grading()
            for m in range(-s.k, s.k + 1):
                for f in solve_weight(s, m).basis:
                    assert weight_of(f, g) == m

    @pytest.mark.parametrize(
        "weight, shape, budget_s", [(50, (408, 72), 0.5), (100, (1327, 138), 2.0)]
    )
    def test_high_weight_runtime_budget(self, weight, shape, budget_s):
        # a fresh surface and the uncached function: assembly and kernel both run cold
        s = ModelSurface(3, (3, 3))
        start = time.perf_counter()
        kb = solve_weight.__wrapped__(s, weight)
        elapsed = time.perf_counter() - start
        assert kb.dimension == 0
        assert kb.system_shape == shape
        assert elapsed < budget_s, f"weight {weight} took {elapsed:.2f}s, budget {budget_s}s"


def definitional_system(s, ansatz):
    """The per-weight system built from ``tangency_residual`` of each unit field."""
    residuals = [tangency_residual(ansatz.unit_field(i), s) for i in range(len(ansatz))]
    monomials = sorted({e for r in residuals for e, _ in r.items()}, key=order_key)
    return monomials, [[r.coefficient(e) for r in residuals] for e in monomials]


class TestTangencySystem:
    @pytest.mark.parametrize(
        "s",
        suite_surfaces() + rational_gamma_surfaces(),
        ids=lambda s: f"k{s.k}-" + ",".join(str(g) for g in s.gamma),
    )
    def test_matches_unit_field_residuals(self, s):
        integral = all(g.denominator == 1 for g in s.gamma)
        for m in range(-s.k, 3 * s.k + 1):
            ansatz = build_ansatz(s, m)
            if not len(ansatz):
                continue
            monomials, rows = tangency_system(s, ansatz)
            expected_monomials, expected_rows = definitional_system(s, ansatz)
            assert monomials == expected_monomials
            assert solve_weight(s, m).system_shape == (len(rows), len(ansatz))
            for row, expected_row in zip(rows, expected_rows):
                assert len(row) == len(ansatz)
                assert [Fraction(v) for v in row] == expected_row
                if integral:
                    assert all(type(v) is int for v in row)

    @pytest.mark.parametrize("s", rational_gamma_surfaces(), ids=lambda s: f"k{s.k}")
    def test_oracle_agrees_on_rational_gamma(self, s):
        for m in range(-s.k, 3 * s.k + 1):
            brute_force_check(s, m)


class TestBruteForce:
    def test_agrees_on_examples(self):
        for k, gamma, m, dim in [
            (4, (0, 1, 0), -4, 1),
            (4, (0, 1, 0), 0, 2),
            (3, (3, 3), -1, 1),
            (4, (1, 0, 1), -1, 0),
        ]:
            kb = brute_force_check(ModelSurface(k, gamma), m)
            assert kb.dimension == dim

    def test_bottom_weight_always_one(self, suite):
        for s in suite:
            assert brute_force_check(s, -s.k).dimension == 1

    def test_random_gamma_k5_weight2_empty(self):
        rng = random.Random(123)
        for _ in range(5):
            gamma = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
            if all(g == 0 for g in gamma):
                continue
            s = ModelSurface(5, gamma)
            assert brute_force_check(s, 2).dimension == 0


class TestOracleMismatch:
    """The oracle raises when ``solve_weight`` returns a wrong kernel."""

    S = ModelSurface(4, (0, 1, 0))
    M = 0  # kernel dimension 2

    def use_basis(self, monkeypatch, make_basis):
        kb = solve_weight(self.S, self.M)
        assert kb.dimension == 2
        wrong = KernelBasis(kb.weight, make_basis(kb.basis), kb.system_shape)
        monkeypatch.setattr(solver, "solve_weight", lambda s, m: wrong)

    def test_dropped_vector(self, monkeypatch):
        self.use_basis(monkeypatch, lambda basis: basis[:1])
        with pytest.raises(OracleMismatchError, match="dimension"):
            brute_force_check(self.S, self.M)

    def test_perturbed_vector(self, monkeypatch):
        ansatz = build_ansatz(self.S, self.M)

        def perturb(basis):
            vec = list(ansatz.vector_from_field(basis[0]))
            vec[0] += 1
            return (ansatz.field_from_vector(vec),) + basis[1:]

        self.use_basis(monkeypatch, perturb)
        with pytest.raises(OracleMismatchError, match="fails a sampled equation"):
            brute_force_check(self.S, self.M)

    def test_duplicated_vector(self, monkeypatch):
        self.use_basis(monkeypatch, lambda basis: (basis[0], basis[0]))
        with pytest.raises(OracleMismatchError, match="spans differ"):
            brute_force_check(self.S, self.M)


class TestSolveAlgebra:
    def test_case_i(self):
        alg = solve_algebra(ModelSurface(4, (0, 1, 0)))
        assert alg.dimension == 4
        assert sorted(alg.weights) == [-4, 0, 0, 4]
        assert alg.closure_violations == ()

    def test_case_ii(self):
        alg = solve_algebra(ModelSurface(3, (3, 3)))
        assert alg.dimension == 3
        assert sorted(alg.weights) == [-3, -1, 0]

    def test_case_iii(self):
        alg = solve_algebra(ModelSurface(4, (1, 0, 1)))
        assert alg.dimension == 2
        assert sorted(alg.weights) == [-4, 0]

    def test_rejects_small_cap(self):
        with pytest.raises(ValueError):
            solve_algebra(ModelSurface(3, (1, 1)), weight_cap=2)

    def test_graded_compatibility(self):
        # bracket of weight-m and weight-n generators lands in weight m+n
        alg = solve_algebra(ModelSurface(4, (0, 1, 0)))
        fields = alg.fields()
        for i in range(alg.dimension):
            for j in range(alg.dimension):
                target = alg.weights[i] + alg.weights[j]
                for l, c in enumerate(alg.structure_constants[i][j]):
                    if c != 0:
                        assert alg.weights[l] == target


class TestInvariances:
    def test_rescaling_invariance(self):
        rng = random.Random(31)
        for _ in range(8):
            k = rng.randint(3, 5)
            gamma = [Fraction(rng.randint(-3, 3)) for _ in range(k - 1)]
            if all(g == 0 for g in gamma):
                gamma[0] = Fraction(2)
            c = Fraction(rng.choice([2, -1, 3, Fraction(1, 2)]))
            s1 = ModelSurface(k, tuple(gamma))
            s2 = ModelSurface(k, tuple(c * g for g in gamma))
            for m in range(-k, 2 * k + 1):
                assert solve_weight(s1, m).dimension == solve_weight(s2, m).dimension

    def test_swap_symmetry(self):
        rng = random.Random(32)
        for _ in range(8):
            k = rng.randint(3, 5)
            gamma = [Fraction(rng.randint(-3, 3)) for _ in range(k - 1)]
            if all(g == 0 for g in gamma):
                gamma[-1] = Fraction(1)
            s1 = ModelSurface(k, tuple(gamma))
            s2 = ModelSurface(k, tuple(reversed(gamma)))
            for m in range(-k, 2 * k + 1):
                assert solve_weight(s1, m).dimension == solve_weight(s2, m).dimension


class TestBoundaryMonomials:
    def test_extra_weight_minus_one_generator(self):
        # P = b x^(k-1) admits d_b + gamma_1 x^(k-1) d_y
        for k in (3, 4):
            s = ModelSurface(k, monomial_gamma(k, 1))
            kb = solve_weight(s, -1)
            assert kb.dimension == 1
            expected = Poly.monomial((k - 1, 0, 0, 0))
            f = kb.basis[0]
            assert f.beta == P("1") and f.eta == expected

    def test_total_dimension_exceeds_four(self):
        for k in (3, 4):
            for iota in (1, k - 1):
                alg = solve_algebra(ModelSurface(k, monomial_gamma(k, iota)))
                assert alg.dimension == 6
                assert alg.closure_violations == ()
                for w, f in alg.generators:
                    assert tangency_residual(f, alg.surface).is_zero


class TestNamedGenerators:
    def test_special_conformal_tangency(self):
        for k, iota in [(4, 2), (5, 2), (5, 3), (6, 3), (4, 1), (4, 3)]:
            s = ModelSurface(k, monomial_gamma(k, iota, 3))
            assert tangency_residual(special_conformal_field(k, iota), s).is_zero

    def test_oblique_translation_tangency(self):
        for k, delta, nu in [(3, 1, 1), (4, 2, 3), (5, Fraction(1, 2), -2)]:
            s = ModelSurface(k, binomial_gamma(k, delta, nu))
            v = oblique_translation_field(k, Fraction(delta), Fraction(nu))
            assert tangency_residual(v, s).is_zero

    def test_grading_tangency_any_surface(self, suite):
        for s in suite:
            assert tangency_residual(grading_field(s.k), s).is_zero
