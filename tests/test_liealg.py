import random
from fractions import Fraction

import pytest

from paracr import liealg
from paracr.liealg import (
    AFFINE_LINE_2D,
    OTHER,
    SL2_PLUS_CENTER,
    SOLVABLE_3D_WEIGHTS_K_1,
    StructureConstants,
    change_basis,
    classify,
    killing_form,
    profile,
    structure_constants,
)
from paracr.solver import solve_algebra
from paracr.surface import ModelSurface
from conftest import (
    binomial_gamma,
    k_ladder_surfaces,
    monomial_gamma,
    rational_gamma_surfaces,
    suite_surfaces,
)


def algebra_for(k, gamma):
    return structure_constants(solve_algebra(ModelSurface(k, gamma)))


def basis_vec(n, i):
    v = [Fraction(0)] * n
    v[i] = Fraction(1)
    return tuple(v)


class TestStructureConstants:
    def test_case_iii_single_relation(self):
        # basis ordered by weight: e0 with weight -k, e1 with weight 0
        sc = algebra_for(4, (1, 0, 1))
        assert sc.dimension == 2
        # [e1, e0] = k e0  (hand bracket of the translation and the dilation)
        assert sc.table[1][0] == (Fraction(-4), Fraction(0))
        assert sc.table[0][1] == (Fraction(4), Fraction(0))

    def test_case_ii_translations_commute(self):
        sc = algebra_for(3, (3, 3))
        assert sc.table[1][0] == (Fraction(0),) * 3  # [V_-1, V_-3] = 0

    def test_abelian_all_zero(self):
        n = 3
        zero = tuple(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)) for _ in range(n))
        sc = StructureConstants(zero)
        sc.validate()
        assert profile(sc).derived_series_dims == (3, 0)

    def test_validation_catches_bad_tables(self):
        bad = ((
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0)),
        ), (
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0)),
        ))
        with pytest.raises(liealg.InvalidStructureError):
            StructureConstants(bad).validate()

    def test_killing_ad_invariance(self):
        # B([x,y],z) + B(y,[x,z]) = 0 on basis triples
        for k, gamma in [(4, (0, 1, 0)), (3, (3, 3)), (4, (1, 0, 1))]:
            sc = algebra_for(k, gamma)
            n = sc.dimension
            killing = killing_form(sc)

            def b(u, v):
                return sum(
                    u[i] * killing[i][j] * v[j] for i in range(n) for j in range(n)
                )

            for i in range(n):
                for j in range(n):
                    for l in range(n):
                        x, y, z = basis_vec(n, i), basis_vec(n, j), basis_vec(n, l)
                        lhs = b(sc.bracket_vec(x, y), z)
                        rhs = b(y, sc.bracket_vec(x, z))
                        assert lhs + rhs == 0


class TestProfiles:
    def test_case_i_profile(self):
        pr = profile(algebra_for(4, monomial_gamma(4, 2)))
        assert pr.dimension == 4
        assert pr.derived_series_dims[1] == 3
        assert pr.center_dim == 1
        assert pr.killing_rank == 3
        assert pr.killing_signature == (2, 1, 1)
        assert not pr.is_solvable
        assert pr.derived_killing_signature == (2, 1, 0)

    def test_case_ii_profile(self):
        for k in (3, 4, 5):
            pr = profile(algebra_for(k, binomial_gamma(k)))
            assert pr.dimension == 3
            assert pr.is_solvable
            assert pr.derived_series_dims == (3, 2, 0)
            assert pr.ad_eigenvalue_data == (Fraction(k), Fraction(1))

    def test_case_iii_profile(self):
        pr = profile(algebra_for(4, (1, 0, 1)))
        assert pr.dimension == 2
        assert pr.is_solvable
        assert pr.derived_series_dims == (2, 1, 0)


class TestClassify:
    def test_three_cases(self):
        assert classify(profile(algebra_for(4, (0, 1, 0)))).label == SL2_PLUS_CENTER
        assert classify(profile(algebra_for(3, (3, 3)))).label == SOLVABLE_3D_WEIGHTS_K_1
        assert classify(profile(algebra_for(4, (1, 0, 1)))).label == AFFINE_LINE_2D

    def test_boundary_monomial_is_other(self):
        # six-dimensional algebra falls through to OTHER with its profile
        cl = classify(profile(algebra_for(4, monomial_gamma(4, 1))))
        assert cl.label == OTHER
        assert cl.profile.dimension == 6

    def test_basis_change_invariance(self):
        rng = random.Random(21)
        for k, gamma in [(4, (0, 1, 0)), (3, (3, 3)), (4, (1, 0, 1))]:
            sc = algebra_for(k, gamma)
            n = sc.dimension
            label = classify(profile(sc)).label
            for _ in range(6):
                # random unimodular matrix from elementary operations
                t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
                for _ in range(8):
                    i, j = rng.randrange(n), rng.randrange(n)
                    if i == j:
                        continue
                    c = Fraction(rng.randint(-2, 2))
                    for col in range(n):
                        t[i][col] += c * t[j][col]
                transformed = change_basis(sc, t)
                assert classify(profile(transformed)).label == label


class TestSl2Relations:
    def test_interior_monomials_carry_sl2(self):
        for k, iota in [(4, 2), (5, 2), (5, 3), (6, 3)]:
            alg = solve_algebra(ModelSurface(k, monomial_gamma(k, iota)))
            sc = structure_constants(alg)
            n = sc.dimension
            weights = alg.weights
            i_low = weights.index(-k)
            i_high = weights.index(k)
            e_low = basis_vec(n, i_low)
            e_high = basis_vec(n, i_high)
            h = sc.bracket_vec(e_low, e_high)
            assert any(h)
            # derived algebra is exactly span{e_low, h, e_high}
            from paracr import linalg

            derived = [
                sc.bracket_vec(basis_vec(n, i), basis_vec(n, j))
                for i in range(n)
                for j in range(i + 1, n)
            ]
            assert linalg.same_span(derived, [e_low, list(h), e_high], n)
            # ad(h) scales the extreme weight vectors oppositely
            down = sc.bracket_vec(h, e_low)
            up = sc.bracket_vec(h, e_high)
            lam = None
            for c, base in zip(down, e_low):
                if base != 0:
                    lam = c / base
            assert lam is not None and lam != 0
            assert down == tuple(lam * v for v in e_low)
            assert up == tuple(-lam * v for v in e_high)


class TestClosurePropagation:
    def test_structure_constants_requires_closure(self):
        from paracr.solver import ClosureViolation, SymmetryAlgebra

        alg = solve_algebra(ModelSurface(4, (0, 1, 0)))
        broken = SymmetryAlgebra(
            surface=alg.surface,
            weight_cap=alg.weight_cap,
            generators=alg.generators,
            structure_constants=alg.structure_constants,
            closure_violations=(ClosureViolation(0, 1, -4),),
        )
        with pytest.raises(liealg.ClosureViolationError):
            structure_constants(broken)


def _reference_validate(sc):
    # the validate loop before it read brackets off the table and checked
    # each set of three distinct indices once; kept as the reference
    n = sc.dimension
    for i in range(n):
        for j in range(n):
            for l in range(n):
                if sc.table[i][j][l] != -sc.table[j][i][l]:
                    raise liealg.InvalidStructureError(
                        f"antisymmetry fails at ({i},{j},{l})"
                    )
    basis = [basis_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                lhs = sc.bracket_vec(sc.bracket_vec(basis[i], basis[j]), basis[l])
                mid = sc.bracket_vec(sc.bracket_vec(basis[j], basis[l]), basis[i])
                rhs = sc.bracket_vec(sc.bracket_vec(basis[l], basis[i]), basis[j])
                if any(p + q + r != 0 for p, q, r in zip(lhs, mid, rhs)):
                    raise liealg.InvalidStructureError(
                        f"Jacobi identity fails on basis triple ({i},{j},{l})"
                    )


def _verdict(check, sc):
    try:
        check(sc)
    except liealg.InvalidStructureError as exc:
        return str(exc)
    return None


def _with_entry(table, i, j, l, value, antisymmetric=True):
    rows = [[list(c) for c in row] for row in table]
    rows[i][j][l] = value
    if antisymmetric:
        rows[j][i][l] = -value
    return StructureConstants(tuple(tuple(tuple(c) for c in row) for row in rows))


class TestValidateAgainstReference:
    def tables(self):
        surfaces = suite_surfaces() + k_ladder_surfaces() + rational_gamma_surfaces()
        return [solve_algebra(s).structure_constants for s in surfaces]

    def test_same_verdicts_on_computed_and_perturbed_tables(self):
        rng = random.Random(2229)
        verdicts = set()
        for table in self.tables():
            sc = StructureConstants(table)
            assert _verdict(StructureConstants.validate, sc) is None
            assert _verdict(_reference_validate, sc) is None
            n = sc.dimension
            for _ in range(6):
                i, j, l = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                value = table[i][j][l] + rng.choice([-1, 1, Fraction(1, 2)])
                for antisymmetric in (True, False):
                    bad = _with_entry(table, i, j, l, value, antisymmetric)
                    expected = _verdict(_reference_validate, bad)
                    assert _verdict(StructureConstants.validate, bad) == expected
                    verdicts.add(None if expected is None else expected.split(" ")[0])
        assert {"antisymmetry", "Jacobi"} <= verdicts

    def test_jacobi_broken_on_one_distinct_triple(self):
        # e0 central, [e1, e2] = e3, [e2, e3] = e1, [e3, e1] = e1: antisymmetric,
        # and J(1, 2, 3) = [e3, e3] + [e1, e1] + [e1, e2] = e3, while every
        # triple holding the central e0 sums to zero
        zero = (Fraction(0),) * 4
        table = [[zero] * 4 for _ in range(4)]
        for (i, j), l in {(1, 2): 3, (2, 3): 1, (3, 1): 1}.items():
            table[i][j] = basis_vec(4, l)
            table[j][i] = tuple(-v for v in basis_vec(4, l))
        sc = StructureConstants(tuple(tuple(row) for row in table))
        message = "Jacobi identity fails on basis triple (1,2,3)"
        assert _verdict(StructureConstants.validate, sc) == message
        assert _verdict(_reference_validate, sc) == message
