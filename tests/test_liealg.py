import random
from fractions import Fraction

import pytest

from paracr import linalg, liealg
from paracr.liealg import (
    AFFINE_LINE_2D,
    OTHER,
    SL2_PLUS_CENTER,
    SOLVABLE_3D_WEIGHTS_K_1,
    StructureConstants,
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


# restrict_to_subalgebra and change_basis as liealg had them before profile
# read the derived invariants off the Killing form and D's pivots; kept as the
# reference for that change


def restrict_to_subalgebra(sc, basis):
    """Constants of a subalgebra in the given basis of it."""
    d = len(basis)
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            w = sc.bracket_vec(basis[i], basis[j])
            coeffs = linalg.solve_in_span(basis, w)
            if coeffs is None:
                raise liealg.InvalidStructureError("span is not closed under the bracket")
            table[i][j] = tuple(coeffs)
    return StructureConstants(tuple(tuple(row) for row in table))


def change_basis(sc, t):
    """Constants in the basis f_i = sum_j t[j][i] e_j (t invertible)."""
    n = sc.dimension
    new_basis = [tuple(Fraction(t[j][i]) for j in range(n)) for i in range(n)]
    if linalg.rank(new_basis, n) != n:
        raise ValueError("base change matrix is singular")
    return restrict_to_subalgebra(sc, new_basis)


def derived_basis(sc):
    n = sc.dimension
    units = [basis_vec(n, i) for i in range(n)]
    return linalg.rref([sc.bracket_vec(u, v) for u in units for v in units], n)[0]


def reference_h(sc, derived):
    # the complement vector the re-expressing _ad_eigenvalue_data chose
    n = sc.dimension
    return next(i for i in range(n) if linalg.solve_in_span(derived, basis_vec(n, i)) is None)


def reference_derived_invariants(sc):
    """(derived_killing_signature, ad_eigenvalue_data) by re-expressing D and D + h."""
    n = sc.dimension
    derived = derived_basis(sc)
    d = len(derived)
    signature = None
    if 0 < d < n:
        signature = linalg.symmetric_signature(
            killing_form(restrict_to_subalgebra(sc, derived))
        )
    ad_data = None
    abelian = not any(any(sc.bracket_vec(u, v)) for u in derived for v in derived)
    if d == n - 1 and 0 < d <= 2 and abelian:
        h = basis_vec(n, reference_h(sc, derived))
        table = restrict_to_subalgebra(sc, list(derived) + [h]).table
        ad = [[table[d][j][i] for j in range(d)] for i in range(d)]
        eigenvalues = liealg._matrix_eigenvalues(ad)
        if eigenvalues is not None and all(v != 0 for v in eigenvalues):
            smallest = min(eigenvalues, key=abs)
            ad_data = tuple(sorted((Fraction(v, smallest) for v in eigenvalues), reverse=True))
    return signature, ad_data


def restricted_killing(killing, basis):
    """The Gram matrix B K B^T of the form K on the rows B of ``basis``."""
    return [
        [sum(u[p] * killing[p][q] * v[q] for p in range(len(u)) for q in range(len(v)))
         for v in basis]
        for u in basis
    ]


def random_rational_basis_change(rng, n):
    while True:
        t = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(t, n) == n:
            return t


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


class TestDerivedInvariantsAgainstReference:
    def algebras(self):
        surfaces = suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces()
        return [structure_constants(solve_algebra(s)) for s in surfaces]

    def test_restricted_killing_is_killing_of_derived_algebra(self):
        # D = [g, g] is an ideal, so its Killing form is K restricted to D
        for sc in self.algebras():
            derived = derived_basis(sc)
            if 0 < len(derived) < sc.dimension:
                assert restricted_killing(killing_form(sc), derived) == killing_form(
                    restrict_to_subalgebra(sc, derived)
                )

    def test_match_reference_in_computed_and_random_rational_bases(self):
        rng = random.Random(2229)
        seen, moved_h = set(), 0
        for sc in self.algebras():
            pr = profile(sc)
            expected = reference_derived_invariants(sc)
            assert (pr.derived_killing_signature, pr.ad_eigenvalue_data) == expected
            seen.add(tuple(v is not None for v in expected))
            n = sc.dimension
            for _ in range(3):
                transformed = change_basis(sc, random_rational_basis_change(rng, n))
                got = profile(transformed)
                assert got == pr
                assert reference_derived_invariants(transformed) == expected
                if got.ad_eigenvalue_data is not None:
                    derived, pivots = linalg.rref(derived_basis(transformed), n)
                    h = next(c for c in range(n) if c not in pivots)
                    moved_h += h != reference_h(transformed, derived)
        assert seen == {(True, False), (True, True)}
        assert moved_h > 0


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
            assert linalg.rref(derived, n) == linalg.rref([e_low, list(h), e_high], n)
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
