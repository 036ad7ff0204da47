import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from paracr import linalg, solver, surface
from paracr.poly import A, Grading, Poly, order_key
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
from conftest import (
    binomial_gamma,
    dense_rows,
    full_ansatz_basis,
    k_ladder_surfaces,
    monomial_gamma,
    rational_gamma_surfaces,
    suite_surfaces,
    unit_system,
)


def P(text):
    return Poly.parse(text)


def surface_id(s):
    return f"k{s.k}-" + ",".join(str(g) for g in s.gamma)


# the benchmark's weight ladder: binomial, boundary monomial and generic at cap 32
WEIGHT_LADDER_SURFACES = [
    ModelSurface(3, (3, 3)),
    ModelSurface(3, (1, 0)),
    ModelSurface(4, (1, 0, 1)),
]


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


def cold_solve_weight(monkeypatch):
    """Give ``solve_weight`` an empty cache of its own for one test, so the weights
    below the one asked for are solved cold and nothing the test plants is kept."""
    fresh = lru_cache(maxsize=None)(solver.solve_weight.__wrapped__)
    monkeypatch.setattr(solver, "solve_weight", fresh)
    return fresh


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
            g = Grading(s.k)
            for m in range(-s.k, s.k + 1):
                for f in solve_weight(s, m).basis:
                    assert weight_of(f, g) == m

    @pytest.mark.parametrize(
        "weight, shape, budget_s", [(50, (6, 4), 0.0096), (100, (6, 4), 0.0197)]
    )
    def test_high_weight_runtime_budget(self, monkeypatch, weight, shape, budget_s):
        # a fresh surface and an empty cache: every weight of the residue class runs cold.
        # Weights 50 and 100 take 0.0015-0.0032 s and 0.0029-0.0066 s (80 runs, each in a
        # fresh interpreter) on a 2-vCPU Xeon under Python 3.11; each budget is 3x the
        # maximum.  The full-ansatz solve took 0.0052-0.0119 s and 0.028-0.098 s there, on
        # systems of shape (408, 72) and (1327, 138): weight 100's budget and both shapes
        # fail a return to it.
        s = ModelSurface(3, (3, 3))
        cold = cold_solve_weight(monkeypatch)
        start = time.perf_counter()
        kb = cold(s, weight)
        elapsed = time.perf_counter() - start
        assert kb.dimension == 0
        assert kb.system_shape == shape
        assert elapsed < budget_s, f"weight {weight} took {elapsed:.4f}s, budget {budget_s}s"

    def test_deep_weight_walks_without_recursion(self, monkeypatch):
        # weight 3000 is the 1,002nd weight of its residue class from -3, deeper than the
        # recursion limit.  Cold, it takes 1.38-2.19 s (27 runs, each in a fresh interpreter) on
        # a 2-vCPU Xeon under Python 3.11; the budget is 3x the maximum.
        cold = cold_solve_weight(monkeypatch)
        start = time.perf_counter()
        kb = cold(ModelSurface(3, (3, 3)), 3000)
        elapsed = time.perf_counter() - start
        assert kb.dimension == 0
        assert kb.system_shape == (6, 4)
        assert cold.cache_info().currsize == 1002
        assert elapsed < 6.6, f"weight 3000 took {elapsed:.2f}s, budget 6.6s"

    @pytest.mark.parametrize(
        "s, top",
        [(s, 3 * s.k) for s in k_ladder_surfaces()] + [(s, 32) for s in WEIGHT_LADDER_SURFACES],
        ids=lambda v: surface_id(v) if isinstance(v, ModelSurface) else f"to{v}",
    )
    def test_same_basis_as_full_ansatz(self, s, top):
        # the suite and rational-gamma surfaces are compared in
        # TestTangencySystem::test_matches_unit_field_residuals
        for m in range(-s.k, top + 1):
            assert solve_weight(s, m).basis == full_ansatz_basis(s, m), m


def definitional_system(s, ansatz):
    """The per-weight system as residual monomial -> row, from the residual
    V(y - a - P) of each unit field, with y expanded by ``Poly.substitute``,
    not the surface's cached powers."""
    on_s = A + s.p
    residuals = [
        ansatz.unit_field(i).apply(s.defining_poly).substitute({"y": on_s})
        for i in range(len(ansatz))
    ]
    monomials = {e for r in residuals for e, _ in r.items()}
    return {e: [r.coefficient(e) for r in residuals] for e in monomials}


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
            monomials, rows = unit_system(ansatz)
            system = dict(zip(monomials, dense_rows(rows, len(ansatz))))
            assert len(system) == len(monomials)  # one row per residual monomial
            assert system == definitional_system(s, ansatz)
            assert solve_weight(s, m).basis == full_ansatz_basis(s, m), m
            if integral:
                assert all(type(v) is int for row in rows for _, v in row)

    @pytest.mark.parametrize(
        "s",
        suite_surfaces() + rational_gamma_surfaces(),
        ids=lambda s: f"k{s.k}-" + ",".join(str(g) for g in s.gamma),
    )
    def test_rows_are_sparse(self, s):
        integral = all(g.denominator == 1 for g in s.gamma)
        for m in range(-s.k, 3 * s.k + 1):
            ansatz = build_ansatz(s, m)
            if not len(ansatz):
                continue
            _, rows = unit_system(ansatz)
            for row in rows:
                columns = [j for j, _ in row]
                assert columns and columns == sorted(set(columns))
                assert all(c != 0 for _, c in row)
                if integral:
                    assert all(type(c) is int for _, c in row)

    def test_xi_products_built_once_per_power_over_a_scan(self, monkeypatch):
        s = ModelSurface(4, binomial_gamma(4, 2, 3))
        weights = range(-s.k, 33)
        multiplied = []
        mul = Poly.__mul__

        def spy(left, right):
            if right is s.p_x:
                multiplied.append(left)
            return mul(left, right)

        monkeypatch.setattr(Poly, "__mul__", spy)
        for m in weights:
            unit_system(build_ansatz(s, m))
        top = max(
            ey for m in weights for comp, (_, ey, _, _) in build_ansatz(s, m).unknowns if comp == "xi"
        )
        assert multiplied == [s.y_power(j) for j in range(top + 1)]

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

    def test_returns_symbolic_basis(self, suite):
        for s in suite:
            for m in range(-s.k, 3 * s.k + 1):
                kb = solve_weight(s, m)
                t = len(build_ansatz(s, m))
                assert brute_force_check(s, m) == KernelBasis(m, kb.basis, (2 * t + 16, t))

    @pytest.mark.parametrize("den", [1, 2])
    def test_gamma_denominator_divisible_by_q(self, den):
        q = solver._ORACLE_PRIME
        s = ModelSurface(3, (Fraction(1, den * q), 1))
        with pytest.raises(ValueError, match=f"q = {q}"):
            brute_force_check(s, 0)


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

    def test_dropped_prolonged_candidate(self, monkeypatch):
        # without x^(w+1) d_x the prolonged step keeps, of the grading and the relative
        # dilation, only the combination free of d_x; the oracle checks that same solve
        prolonged, solve = solver._solve_prolonged, solver._solve

        def without_xi(ansatz, below):
            xi = [("xi", (ansatz.weight + 1, 0, 0, 0))]

            def solve_kept(ansatz, candidates):
                kept = [c for c in candidates if [ansatz.unknowns[j] for j, _ in c] != xi]
                return solve(ansatz, kept)

            with monkeypatch.context() as inner:
                inner.setattr(solver, "_solve", solve_kept)
                return prolonged(ansatz, below)

        monkeypatch.setattr(solver, "_solve_prolonged", without_xi)
        cold_solve_weight(monkeypatch)
        with pytest.raises(OracleMismatchError, match="dimension 2 != symbolic dimension 1"):
            brute_force_check(self.S, self.M)


def reference_surface_values(s, x, b):
    # the Fraction evaluation the integer rows replaced, kept verbatim
    p = Fraction(0)
    p_x = Fraction(0)
    p_b = Fraction(0)
    k = s.k
    for i, g in enumerate(s.gamma, start=1):
        if g == 0:
            continue
        p += g * b**i * x ** (k - i)
        if k - i >= 1:
            p_x += g * (k - i) * b**i * x ** (k - i - 1)
        p_b += g * i * b ** (i - 1) * x ** (k - i)
    return p, p_x, p_b


def reference_slot_values(unknowns, s, x, a, b):
    # residual eta - alpha - beta P_b - xi P_x of each unit field at one point
    p, p_x, p_b = reference_surface_values(s, x, b)
    y = a + p
    values = []
    for comp, (ex, ey, ea, eb) in unknowns:
        if comp == "eta":
            values.append(x**ex * y**ey)
        elif comp == "xi":
            values.append(-(x**ex * y**ey) * p_x)
        elif comp == "alpha":
            values.append(-(a**ea * b**eb))
        else:
            values.append(-(a**ea * b**eb) * p_b)
    return values


def exponent_maxima(unknowns):
    return tuple(max(exp[v] for _, exp in unknowns) for v in range(4))


def oracle_points(s, m, count):
    """The first ``count`` points ``brute_force_check`` draws at weight m."""
    rng = random.Random((solver._ORACLE_SEED, s.k, tuple(s.gamma), m).__repr__())
    return [tuple(rng.randrange(solver._ORACLE_PRIME) for _ in range(3)) for _ in range(count)]


def mod_q(v):
    """An exact rational with denominator prime to q, reduced into F_q."""
    q = solver._ORACLE_PRIME
    return v.numerator * pow(v.denominator, -1, q) % q


def reference_rows_mod_q(unknowns, s, x, a, b):
    return [mod_q(v) for v in reference_slot_values(unknowns, s, x, a, b)]


# the k ladder up to k = 12 keeps the test near 2 s; k = 16 and 20 would add 1.5 s
ORACLE_ROW_SURFACES = (
    suite_surfaces()
    + rational_gamma_surfaces()
    + [s for s in k_ladder_surfaces() if s.k <= 12]
)

# every point with coordinates 0 and q - 1
EDGE_POINTS = list(itertools.product((0, solver._ORACLE_PRIME - 1), repeat=3))


class TestOracleRows:
    """Each F_q oracle row is the Fraction reference row reduced mod q."""

    @pytest.mark.parametrize("s", ORACLE_ROW_SURFACES, ids=surface_id)
    def test_seeded_points(self, s):
        gamma = [mod_q(g) for g in s.gamma]
        for m in range(-s.k, 3 * s.k + 1):
            unknowns = build_ansatz(s, m).unknowns
            maxima = exponent_maxima(unknowns)
            for x, a, b in oracle_points(s, m, 5) + EDGE_POINTS:
                row = solver._slot_values(unknowns, maxima, gamma, x, a, b)
                assert row == reference_rows_mod_q(unknowns, s, x, a, b)

    @pytest.mark.parametrize(
        "s",
        [ModelSurface(4, binomial_gamma(4, 2, 3)), ModelSurface(6, (0, 1, 0, 1, 0))]
        + rational_gamma_surfaces(),
        ids=surface_id,
    )
    def test_same_kernel_basis_as_reference_rows(self, s, monkeypatch):
        weights = range(-s.k, 3 * s.k + 1)
        sampled = [brute_force_check(s, m) for m in weights]
        monkeypatch.setattr(
            solver,
            "_slot_values",
            lambda unknowns, maxima, gamma, x, a, b: reference_rows_mod_q(unknowns, s, x, a, b),
        )
        assert [brute_force_check(s, m) for m in weights] == sampled


class TestOracleIndependence:
    """The oracle shares no code with the symbolic path it checks."""

    SYMBOLIC_HELPERS = [
        (solver, "tangency_system"),
        (ModelSurface, "y_power"),
        (ModelSurface, "y_power_p_x"),
        (Poly, "__mul__"),
        (Poly, "eval_exact"),
        (linalg, "nullspace_modular"),
        (linalg, "nullspace_bareiss"),
    ]

    def spy(self, monkeypatch):
        calls = {}
        for owner, name in self.SYMBOLIC_HELPERS:
            key = f"{owner.__name__}.{name}"
            calls[key] = 0
            original = getattr(owner, name)

            def counted(*args, _key=key, _original=original, **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize(
        "s", [ModelSurface(5, binomial_gamma(5, 2, 3))] + rational_gamma_surfaces()[:1],
        ids=surface_id,
    )
    def test_oracle_calls_no_symbolic_helper(self, s, monkeypatch):
        weights = range(-s.k, 3 * s.k + 1)
        for m in weights:
            solve_weight(s, m)
        calls = self.spy(monkeypatch)
        for m in weights:
            brute_force_check(s, m)
        assert calls == dict.fromkeys(calls, 0)

    def test_spies_see_the_symbolic_path(self, monkeypatch):
        # control: the same spies do count the uncached symbolic solve
        s = ModelSurface(4, binomial_gamma(4, 2, 3))
        calls = self.spy(monkeypatch)
        solve_weight.__wrapped__(s, 0)
        for key in (
            "paracr.solver.tangency_system",
            "ModelSurface.y_power",
            "ModelSurface.y_power_p_x",
            "Poly.__mul__",
            "paracr.linalg.nullspace_modular",
        ):
            assert calls[key] > 0, key


def oracle_workload_pairs():
    """The (surface, weight) pairs of the ``oracle`` benchmark workload."""
    surfaces = [
        ModelSurface(5, monomial_gamma(5, 2)),
        ModelSurface(5, binomial_gamma(5, 2, 3)),
        ModelSurface(6, (0, 1, 0, 1, 0)),
        ModelSurface(4, monomial_gamma(4, 3)),
    ]
    return [(s, m) for s in surfaces for m in range(-s.k, 3 * s.k + 1)]


class TestOracleLazyRows:
    """A point is drawn and its row built only when the elimination reads it."""

    def test_full_rank_weights_stop_sampling(self, monkeypatch):
        slot_values, rank_mod_q = solver._slot_values, solver._rank_mod_q
        built, read = [0], []

        def counting_slot_values(*args):
            built[0] += 1
            return slot_values(*args)

        def counting_rank_mod_q(rows, ncols):
            consumed = [0]

            def counted():
                for row in rows:
                    consumed[0] += 1
                    yield row

            rank = rank_mod_q(counted(), ncols)
            read.append(consumed[0])
            return rank

        monkeypatch.setattr(solver, "_slot_values", counting_slot_values)
        monkeypatch.setattr(solver, "_rank_mod_q", counting_rank_mod_q)
        full_rank = with_kernel = total = 0
        for s, m in oracle_workload_pairs():
            t, dimension = len(build_ansatz(s, m)), solve_weight(s, m).dimension
            built[0], read[:] = 0, []
            brute_force_check(s, m)
            total += built[0]
            if dimension == 0:
                # the first elimination reads the sampled rows
                assert built[0] == read[0] < 2 * t + 16, (s.gamma, m)
                full_rank += 1
            else:
                assert built[0] == read[0] == 2 * t + 16, (s.gamma, m)
                with_kernel += 1
        assert (full_rank, with_kernel) == (71, 13)
        # all 2t + 16 points at every weight would build 2,832 rows
        assert total == 1020


class TestOracleBudget:
    # The 84 weights take 0.039-0.069 s (7 runs, each in a fresh interpreter)
    # on a 2-vCPU Xeon under Python 3.11; the budget is 3x the 0.069 s maximum.
    BUDGET_S = 0.21

    def test_oracle_workload_weights(self):
        pairs = oracle_workload_pairs()
        assert len(pairs) == 84
        for s, m in pairs:
            solve_weight(s, m)
        start = time.perf_counter()
        for s, m in pairs:
            brute_force_check(s, m)
        elapsed = time.perf_counter() - start
        assert elapsed < self.BUDGET_S, f"oracle took {elapsed:.2f}s, budget {self.BUDGET_S}s"


class TestWeightLadderBudget:
    # Cold, the three cap-32 surfaces (109 weights) take 0.012-0.021 s (7 runs,
    # each in a fresh interpreter) on a 2-vCPU Xeon under Python 3.11; the
    # budget is 3x the 0.0214 s maximum.
    BUDGET_S = 0.064

    def test_weight_ladder_surfaces(self):
        solve_weight.cache_clear()
        surfaces = [ModelSurface(3, (3, 3)), ModelSurface(3, (1, 0)), ModelSurface(4, (1, 0, 1))]
        start = time.perf_counter()
        dimensions = [solve_algebra(s, 32).dimension for s in surfaces]
        elapsed = time.perf_counter() - start
        assert dimensions == [3, 6, 2]
        assert elapsed < self.BUDGET_S, f"solve_algebra took {elapsed:.2f}s, budget {self.BUDGET_S}s"


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
        for i in range(alg.dimension):
            for j in range(alg.dimension):
                target = alg.weights[i] + alg.weights[j]
                for l, c in enumerate(alg.structure_constants[i][j]):
                    if c != 0:
                        assert alg.weights[l] == target


SCAN_SURFACES = suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces()


def solved_weights(monkeypatch, plant=None):
    """Patch the scan's per-weight step to record each weight it is called for;
    ``plant`` maps a weight to an extra field added to that weight's basis."""
    real = solver._solve_prolonged
    calls = []

    def spy(ansatz, below):
        m = ansatz.weight
        calls.append(m)
        kb = real(ansatz, below)
        if plant and m in plant:
            return KernelBasis(m, kb.basis + (plant[m],), kb.system_shape)
        return kb

    monkeypatch.setattr(solver, "_solve_prolonged", spy)
    return calls


def patch_weight_bases(monkeypatch, edit):
    """Make ``solve_weight`` and the scan's per-weight step both return
    ``edit(m, basis)`` of the full-ansatz reference basis at each weight m."""

    def patched(s, m):
        return KernelBasis(m, edit(m, full_ansatz_basis(s, m)), (0, 0))

    monkeypatch.setattr(solver, "solve_weight", patched)
    monkeypatch.setattr(
        solver, "_solve_prolonged", lambda ansatz, below: patched(ansatz.surface, ansatz.weight)
    )


class TestWeightScan:
    """The default scan stops at c + k, c = max(k - 2, highest weight found)."""

    @staticmethod
    def commuting_tangent_fields(s, w):
        """Kernel of the weight-w tangency system stacked on [V, X] = 0."""
        ansatz = build_ansatz(s, w)
        below = build_ansatz(s, w - s.k)
        _, rows = unit_system(ansatz)
        rows = dense_rows(rows, len(ansatz))
        columns = []
        for i in range(len(ansatz)):
            br = vertical_translation().bracket(ansatz.unit_field(i))
            vec = below.vector_from_field(br)
            assert below.field_from_vector(vec) == br
            columns.append(vec)
        return linalg.nullspace_gauss_jordan(rows + [list(r) for r in zip(*columns)], len(ansatz))

    @pytest.mark.parametrize("s", suite_surfaces(), ids=surface_id)
    def test_lemma_at_ansatz_level(self, s):
        for w in range(s.k - 1, 3 * s.k + 1):
            assert self.commuting_tangent_fields(s, w) == [], (s.k, w)

    def test_commuting_field_below_k_minus_1_is_found(self):
        # control: the binomial weight -1 generator commutes with V
        assert len(self.commuting_tangent_fields(ModelSurface(4, binomial_gamma(4)), -1)) == 1

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "s", [ModelSurface(4, (0, 1, 0)), ModelSurface(4, binomial_gamma(4))], ids=surface_id
    )
    def test_planted_kernel_extends_scan(self, monkeypatch, s, j):
        c = max(s.k - 2, max(solve_algebra(s).weights))
        planted = c + j
        calls = solved_weights(monkeypatch, {planted: build_ansatz(s, planted).unit_field(0)})
        alg = solve_algebra(s)
        assert planted in alg.weights
        assert alg.weight_cap == planted + s.k
        assert calls == list(range(-s.k, planted + s.k + 1))
        assert alg.complete

    @pytest.mark.parametrize("s", SCAN_SURFACES, ids=surface_id)
    def test_same_algebra_as_cap_3k(self, s):
        alg = solve_algebra(s)
        capped = solve_algebra(s, 3 * s.k)
        assert alg.weights == capped.weights
        assert alg.structure_constants == capped.structure_constants
        assert alg.closure_violations == capped.closure_violations
        assert alg.complete and capped.complete
        assert alg.weight_cap == max(s.k - 2, max(alg.weights)) + s.k

    def test_complete_needs_c_plus_k(self):
        # the special conformal generator lives at weight k = 4
        s = ModelSurface(4, (0, 1, 0))
        assert solve_algebra(s).weight_cap == 8
        assert not solve_algebra(s, 4).complete
        assert not solve_algebra(s, 7).complete
        assert solve_algebra(s, 8).complete

    @pytest.mark.parametrize("cap", [4, 9, 14])
    def test_explicit_cap_solves_exactly_its_weights(self, monkeypatch, cap):
        calls = solved_weights(monkeypatch)
        alg = solve_algebra(ModelSurface(4, (1, 0, 1)), cap)
        assert calls == list(range(-4, cap + 1))
        assert alg.weight_cap == cap

    @pytest.mark.parametrize(
        "gamma, stop",
        [(binomial_gamma(30), 58), (monomial_gamma(30, 15), 60)],
        ids=["binomial-k30", "monomial-k30-iota15"],
    )
    def test_weights_solved_at_k30(self, monkeypatch, gamma, stop):
        calls = solved_weights(monkeypatch)
        alg = solve_algebra(ModelSurface(30, gamma))
        assert calls == list(range(-30, stop + 1))
        assert alg.weight_cap == stop and alg.complete

    def test_binomial_k30_runtime_budget(self):
        # cold, on a fresh surface: 0.013-0.025 s (17 runs, each in a fresh interpreter)
        # on a 2-vCPU Xeon under Python 3.11; the budget is 3x the 0.0249 s maximum
        s = ModelSurface(30, binomial_gamma(30))
        start = time.perf_counter()
        solve_algebra(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.075, f"solve_algebra took {elapsed:.3f}s"


def _field_keys(fields):
    keys = set()
    for f in fields:
        for ci, comp in enumerate((f.alpha, f.beta, f.xi, f.eta)):
            for exp, _ in comp.items():
                keys.add((ci, exp))
    return sorted(keys, key=lambda key: (key[0], order_key(key[1])))


def _vectorize(f, keys):
    comps = (f.alpha, f.beta, f.xi, f.eta)
    return tuple(comps[ci].coefficient(exp) for ci, exp in keys)


def reference_bracket_table(s, weight_cap):
    """Structure constants and closure violations from the global-span loop:
    each bracket is expressed against every generator at once, in keys
    collected from all fields and the bracket."""
    generators = []
    for m in range(-s.k, weight_cap + 1):
        for f in solver.solve_weight(s, m).basis:
            generators.append((m, f))
    fields = [f for _, f in generators]
    n = len(fields)
    zero_row = tuple(Fraction(0) for _ in range(n))
    table = [[zero_row] * n for _ in range(n)]
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            br = fields[i].bracket(fields[j])
            if br.is_zero:
                continue
            keys = _field_keys(fields + [br])
            basis_vectors = [_vectorize(f, keys) for f in fields]
            coeffs = linalg.solve_in_span(basis_vectors, _vectorize(br, keys))
            if coeffs is None:
                violations.append(
                    solver.ClosureViolation(i, j, generators[i][0] + generators[j][0])
                )
                continue
            table[i][j] = tuple(coeffs)
            table[j][i] = tuple(-c for c in coeffs)
    return tuple(tuple(row) for row in table), tuple(violations)


GRADED_CASES = [
    (s, cap)
    for s in suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces()
    for cap in (s.k, 2 * s.k, 3 * s.k)
] + [(s, 32) for s in WEIGHT_LADDER_SURFACES]


class TestGradedBrackets:
    """Brackets solved per weight give the global-span loop's table and violations."""

    def assert_matches_reference(self, s, cap):
        alg = solve_algebra(s, cap)
        table, violations = reference_bracket_table(s, cap)
        assert alg.structure_constants == table
        assert alg.closure_violations == violations
        return alg

    @pytest.mark.parametrize(
        "s, cap", GRADED_CASES, ids=[f"{surface_id(s)}-cap{cap}" for s, cap in GRADED_CASES]
    )
    def test_same_table_as_global_span(self, s, cap):
        alg = self.assert_matches_reference(s, cap)
        assert alg.closure_violations == ()

    def test_weight_basis_misses_bracket(self, monkeypatch):
        # dropping a weight-0 generator of the monomial k=4 algebra leaves
        # [translation, special conformal] outside the weight-0 span
        patch_weight_bases(monkeypatch, lambda m, basis: basis[:1] if m == 0 else basis)
        s = ModelSurface(4, (0, 1, 0))
        alg = self.assert_matches_reference(s, 4)
        assert alg.closure_violations
        assert all(-4 <= v.weight_sum <= 4 for v in alg.closure_violations)

    def test_bracket_weight_above_cap(self, monkeypatch):
        # an extra field at the cap brackets with the weight-k generator to weight 2k
        s = ModelSurface(4, (0, 1, 0))
        extra = build_ansatz(s, 4).unit_field(0)
        patch_weight_bases(monkeypatch, lambda m, basis: basis + (extra,) if m == 4 else basis)
        alg = self.assert_matches_reference(s, 4)
        assert any(v.weight_sum > 4 for v in alg.closure_violations)

    def test_term_outside_ansatz_is_a_violation(self, monkeypatch):
        # a weight-0 "generator" with a stray a^2 d_a: its bracket with the
        # translation d_a + d_y has the term 2a d_a outside the weight -4 ansatz,
        # while the rest, the bracket with the grading field, lies in the span
        s = ModelSurface(4, (0, 1, 0))
        stray = grading_field(4)
        stray = surface.ParaVectorField(stray.alpha + P("a^2"), stray.beta, stray.xi, stray.eta)
        patch_weight_bases(monkeypatch, lambda m, basis: (stray,) if m == 0 else basis)
        alg = solve_algebra(s, 4)
        i, j = alg.weights.index(-4), alg.weights.index(0)
        assert solver.ClosureViolation(i, j, -4) in alg.closure_violations


PROLONGED_CASES = [(s, None) for s in SCAN_SURFACES] + [(s, 32) for s in WEIGHT_LADDER_SURFACES]


class TestProlongedSolve:
    """The scan solves each weight on the preimage under ad V of the weight below."""

    @pytest.mark.parametrize(
        "s, cap",
        PROLONGED_CASES,
        ids=[f"{surface_id(s)}-cap{cap}" for s, cap in PROLONGED_CASES],
    )
    def test_same_basis_as_full_ansatz(self, monkeypatch, s, cap):
        real = solver._solve_prolonged
        steps = []

        def spy(ansatz, below):
            kb = real(ansatz, below)
            steps.append((ansatz, len(below), kb))
            return kb

        monkeypatch.setattr(solver, "_solve_prolonged", spy)
        alg = solve_algebra(s, cap)
        assert [ansatz.weight for ansatz, _, _ in steps] == list(range(-s.k, alg.weight_cap + 1))
        for ansatz, below, kb in steps:
            m = ansatz.weight
            assert kb.basis == full_ansatz_basis(s, m), m
            # the same one form of every coefficient: primitive ints
            assert all(type(c) is int for f in kb.basis for c in ansatz.vector_from_field(f))
            assert below == len(full_ansatz_basis(s, m - s.k))
            assert kb.system_shape[1] <= below + 4, m

    @pytest.mark.parametrize("s", suite_surfaces() + rational_gamma_surfaces(), ids=surface_id)
    def test_candidate_columns_match_their_residuals(self, monkeypatch, s):
        # each candidate's column, against tangency_residual of the field it stands for
        real = solver._solve
        steps = []

        def spy(ansatz, candidates):
            steps.append((ansatz, candidates))
            return real(ansatz, candidates)

        monkeypatch.setattr(solver, "_solve", spy)
        alg = solve_algebra(s)
        assert [ansatz.weight for ansatz, _ in steps] == list(range(-s.k, alg.weight_cap + 1))
        for ansatz, candidates in steps:
            monomials, rows = tangency_system(ansatz, candidates)
            for col, candidate in enumerate(candidates):
                vec = [0] * len(ansatz)
                for j, c in candidate:
                    vec[j] += c
                expected = tangency_residual(ansatz.field_from_vector(vec), s)
                column = {e: v for e, row in zip(monomials, rows) for j, v in row if j == col and v}
                assert column == dict(expected.items()), (ansatz.weight, col)


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
