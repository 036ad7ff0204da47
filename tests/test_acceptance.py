"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is pinned to a tolerance (exact where the arithmetic is exact)
and a desk-scale runtime budget; the budget assertions allow 3x slack so
slow machines do not flake while pathological regressions still fail.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from paracr import liealg, sturm
from paracr.embedding import solve_embedding
from paracr.flows import (
    EXP_V0,
    EXP_V0PRIME,
    EXP_VK,
    EXP_VM1,
    EXP_VMK,
    discrete_group,
    flow,
    rk4_mismatch,
    sample_on_surface,
    verify_flow,
)
from paracr.normalform import (
    BINOMIAL,
    GENERIC,
    LINE,
    MONOMIAL,
    PENCIL,
    POINT,
    DefiningFunction,
    detect_case,
    finite_type,
    normalize_binomial,
    singular_locus,
)
from paracr.poly import Grading, Poly
from paracr.report import analyze
from paracr.solver import brute_force_check, build_ansatz, solve_algebra, solve_weight
from paracr.surface import ModelSurface, ParaVectorField, tangency_residual, weight_of
from conftest import (
    BINOMIALS,
    GENERICS,
    INTERIOR_MONOMIALS,
    binomial_gamma,
    monomial_gamma,
    random_para_field,
    random_poly,
    suite_surfaces,
)


@contextmanager
def criterion(num, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {num:2d}] FAIL ({elapsed:.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:2d}] PASS ({elapsed:.2f}s): {description}")
    assert elapsed < 3 * budget_s, (
        f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"
    )


def test_criterion_01_interior_monomials():
    with criterion(1, "interior monomials give sl(2)+center in dimension 4", 2 * 4):
        for k, iota in INTERIOR_MONOMIALS:
            alg = solve_algebra(ModelSurface(k, monomial_gamma(k, iota)))
            assert alg.dimension == 4
            assert sorted(alg.weights) == [-k, 0, 0, k]
            label = liealg.classify(
                liealg.profile(liealg.structure_constants(alg))
            ).label
            assert label == liealg.SL2_PLUS_CENTER


def test_criterion_02_binomials():
    with criterion(2, "binomial surfaces give the solvable 3d algebra", 2 * 8):
        for k in (3, 4, 5):
            for delta, nu in ((1, 1), (2, 3)):
                alg = solve_algebra(ModelSurface(k, binomial_gamma(k, delta, nu)))
                assert alg.dimension == 3
                assert sorted(alg.weights) == [-k, -1, 0]
                label = liealg.classify(
                    liealg.profile(liealg.structure_constants(alg))
                ).label
                assert label == liealg.SOLVABLE_3D_WEIGHTS_K_1
                i_low = alg.weights.index(-k)
                i_mid = alg.weights.index(-1)
                i_zero = alg.weights.index(0)
                c = alg.structure_constants
                # [V_0, V_-k] = -k V_-k
                expected = [Fraction(0)] * 3
                expected[i_low] = Fraction(-k)
                assert list(c[i_zero][i_low]) == expected
                # [V_0, V_-1] = -V_-1
                expected = [Fraction(0)] * 3
                expected[i_mid] = Fraction(-1)
                assert list(c[i_zero][i_mid]) == expected
                # [V_-1, V_-k] = 0
                assert all(v == 0 for v in c[i_mid][i_low])


def test_criterion_03_generic_surfaces():
    with criterion(3, "generic surfaces give the affine line algebra", 2 * 3):
        for k, gamma in GENERICS:
            s = ModelSurface(k, tuple(Fraction(g) for g in gamma))
            assert detect_case(s).kind == GENERIC
            alg = solve_algebra(s)
            assert alg.dimension == 2
            label = liealg.classify(
                liealg.profile(liealg.structure_constants(alg))
            ).label
            assert label == liealg.AFFINE_LINE_2D


def test_criterion_04_vanishing_weights():
    surfaces = suite_surfaces()
    with criterion(4, "kernel dimensions vanish off the allowed weights", 10 * len(surfaces)):
        for s in surfaces:
            k = s.k
            det = detect_case(s)
            boundary = det.kind == MONOMIAL and det.iota in (1, k - 1)
            exempt = set()
            if det.kind == BINOMIAL or boundary:
                exempt.add(-1)
            if boundary:
                exempt.add(k - 1)
            weights = list(range(-k + 1, 0)) + list(range(1, k)) + list(
                range(k + 1, 3 * k + 1)
            )
            for m in weights:
                dim = solve_weight(s, m).dimension
                if m in exempt:
                    continue
                assert dim == 0, f"k={k} gamma={s.gamma} weight {m}: dim {dim}"


def test_criterion_05_oracle_equivalence():
    surfaces = suite_surfaces()
    with criterion(5, "interpolation oracle agrees with the symbolic kernel", 30):
        for s in surfaces:
            for m in range(-s.k, 3 * s.k + 1):
                brute_force_check(s, m)  # raises on dimension or span mismatch


def test_criterion_06_boundary_audit():
    with criterion(6, "boundary monomials surface a dimension warning", 2 * 2):
        for k in (3, 4):
            s = ModelSurface(k, monomial_gamma(k, 1))
            dims = {m: solve_weight(s, m).dimension for m in (-1, k - 1)}
            assert dims == {-1: 1, k - 1: 1}
            alg = solve_algebra(s)
            for _, f in alg.generators:
                assert tangency_residual(f, s).is_zero
            rep = analyze(k, s.gamma, flow_samples=4)
            assert alg.dimension != 4
            assert any(w.startswith("dimension:") for w in rep.warnings)
            assert any(w.startswith("boundary:") for w in rep.warnings)


def test_criterion_07_flows():
    surfaces = suite_surfaces()
    with criterion(7, "closed-form flows verify and match the RK4 oracle", 20):
        for s in surfaces:
            samples = sample_on_surface(s, 20)
            det = detect_case(s)
            for name, param, partner in (
                (EXP_VMK, Fraction(1, 10), Fraction(1, 7)),
                (EXP_V0, Fraction(2), Fraction(3, 2)),
            ):
                ver = verify_flow(flow(name, s, param), samples, group_partner=partner)
                assert ver.passed, (s.gamma, name, ver)
                surf = [c for c in ver.checks if c.check == "surface_preservation"][0]
                assert surf.exact and surf.max_residual == 0.0
            if det.kind == MONOMIAL:
                ver = verify_flow(flow(EXP_V0PRIME, s, 3), samples, group_partner=2)
                assert ver.passed
                surf = [c for c in ver.checks if c.check == "surface_preservation"][0]
                assert surf.exact and surf.max_residual == 0.0
                for t in (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 7), Fraction(-1, 7)):
                    ver = verify_flow(
                        flow(EXP_VK, s, t),
                        samples,
                        group_partner=Fraction(1, 7),
                        tolerance=1e-9,
                    )
                    assert ver.passed, (s.gamma, t, ver)
            if det.kind == BINOMIAL:
                ver = verify_flow(
                    flow(EXP_VM1, s, Fraction(1, 10)), samples, group_partner=Fraction(1, 7)
                )
                assert ver.passed
                surf = [c for c in ver.checks if c.check == "surface_preservation"][0]
                assert surf.exact and surf.max_residual == 0.0
        # RK4 oracle: all five closed forms, 20 points per case, t in [0, 0.1]
        exp_t = Fraction(math.exp(0.1)).limit_denominator(10**12)
        representatives = {
            MONOMIAL: ModelSurface(4, monomial_gamma(4, 2)),
            BINOMIAL: ModelSurface(3, binomial_gamma(3)),
            GENERIC: ModelSurface(4, (1, 0, 1)),
        }
        for kind, s in representatives.items():
            samples = sample_on_surface(s, 20)
            oracle_flows = [flow(EXP_VMK, s, Fraction(1, 10)), flow(EXP_V0, s, exp_t)]
            if kind == MONOMIAL:
                oracle_flows += [flow(EXP_V0PRIME, s, exp_t), flow(EXP_VK, s, Fraction(1, 10))]
            if kind == BINOMIAL:
                oracle_flows.append(flow(EXP_VM1, s, Fraction(1, 10)))
            for fm in oracle_flows:
                assert rk4_mismatch(fm, samples, steps=1000) < 1e-6, (s.gamma, fm.name)


def test_criterion_08_discrete_groups():
    with criterion(8, "discrete automorphism groups", 1):
        expected = [
            (4, (0, 1, 0), "Z2xZ2"),
            (3, (1, 1), "Z2"),
            (5, (1, 0, 1, 0), "Z2xZ2"),
        ]
        for k, gamma, kind in expected:
            s = ModelSurface(k, tuple(Fraction(g) for g in gamma))
            group = discrete_group(s)
            assert group.kind == kind
            for g in group.generators:
                image = g.transform_poly(s.defining_poly)
                assert image in (s.defining_poly, -s.defining_poly)
                pt = s.point_from_xab(Fraction(1, 2), Fraction(-1), Fraction(2, 3))
                assert g.apply(g.apply(pt)) == pt


def test_criterion_09_finite_type():
    with criterion(9, "finite-type detection", 1):
        r = finite_type(DefiningFunction(Poly.parse("b^2 x^2")))
        assert r.is_finite and r.k == 4
        assert finite_type(DefiningFunction(Poly.parse("a b"))).kind == "INFINITE"
        r = finite_type(DefiningFunction(Poly.parse("x^3 + b x^2")))
        assert r.is_finite and r.k == 3
        assert r.gamma == (Fraction(1), Fraction(0))


def test_criterion_10_singular_locus():
    with criterion(10, "singular locus trichotomy with Sturm cross-check", 2):
        assert singular_locus(ModelSurface(4, (0, 1, 0))).kind == PENCIL
        assert singular_locus(ModelSurface(4, (1, 0, 0))).kind == LINE
        assert singular_locus(ModelSurface(4, (1, 0, 1))).kind == POINT
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            roots = sorted(rng.sample(range(-6, 7), rng.randint(0, 4)))
            coeffs = [Fraction(1)]

            def mul(c1, c2):
                out = [Fraction(0)] * (len(c1) + len(c2) - 1)
                for i, u in enumerate(c1):
                    for j, v in enumerate(c2):
                        out[i + j] += u * v
                return out

            for r in roots:
                coeffs = mul(coeffs, [Fraction(-r), Fraction(1)])
            for _ in range(rng.randint(0, 2)):
                p = rng.randint(-2, 2)
                q = rng.randint(p * p // 4 + 1, p * p // 4 + 4)
                coeffs = mul(coeffs, [Fraction(q), Fraction(p), Fraction(1)])
            if not 1 <= sturm.degree(coeffs) <= 8:
                continue
            checked += 1
            assert sturm.count_real_roots(coeffs) == len(roots)
            np_roots = np.roots([float(c) for c in reversed(coeffs)])
            reals = [z.real for z in np_roots if abs(z.imag) < 1e-6]
            distinct = []
            for r in sorted(reals):
                if not distinct or abs(r - distinct[-1]) > 1e-4:
                    distinct.append(r)
            assert len(distinct) == len(roots)


def test_criterion_11_binomial_normalization():
    with criterion(11, "binomial normalization onto gamma_i = C(k, i)", 1):
        for k, delta, nu in BINOMIALS:
            s = ModelSurface(k, binomial_gamma(k, delta, nu))
            det = detect_case(s)
            res = normalize_binomial(s, det)
            assert res.normalized.gamma == tuple(
                Fraction(comb(k, i)) for i in range(1, k)
            )
            mc = res.model_change
            image = mc.y_map - mc.a_map - res.normalized.p.substitute({"b": mc.b_map})
            assert image == Fraction(1, Fraction(delta)) * s.defining_poly
            redet = detect_case(res.normalized)
            assert redet.kind == BINOMIAL
            assert (redet.delta, redet.nu) == (Fraction(1), Fraction(1))


def test_criterion_12_embedding_series():
    with criterion(12, "transport series solve the Cauchy problem", 1):
        for text in ("0", "3", "a", "x b"):
            series = solve_embedding(Poly.parse(text), 8)
            assert series.transport_residual().is_zero  # through b^7
        series = solve_embedding(Poly.parse("a"), 8)
        for j, c in enumerate(series.coeffs):
            assert c == Fraction((-1) ** j, factorial(j)) * Poly.parse("a")


def test_criterion_13_property_suites():
    with criterion(13, "six randomized property suites, 1000 exact cases each", 60):
        rng = random.Random(987654321)

        for _ in range(1000):  # ring axioms
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

        for _ in range(1000):  # Leibniz
            p, q = random_poly(rng), random_poly(rng)
            v = rng.choice(("x", "y", "a", "b"))
            assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

        for _ in range(1000):  # Jacobi
            u, v, w = (random_para_field(rng, 2, 2) for _ in range(3))
            total = (
                u.bracket(v).bracket(w)
                + v.bracket(w).bracket(u)
                + w.bracket(u).bracket(v)
            )
            assert total.is_zero

        for _ in range(1000):  # bracket closure under para-holomorphicity
            v, w = random_para_field(rng), random_para_field(rng)
            br = v.bracket(w)  # constructor re-validates the split
            assert br.alpha.uses_only(("a", "b")) and br.beta.uses_only(("a", "b"))
            assert br.xi.uses_only(("x", "y")) and br.eta.uses_only(("x", "y"))

        s = ModelSurface(3, (1, 1))
        for _ in range(1000):  # residual linearity
            v, w = random_para_field(rng, 2, 2), random_para_field(rng, 2, 2)
            c1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            c2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            lhs = tangency_residual(c1 * v + c2 * w, s)
            rhs = c1 * tangency_residual(v, s) + c2 * tangency_residual(w, s)
            assert lhs == rhs

        g = Grading(4)
        s4 = ModelSurface(4, (0, 1, 0))
        count = 0
        while count < 1000:  # graded bracket weight additivity
            m = rng.randint(-4, 6)
            n = rng.randint(-4, 6)
            am, an = build_ansatz(s4, m), build_ansatz(s4, n)
            if len(am) == 0 or len(an) == 0:
                continue
            v = am.field_from_vector([rng.randint(-3, 3) for _ in range(len(am))])
            w = an.field_from_vector([rng.randint(-3, 3) for _ in range(len(an))])
            count += 1
            br = v.bracket(w)
            if br.is_zero:
                continue
            assert weight_of(br, g) == m + n
