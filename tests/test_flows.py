import math
import random
import time
from fractions import Fraction

import pytest

from paracr.flows import (
    ADDITIVE,
    EXP_V0,
    EXP_V0PRIME,
    EXP_VK,
    EXP_VM1,
    EXP_VMK,
    FlowDomainError,
    InadmissibleFlowError,
    admissible_flow_names,
    discrete_group,
    flow,
    flow_time,
    rk4_mismatch,
    rk4_oracle,
    sample_on_surface,
    verify_flow,
    vm1_transcription_candidate,
    vm1_transcription_mismatch,
)
from paracr import flows as flows_mod
from paracr import surface as surface_mod
from paracr.normalform import detect_case
from paracr.poly import A, B, Poly, X, Y
from paracr.solver import vertical_translation, grading_field
from paracr.surface import ModelSurface, ParaVectorField
from conftest import (
    binomial_gamma,
    k_ladder_surfaces,
    monomial_gamma,
    rational_gamma_surfaces,
    suite_surfaces,
)
from test_poly import reference_eval_exact


def P(text):
    return Poly.parse(text)


MONO = ModelSurface(4, (0, 1, 0))
BINO = ModelSurface(3, (3, 3))
GEN = ModelSurface(4, (1, 0, 1))

# criterion 7's parameter per flow: time 1/10, or a factor of about e^(1/10)
EXP_TENTH = Fraction(math.exp(0.1)).limit_denominator(10**12)
RK4_PARAMS = {EXP_VMK: Fraction(1, 10), EXP_V0: EXP_TENTH, EXP_V0PRIME: EXP_TENTH,
              EXP_VK: Fraction(1, 10), EXP_VM1: Fraction(1, 10)}


class TestFlowConstruction:
    def test_translation_moves_origin(self):
        fm = flow(EXP_VMK, GEN, 1)
        assert fm.apply_exact((0, 0, 0, 0)) == (0, 1, 1, 0)

    def test_dilation_point(self):
        fm = flow(EXP_V0, ModelSurface(3, (1, 1)), 2)
        assert fm.apply_exact((1, 1, 1, 1)) == (2, 8, 8, 2)

    def test_dilation_requires_positive(self):
        with pytest.raises(FlowDomainError):
            flow(EXP_V0, MONO, 0)

    def test_admissibility(self):
        with pytest.raises(InadmissibleFlowError):
            flow(EXP_V0PRIME, GEN, 2)
        with pytest.raises(InadmissibleFlowError):
            flow(EXP_VK, BINO, Fraction(1, 10))
        with pytest.raises(InadmissibleFlowError):
            flow(EXP_VM1, MONO, 1)

    def test_vk_domain_violation(self):
        fm = flow(EXP_VK, MONO, 1)
        with pytest.raises(FlowDomainError):
            fm.apply_float((1.0, 2.0, 2.0, 1.0))  # 1 - t a < 0 with even root

    def test_vk_on_surface_image(self):
        fm = flow(EXP_VK, MONO, Fraction(1, 10))
        point = MONO.point_from_xab(1, 1, 1)
        image = fm.apply_float(tuple(float(v) for v in point))
        assert abs(MONO.defining_poly.eval_float(image)) < 1e-12

    def test_identity_at_zero_parameter(self):
        samples = sample_on_surface(BINO, 5)
        for name, param in [(EXP_VMK, 0), (EXP_VM1, 0)]:
            fm = flow(name, BINO, param)
            for p in samples:
                assert fm.apply_exact(p) == p
        fm = flow(EXP_V0, BINO, 1)
        for p in samples:
            assert fm.apply_exact(p) == p


class TestVerifyFlow:
    def test_translation_exact_everywhere(self, suite):
        for s in suite:
            samples = sample_on_surface(s, 6)
            ver = verify_flow(flow(EXP_VMK, s, Fraction(3, 2)), samples, group_partner=Fraction(-1, 3))
            assert ver.passed

    def test_dilation_exact_everywhere(self, suite):
        for s in suite:
            samples = sample_on_surface(s, 6)
            ver = verify_flow(flow(EXP_V0, s, Fraction(5, 2)), samples, group_partner=Fraction(3, 4))
            assert ver.passed

    def test_relative_dilation_exact(self):
        samples = sample_on_surface(MONO, 8)
        ver = verify_flow(flow(EXP_V0PRIME, MONO, 3), samples, group_partner=2)
        assert ver.passed
        surface_check = [c for c in ver.checks if c.check == "surface_preservation"][0]
        assert surface_check.exact and surface_check.max_residual == 0.0

    def test_vk_within_tolerance(self):
        samples = sample_on_surface(MONO, 20)
        for t in (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 7), Fraction(-1, 7)):
            ver = verify_flow(flow(EXP_VK, MONO, t), samples, group_partner=Fraction(1, 7))
            assert ver.passed, ver

    def test_vm1_exact_via_conjugation(self):
        for k, delta, nu in [(3, 1, 1), (4, 2, 3), (5, 1, 1)]:
            s = ModelSurface(k, binomial_gamma(k, delta, nu))
            samples = sample_on_surface(s, 8)
            ver = verify_flow(flow(EXP_VM1, s, Fraction(1, 10)), samples, group_partner=Fraction(1, 7))
            assert ver.passed
            surface_check = [c for c in ver.checks if c.check == "surface_preservation"][0]
            assert surface_check.exact and surface_check.max_residual == 0.0

    def test_float_group_law_fails_when_no_point_is_checked(self):
        # (x, a, b) = (0, 1, 0) lies in the domain of EXP_VK at t = 1/10, but
        # neither its image under that flow is in the partner's domain at
        # t = 1 nor the point itself in the combined flow's domain at 11/10
        point = MONO.point_from_xab(0, 1, 0)
        ver = verify_flow(flow(EXP_VK, MONO, Fraction(1, 10)), [point], group_partner=1)
        (group_law,) = [c for c in ver.checks if c.check == "group_law"]
        assert not group_law.passed
        assert group_law.max_residual is None
        assert "no sample" in group_law.detail
        assert not ver.passed

    def test_witnesses_nonzero_factors(self):
        samples = sample_on_surface(MONO, 6)
        ver = verify_flow(flow(EXP_V0, MONO, 2), samples)
        assert ver.witnesses
        for w in ver.witnesses:
            assert w.lam != 0 and w.mu != 0

    @pytest.mark.parametrize(
        "s, name, param, partner",
        [
            (GEN, EXP_VMK, Fraction(3, 2), Fraction(-1, 3)),
            (GEN, EXP_V0, Fraction(5, 2), Fraction(3, 4)),
            (MONO, EXP_V0PRIME, Fraction(3), Fraction(2)),
            (BINO, EXP_VM1, Fraction(1, 10), Fraction(1, 7)),
        ],
    )
    def test_each_image_is_computed_once(self, monkeypatch, s, name, param, partner):
        calls = []
        apply_exact = flows_mod.FlowMap.apply_exact

        def counting_apply_exact(fm, point):
            calls.append(fm.param)
            return apply_exact(fm, point)

        monkeypatch.setattr(flows_mod.FlowMap, "apply_exact", counting_apply_exact)
        n = 7
        samples = sample_on_surface(s, n)
        fm = flow(name, s, param)
        assert verify_flow(fm, samples).passed
        assert calls == [param] * n
        calls.clear()
        ver = verify_flow(fm, samples, group_partner=partner)
        assert ver.passed and any(c.check == "group_law" for c in ver.checks)
        # the image once, then the partner on it and the combined map on the point
        assert len(calls) == 3 * n
        assert calls.count(param) == n and calls.count(partner) == n

    def test_failing_exact_group_law_reports_its_residual(self):
        # EXP_Vmk with x -> x + t x^2 in place of x: with_param rebuilds the
        # true translation, so the partner does not compose with this map and
        # the residual t x^2 differs from sample to sample
        t, partner = Fraction(3, 2), Fraction(-1, 3)
        comps = (X + t * X**2, Y + Poly.constant(t), A + Poly.constant(t), B)
        fm = flows_mod._poly_flow(
            EXP_VMK, GEN, detect_case(GEN), t, ADDITIVE, vertical_translation(), comps
        )
        samples = sample_on_surface(GEN, 9)
        ver = verify_flow(fm, samples, group_partner=partner)
        (group_law,) = [c for c in ver.checks if c.check == "group_law"]
        assert not group_law.passed and group_law.exact and not ver.passed

        true_partner, combined = flow(EXP_VMK, GEN, partner), flow(EXP_VMK, GEN, t + partner)
        worst = Fraction(0)
        for p in samples:
            image = tuple(reference_eval_exact(c, p) for c in comps)
            two_step = tuple(reference_eval_exact(c, image) for c in true_partner.components)
            one_step = tuple(reference_eval_exact(c, p) for c in combined.components)
            worst = max([worst] + [abs(u - v) for u, v in zip(two_step, one_step)])
        assert worst > 0 and len({p[0] ** 2 for p in samples}) > 1
        assert group_law.max_residual == float(worst)



class TestFlowTolerance:
    """One ``tolerance`` limits every float check, proportionality included."""

    def test_binomial_k10_vm1_proportionality(self):
        s = ModelSurface(10, binomial_gamma(10))
        samples = sample_on_surface(s, 20)
        fm = flow(EXP_VM1, s, Fraction(1, 10))
        tight = verify_flow(fm, samples, group_partner=Fraction(1, 7), tolerance=1e-9)
        loose = verify_flow(fm, samples, group_partner=Fraction(1, 7), tolerance=1e-7)
        prop = [c for c in tight.checks if c.check == "para_cr_proportionality"][0]
        assert not tight.passed and not prop.passed
        assert 1e-9 < prop.max_residual < 1e-7
        assert prop.detail == "tolerance 1e-09"
        assert loose.passed
        prop = [c for c in loose.checks if c.check == "para_cr_proportionality"][0]
        assert prop.detail == "tolerance 1e-07"


class TestFloatOverflow:
    """A float step that overflows fails its check by name, never silently."""

    HUGE = BINO.point_from_xab(1, 10**400, 1)  # a does not fit a float

    def check(self, ver, name):
        (c,) = [c for c in ver.checks if c.check == name]
        return c

    def test_unconvertible_sample_fails_float_range(self):
        ver = verify_flow(flow(EXP_VMK, BINO, 1), [self.HUGE], group_partner=2)
        assert not ver.passed
        float_range = self.check(ver, "float_range")
        assert not float_range.passed and float_range.max_residual is None
        assert float_range.detail == "float overflow at 1 of 1 samples"
        # the point is dropped, and a check with no point left still fails
        assert self.check(ver, "surface_preservation").detail == "no admissible samples"

    def test_other_samples_are_still_checked(self):
        samples = sample_on_surface(BINO, 4) + [self.HUGE]
        ver = verify_flow(flow(EXP_VM1, BINO, Fraction(1, 10)), samples, Fraction(1, 7))
        assert not ver.passed
        assert self.check(ver, "float_range").detail == "float overflow at 1 of 5 samples"
        others = [c for c in ver.checks if c.check != "float_range"]
        assert [c.check for c in others] == [
            "surface_preservation",
            "para_cr_proportionality",
            "group_law",
        ]
        assert all(c.passed for c in others)
        assert len(ver.witnesses) == 4

    @pytest.mark.parametrize(
        "point",
        [
            # x^3 overflows a float power: OverflowError
            GEN.point_from_xab(10**155, 0, Fraction(1, 10**400)),
            # 3 x^2 overflows to inf and P_b to nan, which a max() would drop
            GEN.point_from_xab(13 * 10**153, 0, Fraction(1, 10**300)),
        ],
        ids=["overflow-error", "inf-and-nan"],
    )
    @pytest.mark.parametrize("name, param", [(EXP_VMK, 1), (EXP_V0, 2)])
    def test_overflow_in_a_check_fails_it(self, point, name, param):
        ver = verify_flow(flow(name, GEN, param), [point])
        assert not ver.passed
        prop = self.check(ver, "para_cr_proportionality")
        assert not prop.passed
        assert prop.detail == "tolerance 1e-09; float overflow at 1 of 1 samples"
        assert ver.witnesses == ()

    def test_radical_flow_surface_check_overflow(self):
        point = MONO.point_from_xab(10**160, Fraction(1, 10**300), Fraction(1, 10**320))
        ver = verify_flow(flow(EXP_VK, MONO, Fraction(1, 10)), [point], Fraction(1, 7))
        surface_check = self.check(ver, "surface_preservation")
        assert not surface_check.passed and not surface_check.exact
        assert surface_check.detail == "tolerance 1e-09; float overflow at 1 of 1 samples"
        assert not ver.passed


class TestGeneratorConsistency:
    def test_exact_derivative_at_zero_additive(self):
        # polynomial-in-t flows: exact divided-difference derivative at t=0
        cases = [
            (EXP_VMK, GEN, GEN.k),
            (EXP_VM1, BINO, BINO.k),
        ]
        for name, s, degree in cases:
            nodes = [Fraction(j, 7) for j in range(degree + 2)]
            samples = sample_on_surface(s, 4)
            generator = flow(name, s, 0).generator
            for p in samples:
                values = [flow(name, s, t).apply_exact(p) for t in nodes]
                derivative = _lagrange_derivative_at_zero(nodes, values)
                expected = (
                    generator.xi.eval_exact(p),
                    generator.eta.eval_exact(p),
                    generator.alpha.eval_exact(p),
                    generator.beta.eval_exact(p),
                )
                assert derivative == expected

    def test_float_derivative_multiplicative(self):
        # d/ds at s=0 of Exp(e^s V) equals V, via central differences
        for name, s in [(EXP_V0, GEN), (EXP_V0PRIME, MONO)]:
            samples = sample_on_surface(s, 4)
            h = 1e-6
            generator = flow(name, s, 1).generator
            for p in samples:
                fp = tuple(float(v) for v in p)
                plus = flow(name, s, Fraction(math.exp(h)).limit_denominator(10**12))
                minus = flow(name, s, Fraction(math.exp(-h)).limit_denominator(10**12))
                fd = [
                    (u - v) / (2 * h)
                    for u, v in zip(plus.apply_float(fp), minus.apply_float(fp))
                ]
                expected = generator.velocity_float(fp)
                for got, want in zip(fd, expected):
                    assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def _lagrange_derivative_at_zero(nodes, values):
    # exact f'(0) for vector-valued polynomial data on distinct rational nodes
    n = len(nodes)
    out = []
    for comp in range(4):
        total = Fraction(0)
        for j in range(n):
            weight = Fraction(0)
            denom = Fraction(1)
            for i in range(n):
                if i != j:
                    denom *= nodes[j] - nodes[i]
            for m in range(n):
                if m == j:
                    continue
                prod = Fraction(1)
                for i in range(n):
                    if i != j and i != m:
                        prod *= Fraction(0) - nodes[i]
                weight += prod
            total += values[j][comp] * weight / denom
        out.append(total)
    return tuple(out)


class TestRk4:
    def test_constant_field(self):
        end = rk4_oracle(vertical_translation(), (0, 0, 0, 0), 1.0, 50)
        assert max(abs(u - v) for u, v in zip(end, (0, 1, 1, 0))) < 1e-12

    def test_linear_field_exponentiates(self):
        k = 4
        end = rk4_oracle(grading_field(k), (1, 1, 1, 1), math.log(2.0), 2000)
        expected = (2.0, 2.0**k, 2.0**k, 2.0)
        assert max(abs(u - v) for u, v in zip(end, expected)) < 1e-9

    def test_all_closed_forms_match_oracle(self):
        surfaces_and_flows = [
            (GEN, EXP_VMK, Fraction(1, 10)),
            (GEN, EXP_V0, None),
            (MONO, EXP_V0PRIME, None),
            (MONO, EXP_VK, Fraction(1, 10)),
            (BINO, EXP_VM1, Fraction(1, 10)),
        ]
        for s, name, param in surfaces_and_flows:
            if param is None:
                param = Fraction(math.exp(0.1)).limit_denominator(10**12)
            fm = flow(name, s, param)
            assert abs(flow_time(fm) - 0.1) < 1e-9
            samples = sample_on_surface(s, 20)
            assert rk4_mismatch(fm, samples, steps=1000) < 1e-6

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            rk4_oracle(vertical_translation(), (0, 0, 0, 0), 1.0, 0)

    def test_mismatch_raises_when_no_sample_is_checked(self):
        # at t = 1/2 every point with a = 4 has 1 - t a < 0: no integral curve
        fm = flow(EXP_VK, MONO, Fraction(1, 2))
        samples = [MONO.point_from_xab(Fraction(x), Fraction(4), Fraction(b))
                   for x, b in [(0, 0), (1, -1), (-2, 3)]]
        assert all(fm.ode_domain_check(tuple(float(v) for v in p)) for p in samples)
        with pytest.raises(FlowDomainError, match="EXP_VK"):
            rk4_mismatch(fm, samples, steps=10)
        with pytest.raises(FlowDomainError, match="EXP_VK"):
            rk4_mismatch(fm, [], steps=10)

    def test_mismatch_counts_overflow_as_failure(self):
        # both sides overflow in x, so the difference is inf - inf = NaN;
        # a NaN that max() drops would read as a perfect match
        s = ModelSurface(4, monomial_gamma(4, 2))
        fm = flow(EXP_VK, s, Fraction(1, 10))
        p = s.point_from_xab(17 * 10**307, 5, 0)
        fp = tuple(float(v) for v in p)
        assert fm.apply_float(fp)[0] == math.inf
        assert rk4_oracle(fm.generator, fp, flow_time(fm), 1000)[0] == math.inf
        assert rk4_mismatch(fm, [p], steps=1000) == math.inf
        assert rk4_mismatch(fm, sample_on_surface(s, 5) + [p], steps=10) == math.inf

    def test_mismatch_counts_an_integration_overflow_as_failure(self):
        # the point passes both domain checks and the closed form is finite,
        # but y ** 2 in the generator raises OverflowError
        s = ModelSurface(4, monomial_gamma(4, 2))
        fm = flow(EXP_VK, s, Fraction(1, 10))
        p = s.point_from_xab(1, -10**155, 1)
        fp = tuple(float(v) for v in p)
        assert fm.domain_check(fp) is None and fm.ode_domain_check(fp) is None
        assert all(math.isfinite(c) for c in fm.apply_float(fp))
        with pytest.raises(OverflowError):
            rk4_oracle(fm.generator, fp, flow_time(fm), 1000)
        assert rk4_mismatch(fm, [p], steps=1000) == math.inf
        assert rk4_mismatch(fm, sample_on_surface(s, 5) + [p], steps=10) == math.inf

    def test_mismatch_counts_a_point_too_large_for_floats_as_failure(self):
        # y = 2 + 10^320 does not convert to a float
        s = ModelSurface(4, monomial_gamma(4, 2))
        p = s.point_from_xab(10**160, 2, 1)
        with pytest.raises(OverflowError):
            float(p[1])
        names = admissible_flow_names(detect_case(s))
        assert len(names) == 4
        for name in names:
            fm = flow(name, s, RK4_PARAMS[name])
            assert rk4_mismatch(fm, [p], steps=10) == math.inf
            assert rk4_mismatch(fm, sample_on_surface(s, 5) + [p], steps=10) == math.inf

    def test_criterion_07_runtime_budget(self):
        # criterion 7's three representatives, flows and points
        representatives = [
            ModelSurface(4, monomial_gamma(4, 2)),
            ModelSurface(3, binomial_gamma(3)),
            ModelSurface(4, (1, 0, 1)),
        ]
        cases = [
            (flow(name, s, RK4_PARAMS[name]), sample_on_surface(s, 20))
            for s in representatives
            for name in admissible_flow_names(detect_case(s))
        ]
        assert len(cases) == 9
        start = time.perf_counter()
        worst = [rk4_mismatch(fm, samples, steps=1000) for fm, samples in cases]
        elapsed = time.perf_counter() - start
        assert max(worst) < 1e-6
        assert elapsed < 1.2, f"rk4_mismatch over criterion 7 took {elapsed:.2f} s"


# The list-based RK4 and per-term velocity loop that the straight-line kernel
# replaced, kept verbatim as the reference it must match bit for bit.


def reference_float_velocity(v):
    compiled = [
        [(float(c), [(i, e) for i, e in enumerate(exp) if e]) for exp, c in comp.items()]
        for comp in (v.xi, v.eta, v.alpha, v.beta)
    ]

    def velocity(point):
        out = []
        for terms in compiled:
            total = 0.0
            for c, factors in terms:
                for i, e in factors:
                    c *= point[i] ** e
                total += c
            out.append(total)
        return tuple(out)

    return velocity


def reference_rk4(v, p0, t, steps=1000):
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = t / steps
    p = [float(c) for c in p0]
    velocity = reference_float_velocity(v)
    for _ in range(steps):
        k1 = velocity(p)
        k2 = velocity([p[i] + 0.5 * h * k1[i] for i in range(4)])
        k3 = velocity([p[i] + 0.5 * h * k2[i] for i in range(4)])
        k4 = velocity([p[i] + h * k3[i] for i in range(4)])
        p = [
            p[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(4)
        ]
    return tuple(p)


def _hex_or_error(integrate, *args):
    # float.hex of each coordinate, or the exception type raised
    try:
        return [c.hex() for c in integrate(*args)]
    except ArithmeticError as exc:
        return type(exc)


class TestRk4Kernel:
    # large enough that the velocity overflows (OverflowError from **)
    # or the stages reach inf and NaN
    FAR_POINTS = [(1e300, 1e300, 3.0, 1e300), (1e160, -1e160, 1e160, -2.0)]

    def test_matches_reference_bit_for_bit(self):
        cases = raised = 0
        for s in suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces():
            points = [tuple(float(v) for v in p) for p in sample_on_surface(s, 3, seed=11)]
            for name in admissible_flow_names(detect_case(s)):
                fm = flow(name, s, RK4_PARAMS[name])
                for fp in points + self.FAR_POINTS:
                    for t in (flow_time(fm), -0.3):
                        want = _hex_or_error(reference_rk4, fm.generator, fp, t, 20)
                        got = _hex_or_error(rk4_oracle, fm.generator, fp, t, 20)
                        assert got == want, (s.k, s.gamma, name, fp, t)
                        cases += 1
                        raised += isinstance(want, type)
        assert cases == 850
        assert raised > 0

    def test_velocity_matches_reference_bit_for_bit(self):
        for s in suite_surfaces() + rational_gamma_surfaces():
            points = [tuple(float(v) for v in p) for p in sample_on_surface(s, 3, seed=12)]
            for name in admissible_flow_names(detect_case(s)):
                v = flow(name, s, RK4_PARAMS[name]).generator
                for fp in points + self.FAR_POINTS:
                    assert (_hex_or_error(v.float_velocity(), fp)
                            == _hex_or_error(reference_float_velocity(v), fp))

    # exponent-1 factors in each of x, y, a and b, which the compiled source
    # writes as the bare variable, and one zero component per field
    EDGE_FIELDS = [
        ParaVectorField(P("a - 3*a*b^2"), P("0"), P("x + 2*x^2*y"), P("y - x*y^3")),
        ParaVectorField(P("a^2*b + 1"), P("b - a*b"), P("0"), P("x*y + 1/3*y^2")),
        ParaVectorField(P("0"), P("b^3 + a"), P("7 - x*y"), P("5*x^2 + y")),
    ]
    SUBNORMAL = 5e-324
    EDGE_VALUES = [-0.0, 0.0, SUBNORMAL, -3 * SUBNORMAL, math.inf, -math.inf, math.nan, 1e200]

    def test_edge_floats_match_reference_bit_for_bit(self):
        rng = random.Random(13)
        points = [(v,) * 4 for v in self.EDGE_VALUES] + [
            tuple(rng.choice(self.EDGE_VALUES + [1.5, -0.25]) for _ in range(4))
            for _ in range(40)
        ]
        outcomes = set()
        for v in self.EDGE_FIELDS:
            for fp in points:
                want = _hex_or_error(reference_float_velocity(v), fp)
                assert _hex_or_error(v.float_velocity(), fp) == want, (str(v), fp)
                outcomes.add(want if isinstance(want, type) else "values")
                for t in (0.1, -0.3):
                    want = _hex_or_error(reference_rk4, v, fp, t, 20)
                    got = _hex_or_error(rk4_oracle, v, fp, t, 20)
                    assert got == want, (str(v), fp, t)
                    outcomes.add(want if isinstance(want, type) else "values")
        # both the overflow and the value paths were compared
        assert outcomes == {OverflowError, "values"}

    def test_compiled_code_reads_no_outside_names(self):
        tiny, vanishing, huge = Fraction(1, 10**320), Fraction(-1, 10**400), Fraction(10**308)
        fields = [
            ParaVectorField(P("a") * tiny, P("b^2") * vanishing, P("x*y") * huge, Poly({(0, 0, 0, 0): huge})),
            ParaVectorField(Poly({(0, 0, 0, 0): tiny}), Poly({(0, 0, 0, 0): vanishing}),
                            P("1 + x") * huge, P("y^3") * tiny),
        ] + [
            flow(name, s, RK4_PARAMS[name]).generator
            for s in suite_surfaces()
            for name in admissible_flow_names(detect_case(s))
        ]
        folded = 0
        for v in fields:
            for code in (v.float_velocity().__code__, v.rk4_integrator().__code__):
                assert set(code.co_names) <= {"range"}, (str(v), code.co_names)
                for const in code.co_consts:
                    if isinstance(const, tuple):
                        assert all(type(c) is float for c in const), (str(v), const)
                        folded += 1
                    else:
                        assert const is None or type(const) in (float, int), (str(v), const)
        # a constant field's velocity folds into one tuple of floats
        assert folded > 0


    def test_rk4_mismatch_compiles_the_generator_once(self, monkeypatch):
        compiled = []

        def counting_compile(*args):
            compiled.append(args)
            return compile(*args)

        monkeypatch.setattr(surface_mod, "compile", counting_compile, raising=False)
        fm = flow(EXP_VK, MONO, Fraction(1, 10))
        rk4_mismatch(fm, sample_on_surface(MONO, 6), steps=10)
        fm.generator.velocity_float((1, 2, 3, 4))
        assert len(compiled) == 1


class TestFlowDetection:
    def test_with_param_reuses_the_detection(self, monkeypatch):
        calls = []

        def counting_detect_case(s):
            calls.append(s)
            return detect_case(s)

        monkeypatch.setattr(flows_mod, "detect_case", counting_detect_case)
        for s, name, param, partner in [
            (MONO, EXP_VK, Fraction(1, 10), Fraction(1, 7)),
            (MONO, EXP_V0PRIME, Fraction(3), Fraction(2)),
            (BINO, EXP_VM1, Fraction(1, 10), Fraction(1, 7)),
            (GEN, EXP_V0, Fraction(5, 2), Fraction(3, 4)),
        ]:
            calls.clear()
            fm = flow(name, s, param)
            assert calls == [s]
            assert fm.detection == detect_case(s)
            ver = verify_flow(fm, sample_on_surface(s, 4), group_partner=partner)
            assert ver.passed and any(c.check == "group_law" for c in ver.checks)
            other = fm.with_param(partner)
            assert calls == [s]
            assert other.components == flow(name, s, partner).components
            assert other.param == partner and other.detection is fm.detection


def _reference_admissibility(name, detection, param):
    # the checks that _flow made branch by branch, and admissible_flow_names,
    # before both read one flow table; kept as the reference
    from paracr.normalform import BINOMIAL, MONOMIAL
    from paracr.poly import as_fraction

    if name == EXP_VMK:
        return "ok"
    if name == EXP_V0:
        lam = as_fraction(param)
        if lam <= 0:
            raise FlowDomainError("EXP_V0 requires lambda > 0")
        return "ok"
    if name == EXP_V0PRIME:
        if detection.kind != MONOMIAL:
            raise InadmissibleFlowError("EXP_V0PRIME requires a monomial surface")
        lam = as_fraction(param)
        if lam <= 0:
            raise FlowDomainError("EXP_V0PRIME requires lambda > 0")
        return "ok"
    if name == EXP_VM1:
        if detection.kind != BINOMIAL:
            raise InadmissibleFlowError("EXP_Vm1 requires a binomial surface")
        return "ok"
    if name == EXP_VK:
        if detection.kind != MONOMIAL:
            raise InadmissibleFlowError("EXP_VK requires a monomial surface")
        return "ok"
    raise InadmissibleFlowError(f"unknown flow name {name!r}")


def _reference_admissible_flow_names(detection):
    from paracr.normalform import BINOMIAL, MONOMIAL

    names = [EXP_VMK, EXP_V0]
    if detection.kind == MONOMIAL:
        names += [EXP_V0PRIME, EXP_VK]
    if detection.kind == BINOMIAL:
        names.append(EXP_VM1)
    return tuple(names)


def _outcome(build, *args):
    try:
        build(*args)
    except (InadmissibleFlowError, FlowDomainError) as exc:
        return type(exc).__name__, str(exc)
    return "ok"


class TestFlowTable:
    SURFACES = [MONO, BINO, GEN]
    SURFACES += [ModelSurface(4, monomial_gamma(4, 1)), ModelSurface(5, binomial_gamma(5, 2, 3))]
    NAMES = [EXP_VMK, EXP_V0, EXP_V0PRIME, EXP_VK, EXP_VM1, "EXP_V1", "exp_v0", ""]
    PARAMS = [Fraction(1, 10), Fraction(2), Fraction(0), Fraction(-1, 3), -2]

    def test_admissibility_and_messages_match_reference(self):
        outcomes = set()
        for s in self.SURFACES:
            detection = detect_case(s)
            for name in self.NAMES:
                for param in self.PARAMS:
                    expected = _outcome(_reference_admissibility, name, detection, param)
                    assert _outcome(flow, name, s, param) == expected, (name, s, param)
                    outcomes.add(expected if expected == "ok" else expected[0])
        assert outcomes == {"ok", "InadmissibleFlowError", "FlowDomainError"}

    def test_names_and_order_match_reference(self):
        assert flows_mod.ALL_FLOW_NAMES == (EXP_VMK, EXP_V0, EXP_V0PRIME, EXP_VK, EXP_VM1)
        for s in self.SURFACES:
            detection = detect_case(s)
            names = admissible_flow_names(detection)
            assert names == _reference_admissible_flow_names(detection)
            assert [n for n in flows_mod.ALL_FLOW_NAMES if n in names] == list(names)
            for name in names:
                assert flow(name, s, Fraction(1, 10)).name == name


class TestVm1Transcription:
    def test_not_identity_at_zero(self):
        comps = vm1_transcription_candidate(BINO, Fraction(0))
        assert comps[1] != P("y")
        assert comps[2] != P("a")

    def test_mismatch_message(self):
        msg = vm1_transcription_mismatch(BINO)
        assert "rejected" in msg and "EXP_Vm1" in msg

    def test_oracle_rejects_candidate(self):
        # integrate the true generator; the transcribed map disagrees
        t = Fraction(1, 10)
        comps = vm1_transcription_candidate(BINO, t)
        fm = flow(EXP_VM1, BINO, t)
        p = BINO.point_from_xab(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
        fp = tuple(float(v) for v in p)
        integrated = rk4_oracle(fm.generator, fp, float(t), 500)
        candidate = tuple(c.eval_float(fp) for c in comps)
        assert max(abs(u - v) for u, v in zip(candidate, integrated)) > 1e-3


class TestDiscreteGroup:
    def test_even_monomial(self):
        assert discrete_group(ModelSurface(4, (0, 1, 0))).kind == "Z2xZ2"

    def test_mixed_parity(self):
        assert discrete_group(ModelSurface(3, (1, 1))).kind == "Z2"

    def test_odd_indices(self):
        assert discrete_group(ModelSurface(5, (1, 0, 1, 0))).kind == "Z2xZ2"

    def test_generators_preserve_surface_and_involute(self, suite):
        for s in suite:
            group = discrete_group(s)
            for g in group.generators:
                image = g.transform_poly(s.defining_poly)
                assert image == s.defining_poly or image == -s.defining_poly
                point = s.point_from_xab(Fraction(1, 2), Fraction(2), Fraction(-1, 3))
                assert g.apply(g.apply(point)) == point
                assert s.contains(g.apply(point))

    def test_first_generator_signs(self):
        g = discrete_group(ModelSurface(5, (1, 0, 1, 0))).generators[0]
        assert g.signs() == (-1, -1, -1, -1)
