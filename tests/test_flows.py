import math
import random
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
from paracr.poly import Poly
from paracr.solver import vertical_translation, grading_field
from paracr.surface import ModelSurface
from conftest import binomial_gamma, monomial_gamma


def P(text):
    return Poly.parse(text)


MONO = ModelSurface(4, (0, 1, 0))
BINO = ModelSurface(3, (3, 3))
GEN = ModelSurface(4, (1, 0, 1))


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
