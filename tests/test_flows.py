import math
import random
import re
import sys
import time
from fractions import Fraction
from typing import List, Sequence

import pytest

from paracr.flows import (
    ADDITIVE,
    EXP_V0,
    EXP_V0PRIME,
    EXP_VK,
    EXP_VM1,
    EXP_VMK,
    ExactPoint,
    FloatPoint,
    FlowCheck,
    FlowDomainError,
    FlowMap,
    FlowVerification,
    InadmissibleFlowError,
    ProportionalityWitness,
    _finite,
    _real_root,
    admissible_flow_names,
    discrete_group,
    flow,
    flow_time,
    rk4_mismatch,
    rk4_oracle,
    sample_on_surface,
    verification_params,
    verify_flow,
    vm1_transcription_candidate,
    vm1_transcription_mismatch,
)
from paracr import flows as flows_mod
from paracr import surface as surface_mod
from paracr.normalform import detect_case
from paracr.poly import VARS, A, B, Poly, X, Y
from paracr.report import discrete_dict
from paracr.solver import grading_field, special_conformal_field, vertical_translation
from paracr.surface import ModelSurface, ParaVectorField
from conftest import (
    binomial_gamma,
    k_ladder_surfaces,
    monomial_gamma,
    rational_gamma_surfaces,
    reference_eval_float,
    suite_surfaces,
)


def P(text):
    return Poly.parse(text)


def exact_image(fm, point):
    return tuple(c.eval_exact(point) for c in fm.components)


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
        assert exact_image(fm, (0, 0, 0, 0)) == (0, 1, 1, 0)

    def test_dilation_point(self):
        fm = flow(EXP_V0, ModelSurface(3, (1, 1)), 2)
        assert exact_image(fm, (1, 1, 1, 1)) == (2, 8, 8, 2)

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
        # 1 - t a < 0 with even root
        assert "even root index" in fm.domain_check((1.0, 2.0, 2.0, 1.0))

    def test_vk_on_surface_image(self):
        fm = flow(EXP_VK, MONO, Fraction(1, 10))
        point = MONO.point_from_xab(1, 1, 1)
        image = fm.float_map([tuple(float(v) for v in point)])[0]
        assert abs(MONO.defining_poly.eval_floats([image])[0]) < 1e-12

    def test_identity_at_zero_parameter(self):
        samples = sample_on_surface(BINO, 5)
        for name, param in [(EXP_VMK, 0), (EXP_VM1, 0)]:
            fm = flow(name, BINO, param)
            for p in samples:
                assert exact_image(fm, p) == p
        fm = flow(EXP_V0, BINO, 1)
        for p in samples:
            assert exact_image(fm, p) == p


def _planted_translation(t, comps):
    return FlowMap(EXP_VMK, GEN, detect_case(GEN), t, comps)


def planted_sample_agreeing_map():
    # EXP_Vmk with y -> y + t + prod(x - x_i), x_i the samples' x-values:
    # at every sample it is the true translation, but it does not
    # preserve S, and the true partner does not compose with it
    samples = sample_on_surface(GEN, 20)
    t = Fraction(3, 2)
    bump = Poly.constant(1)
    for xi in {p[0] for p in samples}:
        bump = bump * (X - Poly.constant(xi))
    comps = (X, Y + Poly.constant(t) + bump, A + Poly.constant(t), B)
    return _planted_translation(t, comps), samples, Fraction(-1, 3)


def planted_group_law_breaking_map():
    # EXP_Vmk with x -> x + t x^2 in place of x: with_param rebuilds the
    # true translation, so the partner does not compose with this map
    t = Fraction(3, 2)
    comps = (X + t * X**2, Y + Poly.constant(t), A + Poly.constant(t), B)
    return _planted_translation(t, comps), sample_on_surface(GEN, 9), Fraction(-1, 3)


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
    def test_exact_checks_read_no_sample(self, monkeypatch, s, name, param, partner):
        samples = sample_on_surface(s, 7)
        fm = flow(name, s, param)
        calls = []
        original = Poly.eval_exact

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(Poly, "eval_exact", counted)
        ver = verify_flow(fm, samples, group_partner=partner)
        checks = {c.check: c for c in ver.checks}
        assert ver.passed and calls == []
        for check in ("surface_preservation", "group_law"):
            assert checks[check].exact and checks[check].max_residual == 0.0

    def test_map_agreeing_with_the_flow_at_every_sample_fails(self):
        fm, samples, partner = planted_sample_agreeing_map()
        assert len({p[0] for p in samples}) == 12
        true_flow = flow(EXP_VMK, GEN, fm.param)
        assert all(exact_image(fm, p) == exact_image(true_flow, p) for p in samples)
        ver = verify_flow(fm, samples, group_partner=partner)
        checks = {c.check: c for c in ver.checks}
        for check in ("surface_preservation", "group_law"):
            assert not checks[check].passed and checks[check].exact
            assert checks[check].max_residual is None
        assert not ver.passed

    def test_failing_exact_group_law_reports_no_residual(self):
        # an identity that fails has no worst point, so no residual
        ver = verify_flow(*planted_group_law_breaking_map())
        (group_law,) = [c for c in ver.checks if c.check == "group_law"]
        assert not group_law.passed and group_law.exact and not ver.passed
        assert group_law.max_residual is None


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

    def test_residual_equal_to_the_tolerance_passes(self):
        # the translation's float residuals are exactly 0.0
        ver = verify_flow(flow(EXP_VMK, GEN, 1), sample_on_surface(GEN, 6), tolerance=0.0)
        prop = [c for c in ver.checks if c.check == "para_cr_proportionality"][0]
        assert ver.passed and prop.max_residual == 0.0


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
        # the point is dropped, and a float check with no point left still fails;
        # the identities need no point
        assert self.check(ver, "para_cr_proportionality").detail == "no admissible samples"
        assert self.check(ver, "surface_preservation").passed
        assert self.check(ver, "group_law").passed

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

    OVERFLOWING = pytest.mark.parametrize(
        "point",
        [
            # x^3 overflows a float power: OverflowError
            GEN.point_from_xab(10**155, 0, Fraction(1, 10**400)),
            # 3 x^2 overflows to inf and P_b to nan, which a max() would drop
            GEN.point_from_xab(13 * 10**153, 0, Fraction(1, 10**300)),
        ],
        ids=["overflow-error", "inf-and-nan"],
    )
    FLOWS = pytest.mark.parametrize("name, param", [(EXP_VMK, 1), (EXP_V0, 2)])

    @OVERFLOWING
    @FLOWS
    def test_overflow_in_a_check_fails_it(self, point, name, param):
        ver = verify_flow(flow(name, GEN, param), [point])
        assert not ver.passed
        prop = self.check(ver, "para_cr_proportionality")
        assert not prop.passed
        assert prop.detail == "tolerance 1e-09; float overflow at 1 of 1 samples"
        assert ver.witnesses == ()

    @OVERFLOWING
    @FLOWS
    def test_a_check_with_no_finite_residual_reports_none(self, point, name, param):
        # every sample overflowed, so there is no worst residual to report
        prop = self.check(verify_flow(flow(name, GEN, param), [point]), "para_cr_proportionality")
        assert not prop.passed and prop.max_residual is None
        # one finite sample beside it gives the check a worst residual again
        samples = [point, GEN.point_from_xab(1, 0, 1)]
        prop = self.check(verify_flow(flow(name, GEN, param), samples), "para_cr_proportionality")
        assert not prop.passed and prop.max_residual == 0.0
        assert prop.detail == "tolerance 1e-09; float overflow at 1 of 2 samples"

    def test_radical_flow_surface_check_overflow(self):
        point = MONO.point_from_xab(10**160, Fraction(1, 10**300), Fraction(1, 10**320))
        ver = verify_flow(flow(EXP_VK, MONO, Fraction(1, 10)), [point], Fraction(1, 7))
        surface_check = self.check(ver, "surface_preservation")
        assert not surface_check.passed and not surface_check.exact
        assert surface_check.detail == "tolerance 1e-09; float overflow at 1 of 1 samples"
        assert not ver.passed

    def test_radical_flow_group_law_overflow(self):
        # x / (1 - t y)^(1/2) overflows to inf at the first map of the composition
        point = MONO.point_from_xab(17 * 10**307, 5, 0)
        samples = sample_on_surface(MONO, 4) + [point]
        ver = verify_flow(flow(EXP_VK, MONO, Fraction(1, 10)), samples, Fraction(1, 7))
        group_law = self.check(ver, "group_law")
        assert not group_law.passed and group_law.max_residual < 1e-9
        assert group_law.detail == "tolerance 1e-09; float overflow at 1 of 5 samples"

    def test_identities_need_no_admissible_sample(self):
        # y = a + 10^400 (x^3 + x^2 b) does not convert to a float at (x, a, b) = (1, 0, 1)
        s = ModelSurface(3, (10**400, 10**400))
        point = s.point_from_xab(1, 0, 1)
        for name in (EXP_VMK, EXP_V0):
            param, partner = verification_params(name)
            ver = verify_flow(flow(name, s, param), [point], group_partner=partner)
            checks = {c.check: c for c in ver.checks}
            assert list(checks) == [
                "float_range",
                "surface_preservation",
                "para_cr_proportionality",
                "group_law",
            ]
            for check in ("surface_preservation", "group_law"):
                assert checks[check].passed and checks[check].exact
                assert checks[check].max_residual == 0.0
            assert checks["para_cr_proportionality"] == FlowCheck(
                "para_cr_proportionality", False, False, None, "no admissible samples"
            )
            assert not ver.passed and ver.witnesses == ()

    def test_radical_flow_fails_every_float_check_with_no_admissible_sample(self):
        point = MONO.point_from_xab(1, 10**400, 1)
        ver = verify_flow(flow(EXP_VK, MONO, Fraction(1, 10)), [point], Fraction(1, 7))
        assert ver.checks[0].check == "float_range"
        assert ver.checks[1:] == tuple(
            FlowCheck(check, False, False, None, "no admissible samples")
            for check in ("surface_preservation", "para_cr_proportionality", "group_law")
        )
        assert not ver.passed

    def test_zero_factor_is_an_infinite_residual(self):
        # lambda = 10^-400 rounds to the float 0.0, so the pushforwards of X
        # and Y vanish: every residual is 0.0, but the factors are 0
        ver = verify_flow(flow(EXP_V0, GEN, Fraction(1, 10**400)), sample_on_surface(GEN, 3))
        assert ver.witnesses and all(w.lam == 0.0 and w.mu == 0.0 for w in ver.witnesses)
        assert all(w.x_residual == 0.0 and w.y_residual == 0.0 for w in ver.witnesses)
        prop = self.check(ver, "para_cr_proportionality")
        assert not prop.passed and prop.max_residual == math.inf
        assert prop.detail == "tolerance 1e-09"


# verify_flow and rk4_mismatch as they were before one rule (_float_check)
# decided every float check, kept verbatim, docstrings aside, as
# the reference.  The new rule changes two outcomes on purpose: a float check
# left with no admissible sample fails by name whichever check it is (the
# reference failed surface_preservation and stopped, so a polynomial flow's
# identities went unchecked), and a float check whose every sample
# overflowed reports no residual (the reference reported 0.0).


def _overflow_detail(detail: str, overflowed: int, total: int) -> str:
    if not overflowed:
        return detail
    note = f"float overflow at {overflowed} of {total} samples"
    return f"{detail}; {note}" if detail else note


# FlowMap.float_map, FlowMap.float_jacobian and the proportionality as they
# were at one point at a time, kept verbatim as the reference of the column
# walk, with each polynomial read through reference_eval_float, so the
# reference shares no batched code.


def reference_float_map(fm: FlowMap, pt: FloatPoint) -> FloatPoint:
    if fm.is_polynomial:
        return tuple(reference_eval_float(c, pt) for c in fm.components)
    x, y, a, b = pt
    t, rx, rb = fm._time_and_roots
    uy = 1.0 - t * y
    ua = 1.0 - t * a
    return (
        x / _real_root(uy, rx),
        y / uy,
        a / ua,
        b / _real_root(ua, rb),
    )


def reference_float_jacobian(fm: FlowMap, pt: FloatPoint):
    if fm.is_polynomial:
        dx, dab = fm._jacobian
        xy = tuple(tuple(reference_eval_float(d, pt) for d in row) for row in dx)
        ab = tuple(tuple(reference_eval_float(d, pt) for d in row) for row in dab)
        return (xy, ab)
    x, y, a, b = pt
    t, rx, rb = fm._time_and_roots
    uy = 1.0 - t * y
    ua = 1.0 - t * a
    ry = _real_root(uy, rx)
    ra = _real_root(ua, rb)
    xy_block = (
        (1.0 / ry, x * (t / rx) * ry ** (-1.0) / uy),
        (0.0, 1.0 / uy**2),
    )
    ab_block = (
        (1.0 / ua**2, 0.0),
        (b * (t / rb) * ra ** (-1.0) / ua, 1.0 / ra),
    )
    return (xy_block, ab_block)


def reference_apply_float(fm: FlowMap, point: Sequence[float]) -> FloatPoint:
    pt = tuple(float(v) for v in point)
    violation = fm.domain_check(pt)
    if violation:
        raise FlowDomainError(f"{fm.name}: {violation} at {pt}")
    return reference_float_map(fm, pt)


def _direction_x(s: ModelSurface, pt):
    # X = d_x + P_x d_y restricted to the (x, y) block
    return (1.0, reference_eval_float(s.p_x, pt))


def _direction_y(s: ModelSurface, pt):
    # Y = d_b - P_b d_a in the (a, b) block, ordered (da, db)
    return (-reference_eval_float(s.p_b, pt), 1.0)


def reference_proportionality(fm: FlowMap, fp: FloatPoint):
    # pushforwards of X and Y at fp against the direction fields at the image
    s = fm.surface
    xy_block, ab_block = reference_float_jacobian(fm, fp)
    image = reference_apply_float(fm, fp)
    vx = _direction_x(s, fp)
    push_x = (
        xy_block[0][0] * vx[0] + xy_block[0][1] * vx[1],
        xy_block[1][0] * vx[0] + xy_block[1][1] * vx[1],
    )
    target_x = _direction_x(s, image)
    lam = push_x[0] / target_x[0]
    res_x = abs(push_x[1] - lam * target_x[1])
    vy = _direction_y(s, fp)
    push_y = (
        ab_block[0][0] * vy[0] + ab_block[0][1] * vy[1],
        ab_block[1][0] * vy[0] + ab_block[1][1] * vy[1],
    )
    target_y = _direction_y(s, image)
    mu = push_y[1] / target_y[1]
    res_y = abs(push_y[0] - mu * target_y[0])
    return lam, mu, res_x, res_y



def reference_verify_flow(
    fm: FlowMap,
    samples: Sequence[ExactPoint],
    group_partner=None,
    tolerance: float = 1e-9,
) -> FlowVerification:
    s = fm.surface
    checks: List[FlowCheck] = []
    witnesses: List[ProportionalityWitness] = []

    in_domain: List[FloatPoint] = []
    unconverted = 0
    for p in samples:
        fp = _finite(lambda: tuple(float(v) for v in p))
        if fp is None:
            unconverted += 1
        elif fm.domain_check(fp) is None:
            in_domain.append(fp)
    if unconverted:
        detail = _overflow_detail("", unconverted, len(samples))
        checks.append(FlowCheck("float_range", False, False, None, detail))
    if not in_domain:
        checks.append(
            FlowCheck("surface_preservation", False, False, None, "no admissible samples")
        )
        return FlowVerification(fm.name, (str(fm.param),), False, tuple(checks))

    # (1) surface preservation
    if fm.is_polynomial:
        phi = dict(zip(VARS, fm.components))
        ok = s.substitute_y(s.defining_poly.substitute(phi)).is_zero
        checks.append(
            FlowCheck("surface_preservation", ok, True, 0.0 if ok else None, "exact residuals")
        )
    else:
        worst_f = 0.0
        overflowed = 0
        for fp in in_domain:
            residual = _finite(
                lambda: (reference_eval_float(s.defining_poly, reference_apply_float(fm, fp)),)
            )
            if residual is None:
                overflowed += 1
            else:
                worst_f = max(worst_f, abs(residual[0]))
        checks.append(
            FlowCheck(
                "surface_preservation",
                worst_f <= tolerance and not overflowed,
                False,
                worst_f,
                _overflow_detail(f"tolerance {tolerance:g}", overflowed, len(in_domain)),
            )
        )

    # (2) para-CR property: pushforward proportional to the direction fields
    worst_prop = 0.0
    prop_ok = True
    overflowed = 0
    for fp in in_domain:
        values = _finite(lambda: reference_proportionality(fm, fp))
        if values is None:
            overflowed += 1
            continue
        w = ProportionalityWitness(fp, *values)
        scale = 1.0 + abs(w.lam) + abs(w.mu)
        worst_prop = max(worst_prop, w.x_residual / scale, w.y_residual / scale)
        if w.lam == 0.0 or w.mu == 0.0:
            prop_ok = False
        witnesses.append(w)
    prop_ok = prop_ok and worst_prop <= tolerance and not overflowed
    checks.append(
        FlowCheck(
            "para_cr_proportionality",
            prop_ok,
            False,
            worst_prop,
            _overflow_detail(f"tolerance {tolerance:g}", overflowed, len(in_domain)),
        )
    )

    # (3) group law at a sampled parameter pair
    if group_partner is not None:
        partner = fm.with_param(group_partner)
        if fm.law == ADDITIVE:
            combined = fm.with_param(fm.param + partner.param)
        else:
            combined = fm.with_param(fm.param * partner.param)
        if fm.is_polynomial:
            ok = tuple(c.substitute(phi) for c in partner.components) == combined.components
            checks.append(FlowCheck("group_law", ok, True, 0.0 if ok else None, "exact"))
        else:
            worst_f = 0.0
            checked = 0
            overflowed = 0
            for fp in in_domain:
                mid = _finite(lambda: reference_apply_float(fm, fp))
                if mid is None:
                    overflowed += 1
                    continue
                if partner.domain_check(mid) is not None or combined.domain_check(fp) is not None:
                    continue
                diffs = _finite(
                    lambda: [
                        abs(u - v)
                        for u, v in zip(
                            reference_apply_float(partner, mid),
                            reference_apply_float(combined, fp),
                        )
                    ]
                )
                if diffs is None:
                    overflowed += 1
                    continue
                worst_f = max(worst_f, max(diffs))
                checked += 1
            if checked or overflowed:
                ok = worst_f <= tolerance and not overflowed
                detail = _overflow_detail(f"tolerance {tolerance:g}", overflowed, len(in_domain))
                checks.append(FlowCheck("group_law", ok, False, worst_f, detail))
            else:
                detail = "no sample lies in the partner and combined flow domains"
                checks.append(FlowCheck("group_law", False, False, None, detail))

    passed = all(c.passed for c in checks)
    return FlowVerification(fm.name, (str(fm.param),), passed, tuple(checks), tuple(witnesses))


def reference_rk4_ladder(v, fp, t, steps):
    # the counts steps // 8, steps // 4, ... below steps; the first endpoint
    # that agrees with the count before it to within the steps-step run's
    # rounding, steps * 2**-52 * max(1, max |coordinate|), else the
    # steps-step endpoint
    counts = []
    n = steps // 8
    while 1 <= n < steps:
        counts.append(n)
        n *= 2
    previous = None
    for n in counts:
        try:
            end = rk4_oracle(v, fp, t, n)
        except OverflowError:
            end = None
        if end is not None and not all(math.isfinite(c) for c in end):
            end = None
        if end is not None and previous is not None:
            floor = steps * 2.0**-52 * max([1.0] + [abs(c) for c in end])
            if all(abs(u - w) <= floor for u, w in zip(end, previous)):
                return end
        previous = end
    return rk4_oracle(v, fp, t, steps)


def reference_rk4_mismatch(
    fm: FlowMap, samples: Sequence[ExactPoint], steps: int = 1000, integrate=reference_rk4_ladder
) -> float:
    exists = fm.ode_domain_check or fm.domain_check
    points = []
    for p in samples:
        fp = _finite(lambda: tuple(float(v) for v in p))
        if fp is None:
            return math.inf
        if fm.domain_check(fp) is None and exists(fp) is None:
            points.append(fp)
    if not points:
        raise FlowDomainError(f"{fm.name}: no sample lies in the flow's existence domain")
    worst = 0.0
    time = flow_time(fm)
    for fp in points:
        closed = _finite(lambda: reference_apply_float(fm, fp))
        if closed is None:
            return math.inf
        integrated = _finite(lambda: integrate(fm.generator, fp, time, steps))
        if integrated is None:
            return math.inf
        worst = max(worst, *(abs(u - v) for u, v in zip(closed, integrated)))
    return worst


def _intended(want, fm, group_partner):
    # the reference verification with those two outcomes changed
    checks = []
    for c in want.checks:
        if c.detail == "no admissible samples":
            # the reference stopped here; a polynomial flow's identities are
            # compared in TestFloatOverflow, so only EXP_VK arrives here
            assert not fm.is_polynomial
            names = ["surface_preservation", "para_cr_proportionality"]
            names += ["group_law"] if group_partner is not None else []
            checks += [FlowCheck(name, False, False, None, c.detail) for name in names]
            continue
        overflow = re.search(r"float overflow at (\d+) of (\d+) samples$", c.detail)
        if c.check != "float_range" and overflow and overflow[1] == overflow[2]:
            assert c.max_residual == 0.0 and not c.passed
            c = FlowCheck(c.check, c.passed, c.exact, None, c.detail)
        checks.append(c)
    return FlowVerification(want.flow_name, want.params, want.passed, tuple(checks), want.witnesses)


def _rk4_outcome(mismatch, fm, samples, **kwargs):
    try:
        return mismatch(fm, samples, steps=20, **kwargs)
    except FlowDomainError as exc:
        return str(exc)


def _outcome_kind(outcome):
    if isinstance(outcome, str):
        return "raised"
    return "infinite" if outcome == math.inf else "finite"


def _reference_cases():
    # (flow map, samples, group partner)
    for s in suite_surfaces() + rational_gamma_surfaces() + k_ladder_surfaces():
        samples = sample_on_surface(s, 20)
        for name in admissible_flow_names(detect_case(s)):
            param, partner = verification_params(name)
            yield flow(name, s, param), samples, partner
    samples = sample_on_surface(MONO, 20)
    for t in (Fraction(1, 10), Fraction(-1, 10), Fraction(1, 7), Fraction(-1, 7)):
        yield flow(EXP_VK, MONO, t), samples, Fraction(1, 7)
    yield planted_sample_agreeing_map()
    yield planted_group_law_breaking_map()
    # no sample lies in the partner and combined flow domains
    yield flow(EXP_VK, MONO, Fraction(1, 10)), [MONO.point_from_xab(0, 1, 0)], 1
    for s in (MONO, BINO, GEN):
        for name in admissible_flow_names(detect_case(s)):
            param, partner = verification_params(name)
            yield flow(name, s, param), TestRk4Kernel.FAR_POINTS, partner


class TestFloatCheckReference:
    def test_verifications_match_reference(self):
        cases = changed = 0
        for fm, samples, partner in _reference_cases():
            want = reference_verify_flow(fm, samples, group_partner=partner)
            got = verify_flow(fm, samples, group_partner=partner)
            expected = _intended(want, fm, partner)
            assert got == expected, (fm.surface, fm.name, fm.param)
            cases += 1
            changed += expected != want
        assert cases == 101
        # both intended changes were met: FAR_POINTS leave EXP_VK on MONO no
        # admissible sample, and overflow every proportionality residual of
        # the other eight flows
        assert changed == 9

    def test_rk4_mismatch_matches_reference(self):
        cases, outcomes = 0, set()
        for fm, samples, _ in _reference_cases():
            want = _rk4_outcome(reference_rk4_mismatch, fm, samples)
            assert _rk4_outcome(rk4_mismatch, fm, samples) == want, (fm.surface, fm.name)
            # the ladder changes no outcome of the fixed-step reference
            fixed = _rk4_outcome(reference_rk4_mismatch, fm, samples, integrate=rk4_oracle)
            assert _outcome_kind(want) == _outcome_kind(fixed), (fm.surface, fm.name)
            outcomes.add(_outcome_kind(want))
            cases += 1
        assert cases == 101
        # finite and infinite mismatches, and a FlowDomainError, were compared
        assert outcomes == {"finite", "infinite", "raised"}


class TestMixedOverflow:
    """One sample's float overflow reruns the batch one sample at a time, so
    the other samples of the same check are still read."""

    # at the default seed, EXP_V0's proportionality overflows at 7 and 8 of 20 samples
    @pytest.mark.parametrize(
        "k, gamma, overflowed", [(5, (10**305, 1, 0, 0), 7), (6, (0, 0, 10**305, 1, 0), 8)]
    )
    def test_matches_reference(self, k, gamma, overflowed):
        s = ModelSurface(k, gamma)
        samples = sample_on_surface(s, 20)
        param, partner = verification_params(EXP_V0)
        fm = flow(EXP_V0, s, param)
        got = verify_flow(fm, samples, group_partner=partner)
        want = reference_verify_flow(fm, samples, group_partner=partner)
        assert got == _intended(want, fm, partner)
        (prop,) = [c for c in got.checks if c.check == "para_cr_proportionality"]
        assert prop.detail == f"tolerance 1e-09; float overflow at {overflowed} of 20 samples"
        assert prop.max_residual is not None and len(got.witnesses) == 20 - overflowed
        # the report converts the samples once for every flow, with the same outcome
        reported = flows_mod.verify_flows(s, detect_case(s), flows_mod.DEFAULT_SEED, 1e-9)
        assert [v for v in reported if v.flow_name == EXP_V0] == [got]


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
                values = [exact_image(flow(name, s, t), p) for t in nodes]
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
                    for u, v in zip(plus.float_map([fp])[0], minus.float_map([fp])[0])
                ]
                expected = reference_float_velocity(generator)(fp)
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


def criterion_07_cases():
    # criterion 7's three representatives, flows and points
    representatives = [
        ModelSurface(4, monomial_gamma(4, 2)),
        ModelSurface(3, binomial_gamma(3)),
        ModelSurface(4, (1, 0, 1)),
    ]
    return [
        (flow(name, s, RK4_PARAMS[name]), sample_on_surface(s, 20))
        for s in representatives
        for name in admissible_flow_names(detect_case(s))
    ]


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

        class Unread:
            def __iter__(self):
                raise AssertionError("a point or sample was read")

        fm = flow(EXP_VMK, GEN, Fraction(1, 10))
        for steps in (0, -1, 2.5, 8.0, "8", True, None):
            with pytest.raises(ValueError, match="steps"):
                rk4_oracle(fm.generator, Unread(), 1.0, steps)
            with pytest.raises(ValueError, match="steps"):
                rk4_mismatch(fm, Unread(), steps=steps)

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
        assert fm.float_map([fp])[0][0] == math.inf
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
        assert all(math.isfinite(c) for c in fm.float_map([fp])[0])
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
        cases = criterion_07_cases()
        assert len(cases) == 9
        start = time.perf_counter()
        worst = [rk4_mismatch(fm, samples, steps=1000) for fm, samples in cases]
        elapsed = time.perf_counter() - start
        assert max(worst) < 1e-6
        assert elapsed < 1.2, f"rk4_mismatch over criterion 7 took {elapsed:.2f} s"

    @staticmethod
    def record_oracle(monkeypatch):
        # every rk4_oracle call rk4_mismatch makes, as (steps, endpoint)
        calls = []

        def recording(v, p0, t, steps):
            end = rk4_oracle(v, p0, t, steps)
            calls.append((steps, end))
            return end

        monkeypatch.setattr(flows_mod, "rk4_oracle", recording)
        return calls

    def test_criterion_07_ladder_steps(self, monkeypatch):
        # 174 admitted points: 1,000 steps each at a fixed count, and
        # 125 + 250 (+ 500 (+ 1,000)) on the ladder
        calls = self.record_oracle(monkeypatch)
        for fm, samples in criterion_07_cases():
            rk4_mismatch(fm, samples, steps=1000)
        counts = [n for n, _ in calls]
        assert counts.count(125) == 174
        assert sum(counts) == 89_250

    def test_ladder_endpoint_against_the_fixed_run(self, monkeypatch):
        # a point that stops early is within the fixed run's rounding of it,
        # and a point that falls back reads the fixed run bit for bit
        calls = self.record_oracle(monkeypatch)
        stopped = {125: 0, 250: 0, 500: 0, 1000: 0}
        for fm, samples in criterion_07_cases():
            for p in samples:
                fp = tuple(float(c) for c in p)
                if fm.domain_check(fp) or fm.ode_domain_check(fp):
                    continue
                calls.clear()
                got = rk4_mismatch(fm, [p], steps=1000)
                n, end = calls[-1]
                fixed = rk4_oracle(fm.generator, fp, flow_time(fm), 1000)
                stopped[n] += 1
                if n == 1000:
                    assert len(calls) == 4
                    assert end == fixed
                    want = reference_rk4_mismatch(fm, [p], 1000, integrate=rk4_oracle)
                    assert got.hex() == want.hex()
                else:
                    floor = 1000 * 2.0**-52 * max(1.0, *map(abs, fixed))
                    assert all(abs(u - w) <= floor for u, w in zip(end, fixed)), (fm.name, fp)
        assert stopped[125] == 0 and stopped[250] and stopped[500] and stopped[1000]

    def test_ladder_fails_a_planted_wrong_closed_form(self):
        # EXP_V0's closed form at a parameter off by 1e-5, integrated over
        # the true parameter's time
        s = ModelSurface(4, (1, 0, 1))
        samples = sample_on_surface(s, 20)
        fm = flow(EXP_V0, s, EXP_TENTH)
        wrong = flow(EXP_V0, s, EXP_TENTH + Fraction(1, 10**5))
        planted = FlowMap(EXP_V0, s, fm.detection, fm.param, wrong.components)
        assert rk4_mismatch(fm, samples, steps=1000) < 1e-6
        assert rk4_mismatch(planted, samples, steps=1000) > 1e-6

    def test_ladder_stays_within_steps_near_blow_up(self):
        # ROADMAP item 6: at a seed-28 point on monomial k=4, iota=2, 1,000
        # RK4 steps still miss EXP_VK by 2.8e-6; the ladder never passes steps
        s = ModelSurface(4, monomial_gamma(4, 2))
        fm = flow(EXP_VK, s, Fraction(1, 10))
        samples = sample_on_surface(s, 60, seed=28)
        assert rk4_mismatch(fm, samples, steps=1000) == 2.844919606559415e-06


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

    # exponent-1 factors in each of x, y, a and b, which the compiled source
    # writes as the bare variable, and one zero component per field; terms of
    # coefficient 1, written with no factor 1.0, and -1; a constant xi read
    # through eta = 3x^2, as in EXP_Vm1's generator, and an all-constant field,
    # whose constant components the integrator computes before its loop
    EDGE_FIELDS = [
        ParaVectorField(P("a - 3*a*b^2"), P("0"), P("x + 2*x^2*y"), P("y - x*y^3")),
        ParaVectorField(P("a^2*b + 1"), P("b - a*b"), P("0"), P("x*y + 1/3*y^2")),
        ParaVectorField(P("0"), P("b^3 + a"), P("7 - x*y"), P("5*x^2 + y")),
        ParaVectorField(P("a^2*b - b^3"), P("1 - a^2"), P("x^2*y - 1"), P("x^3 - y^2")),
        ParaVectorField(P("3*b^2"), P("1"), P("-1"), P("3*x^2")),
        ParaVectorField(P("1"), P("0"), P("0"), P("1")),
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
        for v in fields:
            code = v.rk4_integrator().__code__
            assert set(code.co_names) <= {"range"}, (str(v), code.co_names)
            # every step's increment reads the float constant 2.0
            assert 2.0 in code.co_consts, (str(v), code.co_consts)
            for const in code.co_consts:
                assert const is None or type(const) in (float, int), (str(v), const)

    def test_rk4_mismatch_compiles_the_generator_once(self, monkeypatch):
        compiled = []

        def counting_compile(*args):
            compiled.append(args)
            return compile(*args)

        monkeypatch.setattr(surface_mod, "compile", counting_compile, raising=False)
        fm = flow(EXP_VK, MONO, Fraction(1, 10))
        rk4_mismatch(fm, sample_on_surface(MONO, 6), steps=10)
        rk4_oracle(fm.generator, (1.0, 2.0, 3.0, 4.0), 0.1, 10)
        assert len(compiled) == 1

    def test_compiled_once_per_field(self, monkeypatch):
        compiled = []

        def counting_compile(*args):
            compiled.append(args)
            return compile(*args)

        monkeypatch.setattr(surface_mod, "compile", counting_compile, raising=False)
        v = grading_field(5) + special_conformal_field(5, 2)
        integrate = v.rk4_integrator()
        assert v.rk4_integrator() is integrate
        rk4_oracle(v, (1.0, 2.0, 3.0, 4.0), 0.1, 10)
        assert len(compiled) == 1
        # an equal field built apart compiles its own function
        w = grading_field(5) + special_conformal_field(5, 2)
        assert w == v and w.rk4_integrator() is not integrate
        assert len(compiled) == 2

    def test_coefficient_too_large_for_a_float_raises(self):
        v = ParaVectorField(
            Poly.zero(), Poly.zero(), Poly({(1, 0, 0, 0): Fraction(10**400, 3)}), Poly.zero()
        )
        for _ in range(2):
            with pytest.raises(OverflowError):
                v.rk4_integrator()

    def test_tiny_coefficients_round_trip(self):
        # 1/10^320 is subnormal; -1/10^400 underflows to -0.0
        tiny = Fraction(1, 10**320)
        assert 0.0 < float(tiny) < sys.float_info.min
        v = ParaVectorField(
            Poly({(0, 0, 0, 0): Fraction(-1, 10**400)}),
            Poly.zero(),
            Poly({(0, 0, 0, 0): tiny, (1, 0, 0, 0): tiny}),
            Poly({(0, 2, 0, 0): -tiny}),
        )
        # the subnormal xi at the origin moves x off 0
        assert rk4_oracle(v, (0.0, 0.0, 0.0, 0.0), 1.0, 1)[0] > 0.0
        points = [(0.0, 0.0, 0.0, 0.0), (1.0, -2.0, 0.5, 3.0), (-0.7, 1.3, -2.25, -1.1),
                  (1e10, -3e-5, 7.0, 1e-3)]
        for fp in points:
            for t in (0.1, -0.3):
                want = _hex_or_error(reference_rk4, v, fp, t, 20)
                assert _hex_or_error(rk4_oracle, v, fp, t, 20) == want, (fp, t)

    def test_zero_field(self):
        point = (1.0, 2.0, 3.0, 4.0)
        assert rk4_oracle(ParaVectorField.zero(), point, 1.0, 10) == point


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


class TestDerivedFields:
    GENERATOR_BUILDERS = (
        "grading_field",
        "oblique_translation_field",
        "relative_dilation_field",
        "special_conformal_field",
        "vertical_translation",
    )

    @pytest.mark.parametrize(
        "s", [ModelSurface(7, binomial_gamma(7)), ModelSurface(5, monomial_gamma(5, 2))]
    )
    def test_verify_flows_diffs_each_flow_once_and_builds_no_generator(self, monkeypatch, s):
        # a polynomial flow's 8 Jacobian entries are its only diffs; the
        # group law's partner and combined maps read only their components,
        # and no check reads a generator field
        for attr in ("p_x", "p_b", "p_xb"):
            getattr(s, attr)
        diffs, built = [], []
        original_diff = Poly.diff

        def counted_diff(p, var):
            diffs.append(var)
            return original_diff(p, var)

        monkeypatch.setattr(Poly, "diff", counted_diff)
        for builder in self.GENERATOR_BUILDERS:

            def counted(*args, _builder=builder, _original=getattr(flows_mod, builder)):
                built.append(_builder)
                return _original(*args)

            monkeypatch.setattr(flows_mod, builder, counted)
        detection = detect_case(s)
        verifications = flows_mod.verify_flows(s, detection, flows_mod.DEFAULT_SEED, 1e-9)
        assert all(v.passed for v in verifications)
        assert len([n for n in admissible_flow_names(detection) if n != EXP_VK]) == 3
        assert len(diffs) == 24
        assert built == []
        # the generator is built on first read, once
        fm = flow(EXP_VMK, s, 1)
        assert fm.generator is fm.generator and built == ["vertical_translation"]


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
        candidate = tuple(c.eval_floats([fp])[0] for c in comps)
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
                assert s.defining_poly.eval_exact(g.apply(point)) == 0

    def test_first_generator_signs(self):
        # the JSON writes each sign map (lam, rho, mu) as its factors on x, y, a, b
        group = discrete_group(ModelSurface(5, (1, 0, 1, 0)))
        assert discrete_dict(group)["generators"][0] == [-1, -1, -1, -1]
