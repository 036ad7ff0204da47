"""One-parameter automorphism groups, their verification, discrete symmetries.

Five named flows are provided.  EXP_Vmk and EXP_V0 exist on every model
surface; EXP_V0PRIME and EXP_VK require a monomial surface, EXP_Vm1 a
binomial one.  EXP_Vm1 is built by conjugating the starred translation
(x*, b*) -> (x* - t, b* + t) with the binomial coordinate change; the
alternate closed-form transcription (x - t, y - x^k + 2(x-t)^k,
a + b^k - 2(b+t)^k, b + t) is not even the identity at t = 0 and fails the
integration oracle, so it is kept only as an audited negative (see
``vm1_transcription_mismatch``).

A polynomial flow's surface preservation and group law are checked as
identities, composed by one simultaneous ``Poly.substitute``; the para-CR
proportionality of every flow, and every check of the root-taking EXP_VK,
run in floating point at samples, and EXP_VK also against the RK4 oracle.
One rule decides every float check: its worst residual against one
tolerance, a sample where a float step overflows fails it by name, a check
that read no sample fails, and a check whose every sample overflowed
reports no residual.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .normalform import BINOMIAL, MONOMIAL, CaseDetection, detect_case
from .poly import VARS, A, B, Poly, X, Y, as_fraction
from .solver import (
    grading_field,
    oblique_translation_field,
    relative_dilation_field,
    special_conformal_field,
    vertical_translation,
)
from .surface import ModelSurface, ParaVectorField

EXP_VMK = "EXP_Vmk"
EXP_V0 = "EXP_V0"
EXP_V0PRIME = "EXP_V0PRIME"
EXP_VK = "EXP_VK"
EXP_VM1 = "EXP_Vm1"

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# name -> (the case the flow needs, None for every case; its group law)
_FLOW_TABLE = {
    EXP_VMK: (None, ADDITIVE),
    EXP_V0: (None, MULTIPLICATIVE),
    EXP_V0PRIME: (MONOMIAL, MULTIPLICATIVE),
    EXP_VK: (MONOMIAL, ADDITIVE),
    EXP_VM1: (BINOMIAL, ADDITIVE),
}
ALL_FLOW_NAMES = tuple(_FLOW_TABLE)

DEFAULT_SEED = 74207281


class InadmissibleFlowError(ValueError):
    """The named flow does not exist for the surface's detected case."""


class FlowDomainError(ValueError):
    """A parameter or point violates the flow's domain constraint."""


ExactPoint = Tuple[Fraction, Fraction, Fraction, Fraction]
FloatPoint = Tuple[float, float, float, float]


@dataclass(frozen=True)
class FlowMap:
    """A closed-form one-parameter automorphism at a fixed parameter value.

    ``components`` are the four target coordinates as polynomials in the
    source coordinates when the map is polynomial (all flows except EXP_VK).
    ``float_map`` always works; ``float_jacobian`` returns the two diagonal
    blocks d(x',y')/d(x,y) and d(a',b')/d(a,b) of the para-holomorphic map.
    """

    name: str
    surface: ModelSurface
    detection: CaseDetection  # of ``surface``; reused by ``with_param``
    param: Fraction
    law: str
    generator: ParaVectorField
    components: Optional[Tuple[Poly, Poly, Poly, Poly]]
    float_map: Callable[[FloatPoint], FloatPoint]
    float_jacobian: Callable[[FloatPoint], Tuple[Tuple[Tuple[float, ...], ...], ...]]
    domain_check: Callable[[FloatPoint], Optional[str]]
    # stricter than domain_check when the closed form continues past the
    # blow-up time of the generating ODE (odd root indices in EXP_VK)
    ode_domain_check: Optional[Callable[[FloatPoint], Optional[str]]] = None

    @property
    def is_polynomial(self) -> bool:
        return self.components is not None

    def apply_exact(self, point: Sequence[Fraction]) -> ExactPoint:
        if self.components is None:
            raise FlowDomainError(f"{self.name} involves radicals; use apply_float")
        pt = tuple(as_fraction(v) for v in point)
        return tuple(c.eval_exact(pt) for c in self.components)  # type: ignore[return-value]

    def apply_float(self, point: Sequence[float]) -> FloatPoint:
        pt = tuple(float(v) for v in point)
        violation = self.domain_check(pt)
        if violation:
            raise FlowDomainError(f"{self.name}: {violation} at {pt}")
        return self.float_map(pt)

    def with_param(self, param) -> "FlowMap":
        return _flow(self.name, self.surface, self.detection, param)


def _poly_flow(
    name: str,
    surface: ModelSurface,
    detection: CaseDetection,
    param,
    law: str,
    generator: ParaVectorField,
    comps: Tuple[Poly, Poly, Poly, Poly],
) -> FlowMap:
    def float_map(pt: FloatPoint) -> FloatPoint:
        return tuple(c.eval_float(pt) for c in comps)  # type: ignore[return-value]

    dx = [[comps[i].diff(v) for v in ("x", "y")] for i in range(2)]
    dab = [[comps[i + 2].diff(v) for v in ("a", "b")] for i in range(2)]

    def float_jacobian(pt: FloatPoint):
        xy = tuple(tuple(d.eval_float(pt) for d in row) for row in dx)
        ab = tuple(tuple(d.eval_float(pt) for d in row) for row in dab)
        return (xy, ab)

    return FlowMap(
        name=name,
        surface=surface,
        detection=detection,
        param=param,
        law=law,
        generator=generator,
        components=comps,
        float_map=float_map,
        float_jacobian=float_jacobian,
        domain_check=lambda pt: None,
    )


def _real_root(value: float, index: int) -> float:
    if index == 1:
        return value
    if index % 2 == 0:
        return value ** (1.0 / index)
    return -((-value) ** (1.0 / index)) if value < 0 else value ** (1.0 / index)


def flow(name: str, surface: ModelSurface, param) -> FlowMap:
    """Closed-form flow of the named generator on the surface.

    The name must be admissible for the surface's detected case, and the
    parameter must satisfy the flow's domain constraint.
    """
    return _flow(name, surface, detect_case(surface), param)


def _flow(name: str, surface: ModelSurface, detection: CaseDetection, param) -> FlowMap:
    if name not in _FLOW_TABLE:
        raise InadmissibleFlowError(f"unknown flow name {name!r}")
    case, law = _FLOW_TABLE[name]
    if case is not None and detection.kind != case:
        raise InadmissibleFlowError(f"{name} requires a {case.lower()} surface")
    param = as_fraction(param)
    if law == MULTIPLICATIVE and param <= 0:
        raise FlowDomainError(f"{name} requires lambda > 0")
    k = surface.k
    if name == EXP_VK:
        iota = detection.iota
        t = float(param)
        rx = k - iota
        rb = iota

        def domain_check(pt: FloatPoint) -> Optional[str]:
            x, y, a, b = pt
            uy = 1.0 - t * y
            ua = 1.0 - t * a
            if uy == 0.0 or ua == 0.0:
                return "1 - t a and 1 - t y must not vanish"
            if rx % 2 == 0 and uy <= 0.0:
                return "1 - t y > 0 required for the even root index"
            if rb % 2 == 0 and ua <= 0.0:
                return "1 - t a > 0 required for the even root index"
            return None

        def ode_domain_check(pt: FloatPoint) -> Optional[str]:
            # the integral curve exists on [0, t] only while both factors
            # stay positive, whatever the root parities
            x, y, a, b = pt
            if 1.0 - t * y <= 0.0 or 1.0 - t * a <= 0.0:
                return "flow line leaves the existence domain before time t"
            return None

        def float_map(pt: FloatPoint) -> FloatPoint:
            x, y, a, b = pt
            uy = 1.0 - t * y
            ua = 1.0 - t * a
            return (
                x / _real_root(uy, rx),
                y / uy,
                a / ua,
                b / _real_root(ua, rb),
            )

        def float_jacobian(pt: FloatPoint):
            x, y, a, b = pt
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

        return FlowMap(
            name=name,
            surface=surface,
            detection=detection,
            param=param,
            law=law,
            generator=special_conformal_field(k, iota),
            components=None,
            float_map=float_map,
            float_jacobian=float_jacobian,
            domain_check=domain_check,
            ode_domain_check=ode_domain_check,
        )
    if name == EXP_VMK:
        t = Poly.constant(param)
        comps = (X, Y + t, A + t, B)
        generator = vertical_translation()
    elif name == EXP_V0:
        comps = (param * X, param**k * Y, param**k * A, param * B)
        generator = grading_field(k)
    elif name == EXP_V0PRIME:
        iota = detection.iota
        comps = (param**iota * X, Y, A, Fraction(1) / param ** (k - iota) * B)
        generator = relative_dilation_field(k, iota)
    else:  # EXP_VM1
        t = Poly.constant(param)
        delta, nu = detection.delta, detection.nu
        # conjugate (x*, b*) -> (x* - t, b* + t) with the binomial change
        comps = (
            X - t,
            Y + delta * (X**k - (X - t) ** k),
            A + delta * ((nu * B + t) ** k - nu**k * B**k),
            B + Poly.constant(param / nu),
        )
        generator = Fraction(1, 1) / nu * oblique_translation_field(k, delta, nu)
    return _poly_flow(name, surface, detection, param, law, generator, comps)


def admissible_flow_names(detection: CaseDetection) -> Tuple[str, ...]:
    """The flows of ``ALL_FLOW_NAMES`` that the detected case admits, in that order."""
    return tuple(
        name for name, (case, _) in _FLOW_TABLE.items() if case in (None, detection.kind)
    )


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class ProportionalityWitness:
    """Pushforward factors F_* X = lambda X' and F_* Y = mu Y' at a point."""

    point: Tuple[float, ...]
    lam: float
    mu: float
    x_residual: float
    y_residual: float


@dataclass(frozen=True)
class FlowCheck:
    check: str
    passed: bool
    exact: bool
    max_residual: Optional[float]
    detail: str = ""


@dataclass(frozen=True)
class FlowVerification:
    flow_name: str
    params: Tuple[str, ...]
    passed: bool
    checks: Tuple[FlowCheck, ...]
    witnesses: Tuple[ProportionalityWitness, ...] = ()


def sample_on_surface(s: ModelSurface, count: int, seed: int = DEFAULT_SEED) -> List[ExactPoint]:
    """Exact points on the surface, deterministic for a seed: x, a, b = n/d, |n| <= 4, d <= 3."""
    rng = random.Random((seed, s.k, tuple(s.gamma)).__repr__())
    points = []
    for _ in range(count):
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        points.append(s.point_from_xab(x, a, b))
    return points


def _direction_x(s: ModelSurface, pt) -> Tuple[float, float]:
    # X = d_x + P_x d_y restricted to the (x, y) block
    return (1.0, s.p_x.eval_float(pt))


def _direction_y(s: ModelSurface, pt) -> Tuple[float, float]:
    # Y = d_b - P_b d_a in the (a, b) block, ordered (da, db)
    return (-s.p_b.eval_float(pt), 1.0)


def _finite(compute: Callable[[], Iterable[float]]) -> Optional[Tuple[float, ...]]:
    # the floats compute() returns, or None when a float step overflows:
    # an OverflowError, or an inf or nan value
    try:
        values = tuple(compute())
    except OverflowError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _worst(compute: Callable[[], Iterable[float]]) -> Optional[float]:
    # the largest |value| compute() returns, or None when a float step overflows
    values = _finite(compute)
    return None if values is None else max(abs(v) for v in values)


def _float_check(
    check: str, residuals: Sequence[Optional[float]], tolerance: float, total: int
) -> FlowCheck:
    # The one rule of every float check.  ``residuals`` holds one entry per
    # sample the check read, None where a float step overflowed, out of
    # ``total`` admissible samples.  The worst residual must be within
    # ``tolerance``; an overflow fails the check by name, and so does a check
    # that read no sample.  When every sample overflowed there is no worst.
    if not residuals:
        outside = "no sample lies in the partner and combined flow domains"
        return FlowCheck(check, False, False, None, outside if total else "no admissible samples")
    read = [r for r in residuals if r is not None]
    worst = max(read) if read else None
    overflowed = len(residuals) - len(read)
    detail = f"tolerance {tolerance:g}"
    if overflowed:
        detail += f"; float overflow at {overflowed} of {total} samples"
    return FlowCheck(check, not overflowed and worst <= tolerance, False, worst, detail)


def _proportionality(fm: FlowMap, fp: FloatPoint) -> Tuple[float, float, float, float]:
    # pushforwards of X and Y at fp against the direction fields at the image
    s = fm.surface
    xy_block, ab_block = fm.float_jacobian(fp)
    image = fm.apply_float(fp)
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


def verify_flow(
    fm: FlowMap,
    samples: Sequence[ExactPoint],
    group_partner=None,
    tolerance: float = 1e-9,
) -> FlowVerification:
    """Check surface preservation, para-CR proportionality and the group law.

    A polynomial flow Phi's surface and group-law checks are identities,
    composed by ``Poly.substitute`` without reading a sample: ``def o Phi``
    vanishes once y = a + P, and ``Phi_s o Phi_t = Phi_{s+t}`` (``Phi_{st}``
    for a dilation).  They hold or fail whatever the samples: residual 0.0
    means it holds, None that it fails.  The para-CR proportionality of
    every flow, and the surface and group-law checks of the radical EXP_VK,
    run in floating point at the admissible samples, and one rule decides
    each: the worst residual against the one absolute ``tolerance``.

    A float step that overflows at a sample (a coordinate too large for a
    float, or an inf or nan value) fails its check, whose detail names the
    float overflow, and a check whose every sample overflowed reports None;
    a sample that does not convert to floats at all fails a ``float_range``
    check, and a float check left with no sample fails.  Nothing is skipped
    silently.
    """
    s = fm.surface
    in_domain: List[FloatPoint] = []
    unconverted = 0
    for p in samples:
        fp = _finite(lambda: tuple(float(v) for v in p))
        if fp is None:
            unconverted += 1
        elif fm.domain_check(fp) is None:
            in_domain.append(fp)
    checks: List[FlowCheck] = []
    if unconverted:
        detail = f"float overflow at {unconverted} of {len(samples)} samples"
        checks.append(FlowCheck("float_range", False, False, None, detail))
    total = len(in_domain)

    # (1) surface preservation
    if fm.is_polynomial:
        phi = dict(zip(VARS, fm.components))
        ok = s.substitute_y(s.defining_poly.substitute(phi)).is_zero
        checks.append(
            FlowCheck("surface_preservation", ok, True, 0.0 if ok else None, "exact residuals")
        )
    else:
        residuals = [
            _worst(lambda: (s.defining_poly.eval_float(fm.apply_float(fp)),)) for fp in in_domain
        ]
        checks.append(_float_check("surface_preservation", residuals, tolerance, total))

    # (2) para-CR property: pushforward proportional to the direction fields;
    # a zero factor is no proportionality, an infinite residual
    witnesses: List[ProportionalityWitness] = []
    residuals = []
    for fp in in_domain:
        values = _finite(lambda: _proportionality(fm, fp))
        if values is None:
            residuals.append(None)
            continue
        w = ProportionalityWitness(fp, *values)
        witnesses.append(w)
        scale = 1.0 + abs(w.lam) + abs(w.mu)
        residuals.append(max(w.x_residual, w.y_residual) / scale if w.lam and w.mu else math.inf)
    checks.append(_float_check("para_cr_proportionality", residuals, tolerance, total))

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
            residuals = []
            for fp in in_domain:
                mid = _finite(lambda: fm.apply_float(fp))
                if mid is None:
                    residuals.append(None)
                elif partner.domain_check(mid) is None and combined.domain_check(fp) is None:
                    residuals.append(
                        _worst(lambda: map(sub, partner.apply_float(mid), combined.apply_float(fp)))
                    )
            checks.append(_float_check("group_law", residuals, tolerance, total))

    passed = all(c.passed for c in checks)
    return FlowVerification(fm.name, (str(fm.param),), passed, tuple(checks), tuple(witnesses))


# -- integration oracle --------------------------------------------------------


def rk4_oracle(
    v: ParaVectorField, p0: Sequence[float], t: float, steps: int = 1000
) -> FloatPoint:
    """Classical 4th-order integration of dp/dt = V(p) from p0 over time t.

    The whole loop is compiled once per field (``rk4_integrator``), from
    the source that also defines ``float_velocity``, so each stage runs the
    field's components inline on scalar locals, with a factor of exponent
    1 written as the bare variable.  The float operations are part of the
    contract, so the endpoints are reproducible bit for bit: a stage point
    is ``p + 0.5 * h * k`` (``p + h * k3`` for the last stage) and a step is
    ``p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``, per coordinate.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    h = t / steps
    x, y, a, b = (float(c) for c in p0)
    return v.rk4_integrator()(x, y, a, b, h, 0.5 * h, h / 6.0, steps)


def flow_time(fm: FlowMap) -> float:
    """Integration time matching the flow parameter (log for dilations)."""
    if fm.law == ADDITIVE:
        return float(fm.param)
    return math.log(float(fm.param))


def rk4_mismatch(fm: FlowMap, samples: Sequence[ExactPoint], steps: int = 1000) -> float:
    """Worst coordinate difference between the closed form and the oracle.

    Points whose integral curve does not exist through the whole parameter
    interval are skipped; there the closed form is an analytic continuation
    rather than the ODE solution.  Skipping every point raises FlowDomainError.
    A point that overflows (a coordinate too large for a float, or an
    ``OverflowError``, inf or NaN in the closed form or in the integration)
    counts as ``math.inf``, and so does a coordinate difference that
    overflows, so such a point fails every limit.
    """
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
        residual = _worst(
            lambda: map(sub, fm.apply_float(fp), rk4_oracle(fm.generator, fp, time, steps))
        )
        if residual is None:
            return math.inf
        worst = max(worst, residual)
    return worst


# -- rejected closed-form transcription for EXP_Vm1 ----------------------------


def vm1_transcription_candidate(s: ModelSurface, t: Fraction) -> Tuple[Poly, Poly, Poly, Poly]:
    """(x - t, y - x^k + 2(x-t)^k, a + b^k - 2(b+t)^k, b + t), for auditing."""
    k = s.k
    t = as_fraction(t)
    return (
        X - Poly.constant(t),
        Y - X**k + 2 * (X - Poly.constant(t)) ** k,
        A + B**k - 2 * (B + Poly.constant(t)) ** k,
        B + Poly.constant(t),
    )


def vm1_transcription_mismatch(s: ModelSurface) -> str:
    """Evidence that the alternate transcription is not a flow of the surface.

    At t = 0 the candidate maps (x, y, a, b) to (x, y + x^k, a - b^k, b),
    which is not the identity, so it cannot be the exponential of any
    generator.  Returns a one-line description for the report warnings.
    """
    comps = vm1_transcription_candidate(s, Fraction(0))
    identity = (X, Y, A, B)
    deviating = [
        name
        for name, got, want in zip("xyab", comps, identity)
        if got != want
    ]
    return (
        "EXP_Vm1 uses the conjugation-derived closed form; the alternate "
        "transcription (x-t, y-x^k+2(x-t)^k, a+b^k-2(b+t)^k, b+t) deviates "
        f"from the identity at t=0 in components {', '.join(deviating)} and is rejected"
    )


# -- discrete automorphisms -----------------------------------------------------


@dataclass(frozen=True)
class SignMap:
    """Coordinate sign flip (x, y, a, b) -> (sx x, sy y, sa a, sb b)."""

    sx: int
    sy: int
    sa: int
    sb: int

    def signs(self) -> Tuple[int, int, int, int]:
        return (self.sx, self.sy, self.sa, self.sb)

    def apply(self, point):
        return tuple(s * v for s, v in zip(self.signs(), point))

    def transform_poly(self, p: Poly) -> Poly:
        return p.substitute({v: s * g for v, s, g in zip(VARS, self.signs(), (X, Y, A, B))})


@dataclass(frozen=True)
class DiscreteGroup:
    kind: str  # "Z2" or "Z2xZ2"
    generators: Tuple[SignMap, ...]


def discrete_group(s: ModelSurface) -> DiscreteGroup:
    """Discrete automorphisms: sign flips preserving the defining equation.

    The flip (-x, -b, (-1)^k a, (-1)^k y) always preserves the surface; the
    b-only flip exists exactly when every index with nonzero gamma has the
    same parity.  Each generator is verified symbolically.
    """
    k = s.k
    sk = (-1) ** k
    generators = [SignMap(sx=-1, sy=sk, sa=sk, sb=-1)]
    indices = [i for i, g in enumerate(s.gamma, start=1) if g != 0]
    parities = {i % 2 for i in indices}
    if len(parities) == 1:
        si = (-1) ** indices[0]
        generators.append(SignMap(sx=1, sy=si, sa=si, sb=-1))
    for g in generators:
        image = g.transform_poly(s.defining_poly)
        if image != s.defining_poly and image != -s.defining_poly:
            raise AssertionError(f"sign map {g} does not preserve the surface")
    kind = "Z2xZ2" if len(generators) == 2 else "Z2"
    return DiscreteGroup(kind, tuple(generators))
