"""One-parameter automorphism groups, their verification, discrete symmetries.

Five named flows are declared in one table, ``_FLOW_TABLE``: the case each
needs, its group law, and the parameter and group-law partner ``analyze``
verifies it at.  EXP_Vmk and EXP_V0 exist on every model surface;
EXP_V0PRIME and EXP_VK require a monomial surface, EXP_Vm1 a binomial one.
EXP_V0 and EXP_V0PRIME are one-parameter subgroups of the weight-0 torus,
``normalform.TorusMap``, and the discrete group is generated by the
torus's sign maps that fix gamma.
A ``FlowMap`` is its name, surface, detected case, parameter and closed
form as four polynomial components; EXP_VK, the one flow with radicals, has
no components and is the subclass ``_RadicalFlow``.  EXP_Vm1 is built by
conjugating the starred translation (x*, b*) -> (x* - t, b* + t) with the
binomial coordinate change, its y and a components expanded by the binomial
theorem on int numerators over one denominator each; the alternate
closed-form transcription (x - t, y - x^k + 2(x-t)^k, a + b^k - 2(b+t)^k,
b + t) is not even the identity at t = 0 and fails the integration oracle,
so it is kept only as an audited negative (see ``vm1_transcription_mismatch``).

A polynomial flow's surface preservation and group law are checked as
identities, composed by one simultaneous ``Poly.substitute``; the para-CR
proportionality of every flow, and every check of the root-taking EXP_VK,
run in floating point at samples, and EXP_VK also against the RK4 oracle.
One rule decides every float check: its worst residual against one
tolerance, a sample where a float step overflows fails it by name, a check
that read no sample fails, and a check whose every sample overflowed
reports no residual.  A float check reads all its samples in one pass: a
point list's float coordinate columns are built once (``poly.float_columns``)
and ``Poly.eval_columns`` walks each polynomial's Horner tree once over
them, so a flow's map and its Jacobian share the samples' columns, and the
direction fields at the images share the images' columns.  Each sample's
value takes the float operations, in the order, it would take alone.  An
``OverflowError`` at any sample reruns the check on each sample alone, so it
fails only the samples where it arises.  ``verify_flows`` is the flow stage
of ``analyze``; it evaluates the direction fields' P_x and P_b at the shared
samples once per surface, for every flow.  ``sample_on_surface`` draws
every sample's graph coordinates first and ``ModelSurface.lift`` lifts them
onto the surface in one pass.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .normalform import BINOMIAL, MONOMIAL, CaseDetection, TorusMap, detect_case
from .poly import VARS, A, B, Poly, Record, X, Y, as_fraction, float_columns, from_scaled
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

# name -> (the case the flow needs, None for every case; its group law;
# the parameter and group-law partner analyze verifies it at)
_FLOW_TABLE = {
    EXP_VMK: (None, ADDITIVE, Fraction(1), Fraction(1, 2)),
    EXP_V0: (None, MULTIPLICATIVE, Fraction(2), Fraction(3, 2)),
    EXP_V0PRIME: (MONOMIAL, MULTIPLICATIVE, Fraction(3), Fraction(2)),
    EXP_VK: (MONOMIAL, ADDITIVE, Fraction(1, 10), Fraction(1, 7)),
    EXP_VM1: (BINOMIAL, ADDITIVE, Fraction(1, 10), Fraction(1, 7)),
}
ALL_FLOW_NAMES = tuple(_FLOW_TABLE)

DEFAULT_SEED = 74207281
DEFAULT_FLOW_SAMPLES = 20
DEFAULT_TOLERANCE = 1e-9  # the absolute limit of every float check of a flow


class InadmissibleFlowError(ValueError):
    """The named flow does not exist for the surface's detected case."""


class FlowDomainError(ValueError):
    """A parameter or point violates the flow's domain constraint."""


ExactPoint = Tuple[Fraction, Fraction, Fraction, Fraction]
FloatPoint = Tuple[float, float, float, float]
Columns = Sequence[List[float]]  # a point list's x, y, a and b columns (poly.float_columns)
Blocks = Tuple[Tuple[Tuple[float, ...], ...], ...]  # the Jacobian's two diagonal blocks


class FlowMap(Record):
    """A closed-form one-parameter automorphism at a fixed parameter value.

    ``components`` are the four target coordinates as polynomials in the
    source coordinates; only the radical EXP_VK (``_RadicalFlow``) has none.
    The group law is read from the flow table by name, and ``generator``,
    ``float_map`` and ``jacobian_columns`` are derived from the fields: the
    generator field and the Jacobian's polynomials are built once, on first
    use.  ``float_map`` takes a list of points and returns one image per
    point; ``map_columns`` and ``jacobian_columns`` take the points'
    ``poly.float_columns``, which a caller that needs both builds once, and
    ``jacobian_columns``'s entry per point is the two diagonal blocks
    d(x',y')/d(x,y) and d(a',b')/d(a,b) of the para-holomorphic map.
    ``detection`` is the ``CaseDetection`` of ``surface``, reused by
    ``with_param``.
    """

    __match_args__ = ("name", "surface", "detection", "param", "components")

    @property
    def law(self) -> str:
        return _FLOW_TABLE[self.name][1]

    @property
    def is_polynomial(self) -> bool:
        return self.components is not None

    @cached_property
    def generator(self) -> ParaVectorField:
        k, d = self.surface.k, self.detection
        if self.name == EXP_VMK:
            return vertical_translation()
        if self.name == EXP_V0:
            return grading_field(k)
        if self.name == EXP_V0PRIME:
            return relative_dilation_field(k, d.iota)
        if self.name == EXP_VK:
            return special_conformal_field(k, d.iota)
        return Fraction(1, 1) / d.nu * oblique_translation_field(k, d.delta, d.nu)

    def float_map(self, pts: Sequence[FloatPoint]) -> List[FloatPoint]:
        """The closed form at each point."""
        return self.map_columns(float_columns(pts))

    def map_columns(self, columns: Columns) -> List[FloatPoint]:
        """The closed form at each point of the columns, by one column walk per component."""
        return list(zip(*(c.eval_columns(columns) for c in self.components)))

    @cached_property
    def _jacobian(self) -> Tuple[List[List[Poly]], List[List[Poly]]]:
        comps = self.components
        dx = [[comps[i].diff(v) for v in ("x", "y")] for i in range(2)]
        dab = [[comps[i + 2].diff(v) for v in ("a", "b")] for i in range(2)]
        return dx, dab

    def jacobian_columns(self, columns: Columns) -> List[Blocks]:
        """The two diagonal blocks at each point of the columns, by one column walk per entry."""
        dx, dab = self._jacobian
        return list(zip(_blocks(dx, columns), _blocks(dab, columns)))

    def domain_check(self, pt: FloatPoint) -> Optional[str]:
        """Why the closed form does not apply at ``pt``, or None."""
        return None

    def ode_domain_check(self, pt: FloatPoint) -> Optional[str]:
        """Why the integral curve through ``pt`` does not reach the parameter,
        or None.  Stricter than ``domain_check`` where the closed form
        continues past the blow-up time of the generating ODE."""
        return self.domain_check(pt)

    def with_param(self, param) -> "FlowMap":
        return _flow(self.name, self.surface, self.detection, param)


def _blocks(rows: List[List[Poly]], columns: Columns):
    # per point, the rows of polynomials evaluated there, as a tuple of tuples
    return zip(*(zip(*(d.eval_columns(columns) for d in row)) for row in rows))


def _real_root(value: float, index: int) -> float:
    if index == 1:
        return value
    if index % 2 == 0:
        return value ** (1.0 / index)
    return -((-value) ** (1.0 / index)) if value < 0 else value ** (1.0 / index)


class _RadicalFlow(FlowMap):
    """EXP_VK on the monomial surface with exponent iota:
    (x / (1-ty)^(1/(k-iota)), y / (1-ty), a / (1-ta), b / (1-ta)^(1/iota))."""

    @cached_property
    def _time_and_roots(self) -> Tuple[float, int, int]:
        # t as a float, and the root indices of 1 - t y and of 1 - t a
        return float(self.param), self.surface.k - self.detection.iota, self.detection.iota

    def domain_check(self, pt: FloatPoint) -> Optional[str]:
        x, y, a, b = pt
        t, rx, rb = self._time_and_roots
        uy = 1.0 - t * y
        ua = 1.0 - t * a
        if uy == 0.0 or ua == 0.0:
            return "1 - t a and 1 - t y must not vanish"
        if rx % 2 == 0 and uy <= 0.0:
            return "1 - t y > 0 required for the even root index"
        if rb % 2 == 0 and ua <= 0.0:
            return "1 - t a > 0 required for the even root index"
        return None

    def ode_domain_check(self, pt: FloatPoint) -> Optional[str]:
        # the integral curve exists on [0, t] only while both factors
        # stay positive, whatever the root parities
        x, y, a, b = pt
        t = self._time_and_roots[0]
        if 1.0 - t * y <= 0.0 or 1.0 - t * a <= 0.0:
            return "flow line leaves the existence domain before time t"
        return None

    def map_columns(self, columns: Columns) -> List[FloatPoint]:
        t, rx, rb = self._time_and_roots
        images = []
        for x, y, a, b in zip(*columns):
            uy = 1.0 - t * y
            ua = 1.0 - t * a
            images.append((x / _real_root(uy, rx), y / uy, a / ua, b / _real_root(ua, rb)))
        return images

    def jacobian_columns(self, columns: Columns) -> List[Blocks]:
        t, rx, rb = self._time_and_roots
        jacobians = []
        for x, y, a, b in zip(*columns):
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
            jacobians.append((xy_block, ab_block))
        return jacobians


def flow(name: str, surface: ModelSurface, param) -> FlowMap:
    """Closed-form flow of the named generator on the surface.

    The name must be admissible for the surface's detected case, and the
    parameter must satisfy the flow's domain constraint.
    """
    return _flow(name, surface, detect_case(surface), param)


def _flow(name: str, surface: ModelSurface, detection: CaseDetection, param) -> FlowMap:
    if name not in _FLOW_TABLE:
        raise InadmissibleFlowError(f"unknown flow name {name!r}")
    case, law, _, _ = _FLOW_TABLE[name]
    if case is not None and detection.kind != case:
        raise InadmissibleFlowError(f"{name} requires a {case.lower()} surface")
    param = as_fraction(param)
    if law == MULTIPLICATIVE and param <= 0:
        raise FlowDomainError(f"{name} requires lambda > 0")
    if name == EXP_VK:
        return _RadicalFlow(name, surface, detection, param, None)
    k = surface.k
    if name == EXP_VMK:
        t = Poly.constant(param)
        comps = (X, Y + t, A + t, B)
    elif name == EXP_V0:
        comps = TorusMap(param, param, param**k).change()
    elif name == EXP_V0PRIME:
        comps = TorusMap(param**detection.iota, param ** (detection.iota - k), 1).change()
    else:  # EXP_VM1
        delta, nu, t = detection.delta, detection.nu, param
        # conjugate (x*, b*) -> (x* - t, b* + t) with the binomial change:
        # y + delta (x^k - (x - t)^k) and a + delta ((nu b + t)^k - nu^k b^k),
        # expanded by the binomial theorem on int numerators over one common
        # denominator per component, dd td^k and dd nd^(k-1) td^k
        dn, dd = delta.numerator, delta.denominator
        nn, nd = nu.numerator, nu.denominator
        tn, td = t.numerator, t.denominator
        y_den, a_den = dd * td**k, dd * nd ** (k - 1) * td**k
        y_terms = {(0, 1, 0, 0): y_den}
        a_terms = {(0, 0, 1, 0): a_den}
        for j in range(k):
            c = dn * math.comb(k, j) * td**j
            y_terms[j, 0, 0, 0] = -c * (-tn) ** (k - j)
            a_terms[0, 0, 0, j] = c * tn ** (k - j) * nn**j * nd ** (k - 1 - j)
        y, a = from_scaled(y_terms, y_den), from_scaled(a_terms, a_den)
        comps = (X - Poly.constant(t), y, a, B + Poly.constant(t / nu))
    return FlowMap(name, surface, detection, param, comps)


def admissible_flow_names(detection: CaseDetection) -> Tuple[str, ...]:
    """The flows of ``ALL_FLOW_NAMES`` that the detected case admits, in that order."""
    return tuple(
        name for name, (case, *_) in _FLOW_TABLE.items() if case in (None, detection.kind)
    )


def verification_params(name: str) -> Tuple[Fraction, Fraction]:
    """The parameter and group-law partner ``analyze`` verifies the named flow at."""
    _, _, param, partner = _FLOW_TABLE[name]
    return param, partner


# -- verification -------------------------------------------------------------


class ProportionalityWitness(NamedTuple):
    """Pushforward factors F_* X = lambda X' and F_* Y = mu Y' at a point."""

    point: Tuple[float, ...]
    lam: float
    mu: float
    x_residual: float
    y_residual: float


class FlowCheck(NamedTuple):
    check: str
    passed: bool
    exact: bool
    max_residual: Optional[float]
    detail: str = ""


class FlowVerification(NamedTuple):
    flow_name: str
    params: Tuple[str, ...]
    passed: bool
    checks: Tuple[FlowCheck, ...]
    witnesses: Tuple[ProportionalityWitness, ...] = ()


# the 27 values n/d a sample coordinate can take, |n| <= 4 and d <= 3, by (n, d)
_SAMPLE_VALUES = {(n, d): Fraction(n, d) for n in range(-4, 5) for d in range(1, 4)}


def sample_on_surface(s: ModelSurface, count: int, seed: int = DEFAULT_SEED) -> List[ExactPoint]:
    """Exact points on the surface, deterministic for a seed: x, a, b = n/d, |n| <= 4, d <= 3.

    Each coordinate is drawn as ``randint(-4, 4)`` then ``randint(1, 3)``,
    x, b and a in that order, and read from the table of the 27 values n/d;
    ``ModelSurface.lift`` then lifts all the draws in one pass.
    """
    randint = random.Random((seed, s.k, tuple(s.gamma)).__repr__()).randint
    draws = []
    for _ in range(count):
        x = _SAMPLE_VALUES[randint(-4, 4), randint(1, 3)]
        b = _SAMPLE_VALUES[randint(-4, 4), randint(1, 3)]
        a = _SAMPLE_VALUES[randint(-4, 4), randint(1, 3)]
        draws.append((x, a, b))
    return s.lift(draws)


def _finite(compute: Callable[[], Iterable[float]]) -> Optional[Tuple[float, ...]]:
    # the floats compute() returns, or None when a float step overflows:
    # an OverflowError, or an inf or nan value
    try:
        values = tuple(compute())
    except OverflowError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _finite_rows(compute: Callable[[Sequence], List[Tuple[float, ...]]], points: Sequence):
    # the row of floats compute(points) returns for each point, None where a
    # float step overflows; after an OverflowError each point runs alone
    try:
        rows = compute(points)
    except OverflowError:
        return [_finite(lambda: compute([p])[0]) for p in points]
    return [row if all(map(math.isfinite, row)) else None for row in rows]


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


def _directions(s: ModelSurface, pts: Sequence[FloatPoint]) -> List[Tuple[float, float]]:
    # per point, (P_x, P_b) there: the direction fields X and Y at the point
    columns = float_columns(pts)
    return list(zip(s.p_x.eval_columns(columns), s.p_b.eval_columns(columns)))


def _proportionality(
    fm: FlowMap, items: Sequence[Tuple[FloatPoint, Optional[Tuple[float, float]]]]
) -> List[Tuple[float, ...]]:
    # per (point, its _directions row or None where that overflowed):
    # pushforwards of X = d_x + P_x d_y and Y = d_b - P_b d_a against the
    # direction fields at the image, as (lam, mu, res_x, res_y); X's d_x and
    # Y's d_b components are 1, and a float times 1.0 is itself
    s = fm.surface
    columns = float_columns([fp for fp, _ in items])
    images = float_columns(fm.map_columns(columns))
    jacobians = fm.jacobian_columns(columns)
    directions = [d for _, d in items]
    if None in directions:
        raise OverflowError("a direction field overflows at a point")
    rows = []
    for (xy_block, ab_block), (px, pb), px_image, pb_image in zip(
        jacobians, directions, s.p_x.eval_columns(images), s.p_b.eval_columns(images)
    ):
        (j00, j01), (j10, j11) = xy_block
        (k00, k01), (k10, k11) = ab_block
        lam = j00 + j01 * px
        res_x = abs(j10 + j11 * px - lam * px_image)
        mu = k10 * -pb + k11
        res_y = abs(k00 * -pb + k01 - mu * -pb_image)
        rows.append((lam, mu, res_x, res_y))
    return rows


def _float_samples(samples: Sequence[ExactPoint]) -> Tuple[List[FloatPoint], int]:
    # the samples that convert to finite floats, and how many do not
    rows = _finite_rows(lambda pts: [tuple(float(v) for v in p) for p in pts], samples)
    converted = [row for row in rows if row is not None]
    return converted, len(rows) - len(converted)


def verify_flow(
    fm: FlowMap,
    samples: Sequence[ExactPoint],
    group_partner=None,
    tolerance: float = DEFAULT_TOLERANCE,
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
    return _verify_flow(fm, *_prepared(fm.surface, samples), group_partner, tolerance)


def verify_flows(
    surface: ModelSurface,
    detection: CaseDetection,
    seed: int,
    tolerance: float,
    flow_samples: int = DEFAULT_FLOW_SAMPLES,
) -> Tuple[FlowVerification, ...]:
    """Verify each named flow the case admits, at its fixed parameter and
    group-law partner, on ``flow_samples`` points drawn with ``seed``."""
    samples = sample_on_surface(surface, flow_samples, seed=seed)
    # every flow reads the same samples, converted to floats once, and the
    # same direction fields there, evaluated once
    prepared = _prepared(surface, samples)
    verifications = []
    for name in admissible_flow_names(detection):
        param, partner = verification_params(name)
        fm = _flow(name, surface, detection, param)
        verifications.append(_verify_flow(fm, *prepared, partner, tolerance))
    return tuple(verifications)


def _prepared(
    s: ModelSurface, samples: Sequence[ExactPoint]
) -> Tuple[List[FloatPoint], List[Optional[Tuple[float, float]]], int]:
    # the samples that convert to floats, the _directions row of each (None
    # where it overflows), and how many samples do not convert
    converted, unconverted = _float_samples(samples)
    return converted, _finite_rows(lambda pts: _directions(s, pts), converted), unconverted


def _verify_flow(
    fm: FlowMap,
    converted: List[FloatPoint],
    directions: List[Optional[Tuple[float, float]]],
    unconverted: int,
    group_partner,
    tolerance: float,
) -> FlowVerification:
    # verify_flow on samples already converted to floats, with the
    # _directions row of each (None where it overflows), ``unconverted``
    # more having failed to convert
    s = fm.surface
    admitted = [(fp, d) for fp, d in zip(converted, directions) if fm.domain_check(fp) is None]
    in_domain = [fp for fp, _ in admitted]
    checks: List[FlowCheck] = []
    if unconverted:
        detail = f"float overflow at {unconverted} of {len(converted) + unconverted} samples"
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
        rows = _finite_rows(
            lambda pts: [(v,) for v in s.defining_poly.eval_floats(fm.float_map(pts))], in_domain
        )
        residuals = [None if row is None else abs(row[0]) for row in rows]
        checks.append(_float_check("surface_preservation", residuals, tolerance, total))

    # (2) para-CR property: pushforward proportional to the direction fields;
    # a zero factor is no proportionality, an infinite residual
    witnesses: List[ProportionalityWitness] = []
    residuals = []
    rows = _finite_rows(lambda items: _proportionality(fm, items), admitted)
    for fp, values in zip(in_domain, rows):
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
            pairs = []  # (Phi_t(p), p) where the partner and the combined flow apply
            for fp, mid in zip(in_domain, _finite_rows(fm.float_map, in_domain)):
                if mid is None:
                    residuals.append(None)
                elif partner.domain_check(mid) is None and combined.domain_check(fp) is None:
                    pairs.append((mid, fp))

            def differences(pairs):
                composed = partner.float_map([mid for mid, _ in pairs])
                direct = combined.float_map([fp for _, fp in pairs])
                return [tuple(map(sub, u, v)) for u, v in zip(composed, direct)]

            rows = _finite_rows(differences, pairs)
            residuals += [None if row is None else max(abs(v) for v in row) for row in rows]
            checks.append(_float_check("group_law", residuals, tolerance, total))

    passed = all(c.passed for c in checks)
    return FlowVerification(fm.name, (str(fm.param),), passed, tuple(checks), tuple(witnesses))


# -- integration oracle --------------------------------------------------------


def _check_steps(steps: int) -> None:
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError(f"steps must be an int of at least 1, got {steps!r}")


def rk4_oracle(
    v: ParaVectorField, p0: Sequence[float], t: float, steps: int = 1000
) -> FloatPoint:
    """Classical 4th-order integration of dp/dt = V(p) from p0 over time t.

    The whole loop is compiled once per field (``rk4_integrator``), so
    each stage runs the field's components inline on scalar locals, with a
    factor of exponent 1 written as the bare variable, a coefficient 1.0
    left out and a constant component computed once.  The float operations
    are part of the contract, so the endpoints are reproducible bit for
    bit: a stage point is ``p + 0.5 * h * k`` (``p + h * k3`` for the last
    stage) and a step is ``p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)``,
    per coordinate.
    """
    _check_steps(steps)
    h = t / steps
    x, y, a, b = (float(c) for c in p0)
    return v.rk4_integrator()(x, y, a, b, h, 0.5 * h, h / 6.0, steps)


def flow_time(fm: FlowMap) -> float:
    """Integration time matching the flow parameter (log for dilations)."""
    if fm.law == ADDITIVE:
        return float(fm.param)
    return math.log(float(fm.param))


def _rk4_endpoint(v: ParaVectorField, p0: FloatPoint, t: float, steps: int) -> FloatPoint:
    # rk4_mismatch's ladder.  Step doubling (Hairer, Norsett and Wanner,
    # Solving ODEs I, II.4): the 2n-step error is about a fifteenth of the
    # difference from n steps, so once that difference is within the
    # steps-step run's rounding, more steps buy nothing
    floor = steps * 2.0**-52
    n, before = steps // 8, None
    while 0 < n < steps:
        end = _finite(lambda: rk4_oracle(v, p0, t, n))
        if end is not None and before is not None:
            limit = floor * max(1.0, *map(abs, end))
            if all(abs(u - w) <= limit for u, w in zip(end, before)):
                return end
        n, before = 2 * n, end
    return rk4_oracle(v, p0, t, steps)


def rk4_mismatch(fm: FlowMap, samples: Sequence[ExactPoint], steps: int = 1000) -> float:
    """Worst coordinate difference between the closed form and the oracle.

    ``steps`` is the ceiling of a doubling ladder, run once per point: the
    oracle integrates with ``steps // 8`` steps, then twice as many, and so
    on, and stops at the first count below ``steps`` whose endpoint agrees
    with the count before it, in every coordinate, to within
    ``steps * 2**-52 * max(1, max |coordinate|)``, the rounding the
    ``steps``-step run carries anyway; that endpoint is compared with the
    closed form.  Where no count below ``steps`` agrees (a rung that
    overflows agrees with nothing), the ``steps``-step endpoint is compared,
    bit for bit the fixed-step ``rk4_oracle`` run.  ``steps`` must be an int
    of at least 1, or ValueError is raised before any sample is read.

    Points whose integral curve does not exist through the whole parameter
    interval are skipped; there the closed form is an analytic continuation
    rather than the ODE solution.  Skipping every point raises FlowDomainError.
    A point that overflows (a coordinate too large for a float, or an
    ``OverflowError``, inf or NaN in the closed form or in the integration)
    counts as ``math.inf``, and so does a coordinate difference that
    overflows, so such a point fails every limit.
    """
    _check_steps(steps)
    converted, unconverted = _float_samples(samples)
    if unconverted:
        return math.inf
    points = [
        fp for fp in converted if fm.domain_check(fp) is None and fm.ode_domain_check(fp) is None
    ]
    if not points:
        raise FlowDomainError(f"{fm.name}: no sample lies in the flow's existence domain")
    worst = 0.0
    time = flow_time(fm)
    for fp, closed in zip(points, _finite_rows(fm.float_map, points)):
        if closed is None:
            return math.inf
        diffs = _finite(lambda: map(sub, closed, _rk4_endpoint(fm.generator, fp, time, steps)))
        if diffs is None:
            return math.inf
        worst = max(worst, *map(abs, diffs))
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


class DiscreteGroup(NamedTuple):
    kind: str  # "Z2" or "Z2xZ2"
    generators: Tuple[TorusMap, ...]


def discrete_group(s: ModelSurface) -> DiscreteGroup:
    """Discrete automorphisms: the sign maps of the weight-0 torus that fix gamma.

    Of the sign pairs (lam, rho) = (-1, -1) and (1, -1), in that order, each
    gives the ``TorusMap`` (lam, rho, mu) whose mu = lam^(k-i) rho^i keeps
    gamma's first nonzero gamma_i, and that map is a generator when it fixes
    all of gamma.  The first always does: it is the grading dilation at
    s = -1.  Each generator is verified symbolically.
    """
    i = next(i for i, g in enumerate(s.gamma, start=1) if g != 0)
    signs = [TorusMap(lam, rho, lam ** (s.k - i) * rho**i) for lam, rho in ((-1, -1), (1, -1))]
    generators = tuple(g for g in signs if g.act(s.gamma) == s.gamma)
    for g in generators:
        if g.transform_poly(s.defining_poly) != g.mu * s.defining_poly:
            raise AssertionError(f"sign map {g} does not preserve the surface")
    kind = "Z2xZ2" if len(generators) == 2 else "Z2"
    return DiscreteGroup(kind, generators)
