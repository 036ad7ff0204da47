"""Model hypersurfaces y = a + P(x, b) and para-holomorphic vector fields.

A model surface of degree k >= 3 is defined by P(x, b) = sum_i g_i b^i x^(k-i)
for i = 1 .. k-1, so P is weighted-homogeneous of degree k and carries no pure
x^k or b^k term.  A para-holomorphic vector field splits into an (a, b) part
and an (x, y) part; tangency to the surface is an exact polynomial condition.
On the surface y^j is (a + P)^j, expanded once per power (``y_power``) for
both substituting y and the per-weight tangency systems, which also read
each product (a + P)^j P_x once per surface (``y_power_p_x``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .poly import (
    A, ONE, VARS, Exponents, Grading, Poly, Rational, Record, UnsupportedDegreeError, Y,
    as_fraction, from_scaled, mentions, over_common_denominator,
)


class InvalidSurfaceError(ValueError):
    """Raised for gamma sequences that do not define a model surface."""


class MixedComponentError(ValueError):
    """Raised when a vector field component mixes the (x,y) and (a,b) sides."""


class ModelSurface(Record):
    """Degree k plus the coefficient sequence (g_1, ..., g_{k-1}) of P."""

    __match_args__ = ("k", "gamma")

    def __init__(self, k: int, gamma: Tuple[Fraction, ...]):
        if not isinstance(k, int) or k < 3:
            raise UnsupportedDegreeError(
                f"model surfaces require integer degree k >= 3, got {k!r}"
            )
        gamma = tuple(as_fraction(g) for g in gamma)
        if len(gamma) != k - 1:
            raise InvalidSurfaceError(
                f"expected {k - 1} coefficients for k={k}, got {len(gamma)}"
            )
        if all(g == 0 for g in gamma):
            raise InvalidSurfaceError("at least one gamma coefficient must be nonzero")
        super().__init__(k, gamma)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hash((k, gamma)), computed once: every solve_weight cache lookup
        # hashes the surface, and each gamma Fraction's hash is not cached
        return super().__hash__()

    @cached_property
    def p(self) -> Poly:
        """P(x, b) = sum g_i b^i x^(k-i)."""
        terms = {}
        for i, g in enumerate(self.gamma, start=1):
            if g != 0:
                terms[(self.k - i, 0, 0, i)] = g
        return Poly(terms)

    @cached_property
    def p_x(self) -> Poly:
        return self.p.diff("x")

    @cached_property
    def p_b(self) -> Poly:
        return self.p.diff("b")

    @cached_property
    def p_xb(self) -> Poly:
        return self.p_x.diff("b")

    @cached_property
    def defining_poly(self) -> Poly:
        """y - a - P(x, b); the surface is its zero set."""
        return Y - A - self.p

    @cached_property
    def _y_powers(self) -> List[Poly]:
        # (a + P)^0, (a + P)^1, ...; extended on demand by y_power
        return [ONE, A + self.p]

    def y_power(self, j: int) -> Poly:
        """(a + P)^j, the value of y^j on the surface.

        Memoized on the surface, so ``tangency_system``, at every weight and
        for every candidate list, and ``substitute_y`` share one expansion
        per power.
        """
        powers = self._y_powers
        while len(powers) <= j:
            powers.append(powers[-1] * powers[1])
        return powers[j]

    @cached_property
    def _y_power_p_x_products(self) -> List[Poly]:
        # y_power(0) P_x, y_power(1) P_x, ...; extended on demand by y_power_p_x
        return []

    def y_power_p_x(self, j: int) -> Poly:
        """(a + P)^j P_x, the product each xi slot x^i y^j contributes.

        Memoized on the surface like ``y_power``, so ``tangency_system``
        expands each product once per surface, not once per weight or per
        candidate list.
        """
        products = self._y_power_p_x_products
        while len(products) <= j:
            products.append(self.y_power(len(products)) * self.p_x)
        return products[j]

    def substitute_y(self, p: Poly) -> Poly:
        """Replace y by a + P(x, b), expanded exactly from ``y_power``.

        Each term's product with its power is summed into one map, in one
        pass; a sum that cancels leaves the map, so the terms come out in
        the order of adding the products one by one.
        """
        terms: Dict[Exponents, Rational] = {}
        for (ex, ey, ea, eb), c in p.items():
            for (x, _, a, b), d in self.y_power(ey).items():
                key = (ex + x, 0, ea + a, eb + b)
                total = terms.get(key, 0) + c * d
                if total:
                    terms[key] = total
                else:
                    del terms[key]
        return Poly(terms)

    def point_from_xab(self, x, a, b) -> Tuple[Fraction, ...]:
        """Lift graph coordinates (x, a, b) to the surface point (x, y, a, b);
        the one-point case of ``lift``."""
        return self.lift([(as_fraction(x), as_fraction(a), as_fraction(b))])[0]

    def lift(
        self, draws: Sequence[Tuple[Fraction, Fraction, Fraction]]
    ) -> List[Tuple[Fraction, ...]]:
        """Lift each graph point (x, a, b) of ``draws``, given as Fractions, to
        the surface point (x, y, a, b), y = a + P(x, b), in one pass.

        P is read once as int terms c over the lcm L of its denominators.
        Each distinct x = p/q, and each distinct b likewise, gets one int
        table of p^e q^(D - e) at the exponents e of x in P, D the largest,
        so P(x, b) is the int sum of c times one entry of each table over
        L q^D_x s^D_b, b = r/s, and y is one ``Fraction`` in lowest terms.
        """
        den, (terms,) = over_common_denominator([self.p])
        x_exps = {ex for (ex, _, _, _), _ in terms}
        b_exps = {eb for (_, _, _, eb), _ in terms}
        x_tables: Dict[Tuple[int, int], Tuple[int, Dict[int, int]]] = {}
        b_tables: Dict[Tuple[int, int], Tuple[int, Dict[int, int]]] = {}
        points = []
        for x, a, b in draws:
            xd, xt = _power_table(x_tables, x, x_exps)
            bd, bt = _power_table(b_tables, b, b_exps)
            total = 0
            for (ex, _, _, eb), c in terms:
                total += c * xt[ex] * bt[eb]
            p_den = den * xd * bd
            y = Fraction(a.numerator * p_den + total * a.denominator, a.denominator * p_den)
            points.append((x, y, a, b))
        return points


def _power_table(tables, v: Fraction, exponents) -> Tuple[int, Dict[int, int]]:
    # v = p/q's (q^D, {e: p^e q^(D - e)} at the exponents e), D the largest,
    # built once per value
    key = (v.numerator, v.denominator)
    table = tables.get(key)
    if table is None:
        p, q = key
        top = max(exponents)
        table = tables[key] = (q**top, {e: p**e * q ** (top - e) for e in exponents})
    return table


class ParaVectorField(Record):
    """alpha(a,b) d_a + beta(a,b) d_b + xi(x,y) d_x + eta(x,y) d_y.

    A component that mixes in the other half's variables raises
    ``MixedComponentError``; each half's two components are read in one
    pass (``poly.mentions``).
    """

    __match_args__ = ("alpha", "beta", "xi", "eta")

    def __init__(self, alpha: Poly, beta: Poly, xi: Poly, eta: Poly):
        # one pass over each half's terms; the component is named only on failure
        if mentions("xy", alpha, beta) or mentions("ab", xi, eta):
            for name, comp, allowed in (
                ("alpha", alpha, ("a", "b")),
                ("beta", beta, ("a", "b")),
                ("xi", xi, ("x", "y")),
                ("eta", eta, ("x", "y")),
            ):
                if not comp.uses_only(allowed):
                    raise MixedComponentError(
                        f"{name} component must use only {allowed}, got {comp}"
                    )
        super().__init__(alpha, beta, xi, eta)

    @staticmethod
    def zero() -> "ParaVectorField":
        z = Poly.zero()
        return ParaVectorField(z, z, z, z)

    @property
    def is_zero(self) -> bool:
        return (
            self.alpha.is_zero
            and self.beta.is_zero
            and self.xi.is_zero
            and self.eta.is_zero
        )

    @property
    def ambient(self) -> AmbientField:
        return (self.xi, self.eta, self.alpha, self.beta)

    def apply(self, f: Poly) -> Poly:
        """Derivation action alpha f_a + beta f_b + xi f_x + eta f_y."""
        return ambient_apply(self.ambient, f)

    def bracket(self, other: "ParaVectorField") -> "ParaVectorField":
        """[V, W], componentwise V(W) - W(V), taken on the two halves.

        xi and eta depend on x and y alone, and alpha and beta on a and b
        alone, so the (xi, eta) half is bracketed as a field in x and y and
        the (alpha, beta) half as one in a and b: no component is
        differentiated by the other half's variables, where its derivative
        is zero.  The bracket is para-holomorphic by this closure.
        """
        xi, eta = ambient_bracket((self.xi, self.eta), (other.xi, other.eta), "xy")
        alpha, beta = ambient_bracket((self.alpha, self.beta), (other.alpha, other.beta), "ab")
        return ParaVectorField(alpha, beta, xi, eta)

    def rk4_integrator(self) -> Callable[..., Tuple[float, float, float, float]]:
        """The field's compiled RK4 loop, ``integrate(x, y, a, b, h, half, sixth, steps)``.

        It runs ``steps`` classical RK4 steps of size ``h`` from the float
        point (x, y, a, b), with ``half = 0.5 * h`` and ``sixth = h / 6.0``,
        and returns the endpoint; see ``flows.rk4_oracle`` for the stage and
        step order.  The field is compiled once, on first use, to one
        straight-line Python function, which every later call returns again.
        Each of the four stages evaluates the field's components inline, and
        their float operations are part of the contract, since the RK4
        endpoints depend on them bit for bit: each component is
        ``0.0 + t1 + t2 + ...`` in ``items()`` order, and each term is
        ``((c * x ** ex) * y ** ey) ...`` with ``c = float(coefficient)``, the
        factors of exponent 0 left out, a factor of exponent 1 written as the
        bare variable and a ``c`` of 1.0 before a factor left out, all of
        which are exact (``v ** 1 == v`` and ``1.0 * v == v`` for every
        float).  Every other power stays ``v ** e``, which raises
        ``OverflowError`` where ``v * v`` would give inf.  A coefficient too
        large for a float raises ``OverflowError``.  A constant component's
        stage values and step increment are computed once, before the loop,
        by the same operations.  No user text reaches ``exec``: the source is
        built from ``repr`` of floats, fixed variable names and integer
        exponents alone, and its namespace holds ``range`` and nothing else.
        """
        return self._compiled

    @cached_property
    def _compiled(self) -> Callable[..., Tuple[float, float, float, float]]:
        sums = []  # each component's source, reading x{s}, y{s}, a{s} and b{s}
        for comp in (self.xi, self.eta, self.alpha, self.beta):
            terms = ["0.0"]
            for exp, c in comp.items():
                factors = [f"{v}{{s}}" + (f" ** {e:d}" if e > 1 else "") for v, e in zip("xyab", exp) if e]
                value = float(c)
                if value != 1.0 or not factors:  # 1.0 * t == t for every float t
                    factors.insert(0, f"({value!r})")
                terms.append(" * ".join(factors))
            sums.append(" + ".join(terms))
        read = [v for v in "xyab" if any(f"{v}{{s}}" in expr for expr in sums)]
        constant = {v for v, expr in zip("xyab", sums) if "{s}" not in expr}
        lines = ["def integrate(x, y, a, b, h, half, sixth, steps):"]
        increment = "sixth * (k1{v} + 2.0 * k2{v} + 2.0 * k3{v} + k4{v})"
        # a constant component's four stage values and its step increment are
        # computed once, by the loop's operations on the same operands
        for v, expr in zip("xyab", sums):
            if v in constant:
                lines.append(f"    k1{v} = k2{v} = k3{v} = k4{v} = {expr}")
                lines.append(f"    d{v} = " + increment.format(v=v))
        lines.append("    for _ in range(steps):")
        # k1 at the point itself, k2 and k3 at half steps along k1 and k2, k4
        # at a full step along k3; a stage coordinate no term reads is not
        # formed, which changes no value, since float + and * never raise
        for stage, step in enumerate((None, "half", "half", "h"), start=1):
            if step:
                lines.extend(f"        {v}_ = {v} + {step} * k{stage - 1}{v}" for v in read)
            suffix = "_" if step else ""
            lines.extend(
                f"        k{stage}{v} = {expr.format(s=suffix)}"
                for v, expr in zip("xyab", sums) if v not in constant
            )
        lines.extend(
            f"        {v} = {v} + " + (f"d{v}" if v in constant else increment.format(v=v))
            for v in "xyab"
        )
        lines.append("    return (x, y, a, b)")
        namespace: Dict[str, object] = {"__builtins__": {}, "range": range}
        exec(compile("\n".join(lines) + "\n", "<ParaVectorField>", "exec"), namespace)
        return namespace["integrate"]  # type: ignore[return-value]

    def __add__(self, other: "ParaVectorField") -> "ParaVectorField":
        return ParaVectorField(
            self.alpha + other.alpha,
            self.beta + other.beta,
            self.xi + other.xi,
            self.eta + other.eta,
        )

    def __sub__(self, other: "ParaVectorField") -> "ParaVectorField":
        return self + (-other)

    def __neg__(self) -> "ParaVectorField":
        return ParaVectorField(-self.alpha, -self.beta, -self.xi, -self.eta)

    def __mul__(self, scalar) -> "ParaVectorField":
        c = as_fraction(scalar)
        return ParaVectorField(
            self.alpha * c, self.beta * c, self.xi * c, self.eta * c
        )

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = []
        for comp, symbol in (
            (self.alpha, "d_a"),
            (self.beta, "d_b"),
            (self.xi, "d_x"),
            (self.eta, "d_y"),
        ):
            if not comp.is_zero:
                parts.append(f"({comp}) {symbol}")
        return " + ".join(parts) if parts else "0"


def weight_of(v: ParaVectorField, g: Grading) -> Optional[int]:
    """The single field weight m, or None if components disagree (mixed).

    A field of weight m has alpha, eta weighted-homogeneous of degree m + k
    and beta, xi of degree m + 1; empty components impose no constraint.
    The zero field has no defined weight and also yields None.
    """
    candidates = set()
    for comp, shift in ((v.alpha, g.k), (v.eta, g.k), (v.beta, 1), (v.xi, 1)):
        if comp.is_zero:
            continue
        w = g.weight_of_poly(comp)
        if w is None:
            return None
        candidates.add(w - shift)
    if len(candidates) == 1:
        return candidates.pop()
    return None


def tangency_residual(v: ParaVectorField, s: ModelSurface) -> Poly:
    """V(y - a - P) with y then replaced by a + P; zero iff V is tangent.

    The result is an exact polynomial in (x, a, b).  Expanded it reads
    eta(x, a+P) - alpha - beta P_b - xi(x, a+P) P_x.
    """
    return s.substitute_y(v.apply(s.defining_poly))


# -- ambient fields: the one derivation, for para fields and the direction pair

AmbientField = Tuple[Poly, Poly, Poly, Poly]  # coefficients of d_x, d_y, d_a, d_b


def ambient_apply(v: Sequence[Poly], f: Poly, variables: Sequence[str] = VARS) -> Poly:
    """sum_i v_i df/dx_i, x_i running over ``variables`` (all four by default).

    One pass of ``_derive`` adds each product of a term of v_i with a term
    of df/dx_i straight into one map of ints, at one common denominator of
    v and one of f: no derivative, product or sum is built as a ``Poly``.
    """
    slots = [VARS.index(var) for var in variables]
    den_v, v_terms = over_common_denominator(v)
    den_f, (f_terms,) = over_common_denominator([f])
    out: Dict[Exponents, int] = {}
    _derive(out, v_terms, f_terms, slots, 1)
    return from_scaled(out, den_v * den_f)


def ambient_bracket(
    v: Sequence[Poly], w: Sequence[Poly], variables: Sequence[str] = VARS
) -> Tuple[Poly, ...]:
    """[v, w] = v(w) - w(v) for fields with one coefficient per variable of ``variables``.

    Every coefficient of v is put over one common denominator, and every one
    of w over another, so each component's v(w_i) and -w(v_i) share their
    product as denominator and ``_derive`` adds both into one map of ints.
    """
    slots = [VARS.index(var) for var in variables]
    den_v, v_terms = over_common_denominator(v)
    den_w, w_terms = over_common_denominator(w)
    components = []
    for vi, wi in zip(v_terms, w_terms):
        out: Dict[Exponents, int] = {}
        _derive(out, v_terms, wi, slots, 1)
        _derive(out, w_terms, vi, slots, -1)
        components.append(from_scaled(out, den_v * den_w))
    return tuple(components)


def _derive(out: Dict[Exponents, int], v_terms, f_terms, slots: Sequence[int], sign: int) -> None:
    # out += sign * sum_j v_j df/dx_(slots[j]), for v_j and f given as int
    # terms; a zero v_j or a zero derivative adds nothing
    for coeff, i in zip(v_terms, slots):
        if not coeff:
            continue
        for exp, c in f_terms:
            e = exp[i]
            if not e:
                continue
            fx, fy, fa, fb = exp[:i] + (e - 1,) + exp[i + 1 :]
            c *= sign * e
            for (x, y, a, b), d in coeff:
                key = (fx + x, fy + y, fa + a, fb + b)
                out[key] = out.get(key, 0) + c * d


class DirectionPair(NamedTuple):
    """The induced direction fields X = d_x + P_x d_y and Y = d_b - P_b d_a."""

    x_field: AmbientField
    y_field: AmbientField

    def commutator(self) -> AmbientField:
        return ambient_bracket(self.x_field, self.y_field)


def direction_pair(s: ModelSurface) -> DirectionPair:
    """Build the pair and verify [X, Y] = -P_xb (d_a + d_y) exactly."""
    zero = Poly.zero()
    one = Poly.constant(1)
    x_field: AmbientField = (one, s.p_x, zero, zero)
    y_field: AmbientField = (zero, zero, -s.p_b, one)
    pair = DirectionPair(x_field, y_field)
    expected: AmbientField = (zero, -s.p_xb, -s.p_xb, zero)
    if pair.commutator() != expected:
        raise InvalidSurfaceError(
            "direction pair commutator does not match -P_xb (d_a + d_y)"
        )
    return pair
