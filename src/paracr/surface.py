"""Model hypersurfaces y = a + P(x, b) and para-holomorphic vector fields.

A model surface of degree k >= 3 is defined by P(x, b) = sum_i g_i b^i x^(k-i)
for i = 1 .. k-1, so P is weighted-homogeneous of degree k and carries no pure
x^k or b^k term.  A para-holomorphic vector field splits into an (a, b) part
and an (x, y) part; tangency to the surface is an exact polynomial condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .poly import (
    A,
    ZERO_EXP,
    Exponents,
    Grading,
    Poly,
    UnsupportedDegreeError,
    Y,
    as_fraction,
)

# an exact coefficient: a plain int wherever it is integral
Coefficient = Union[int, Fraction]
Terms = Dict[Exponents, Coefficient]


def exact_terms(p: Poly) -> Terms:
    """The terms of ``p`` with each integral coefficient as a plain ``int``."""
    return {exp: c.numerator if c.denominator == 1 else c for exp, c in p.items()}


def multiply_terms(p: Terms, q: Terms) -> Terms:
    """Product of two term maps, zero coefficients dropped."""
    out: Terms = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
            out[exp] = out.get(exp, 0) + c1 * c2
    return {exp: c for exp, c in out.items() if c}


class InvalidSurfaceError(ValueError):
    """Raised for gamma sequences that do not define a model surface."""


class MixedComponentError(ValueError):
    """Raised when a vector field component mixes the (x,y) and (a,b) sides."""


@dataclass(frozen=True)
class ModelSurface:
    """Degree k plus the coefficient sequence (g_1, ..., g_{k-1}) of P."""

    k: int
    gamma: Tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 3:
            raise UnsupportedDegreeError(
                f"model surfaces require integer degree k >= 3, got {self.k!r}"
            )
        gamma = tuple(as_fraction(g) for g in self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if len(gamma) != self.k - 1:
            raise InvalidSurfaceError(
                f"expected {self.k - 1} coefficients for k={self.k}, got {len(gamma)}"
            )
        if all(g == 0 for g in gamma):
            raise InvalidSurfaceError("at least one gamma coefficient must be nonzero")

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
    def _y_powers(self) -> List[Terms]:
        # (a + P)^0, (a + P)^1, ...; extended on demand by y_power
        return [{ZERO_EXP: 1}, exact_terms(A + self.p)]

    def y_power(self, j: int) -> Terms:
        """(a + P)^j, the value of y^j on the surface, as exact terms.

        Memoized on the surface, so every weight shares one expansion per
        power.  The returned map must not be mutated.
        """
        powers = self._y_powers
        while len(powers) <= j:
            powers.append(multiply_terms(powers[-1], powers[1]))
        return powers[j]

    def grading(self) -> Grading:
        return Grading(self.k)

    def substitute_y(self, p: Poly) -> Poly:
        """Replace y by a + P(x, b), expanded exactly."""
        return p.substitute("y", A + self.p)

    def contains(self, point) -> bool:
        return self.defining_poly.eval_exact(point) == 0

    def point_from_xab(self, x, a, b) -> Tuple[Fraction, ...]:
        """Lift graph coordinates (x, a, b) to the surface point (x, y, a, b)."""
        x, a, b = as_fraction(x), as_fraction(a), as_fraction(b)
        y = a + self.p.eval_exact((x, 0, 0, b))
        return (x, y, a, b)


@dataclass(frozen=True)
class ParaVectorField:
    """alpha(a,b) d_a + beta(a,b) d_b + xi(x,y) d_x + eta(x,y) d_y."""

    alpha: Poly
    beta: Poly
    xi: Poly
    eta: Poly

    def __post_init__(self):
        for name, comp, allowed in (
            ("alpha", self.alpha, ("a", "b")),
            ("beta", self.beta, ("a", "b")),
            ("xi", self.xi, ("x", "y")),
            ("eta", self.eta, ("x", "y")),
        ):
            if not comp.uses_only(allowed):
                raise MixedComponentError(
                    f"{name} component must use only {allowed}, got {comp}"
                )

    @staticmethod
    def zero() -> "ParaVectorField":
        z = Poly.zero()
        return ParaVectorField(z, z, z, z)

    def components(self) -> Tuple[Poly, Poly, Poly, Poly]:
        return (self.alpha, self.beta, self.xi, self.eta)

    @property
    def is_zero(self) -> bool:
        return (
            self.alpha.is_zero
            and self.beta.is_zero
            and self.xi.is_zero
            and self.eta.is_zero
        )

    def apply(self, f: Poly) -> Poly:
        """Derivation action alpha f_a + beta f_b + xi f_x + eta f_y."""
        return (
            self.alpha * f.diff("a")
            + self.beta * f.diff("b")
            + self.xi * f.diff("x")
            + self.eta * f.diff("y")
        )

    def bracket(self, other: "ParaVectorField") -> "ParaVectorField":
        """[V, W], componentwise V(W) - W(V); para-holomorphic by closure."""
        return ParaVectorField(
            self.apply(other.alpha) - other.apply(self.alpha),
            self.apply(other.beta) - other.apply(self.beta),
            self.apply(other.xi) - other.apply(self.xi),
            self.apply(other.eta) - other.apply(self.eta),
        )

    def float_velocity(self) -> Callable[[Sequence[float]], Tuple[float, float, float, float]]:
        """The field compiled once to float (x, y, a, b) -> (dx, dy, da, db).

        Terms c * x**ex * y**ey * a**ea * b**eb are summed in ``items()``
        order; factors of exponent 0 are left out, which is exact.
        """
        compiled = [
            [(float(c), [(i, e) for i, e in enumerate(exp) if e]) for exp, c in comp.items()]
            for comp in (self.xi, self.eta, self.alpha, self.beta)
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

    def velocity_float(self, point) -> Tuple[float, float, float, float]:
        """(dx, dy, da, db) at a numeric point, ordered like (x, y, a, b)."""
        return self.float_velocity()(tuple(float(v) for v in point))

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


# -- ambient (non-para) fields, used for the induced direction pair ---------

AmbientField = Tuple[Poly, Poly, Poly, Poly]  # coefficients of d_x, d_y, d_a, d_b

_AMBIENT_VARS = ("x", "y", "a", "b")


def ambient_apply(v: AmbientField, f: Poly) -> Poly:
    out = Poly.zero()
    for coeff, var in zip(v, _AMBIENT_VARS):
        out = out + coeff * f.diff(var)
    return out


def ambient_bracket(v: AmbientField, w: AmbientField) -> AmbientField:
    return tuple(
        ambient_apply(v, w[i]) - ambient_apply(w, v[i]) for i in range(4)
    )  # type: ignore[return-value]


@dataclass(frozen=True)
class DirectionPair:
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
