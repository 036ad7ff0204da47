"""Series solution of the embedding Cauchy problem and function residuals.

Given a canonical frame X = d_x, Y = d_b + psi(x, a, b) d_a, the graph
y = phi~(a, x, b) embeds the structure when phi~ solves the transport
problem d(phi~)/db + psi d(phi~)/da = 0 with phi~ = a at b = 0.  The
solution is computed as a truncated power series in b with polynomial
coefficients in (a, x); the argument order (a, x, b) is fixed throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .poly import A, B, Poly, Record
from .surface import MixedComponentError, ModelSurface


class EmbeddingError(ValueError):
    """Raised for inputs outside the series solver's domain."""


def truncate_b(p: Poly, max_b_degree: int) -> Poly:
    """Drop every term of b-degree above the bound."""
    return Poly({exp: c for exp, c in p.items() if exp[3] <= max_b_degree})


class EmbeddingSeries(NamedTuple):
    """phi~ = sum_n c_n(a, x) b^n with c_0 = a, solved through order N."""

    psi: Poly
    order: int
    coeffs: Tuple[Poly, ...]

    def phi_tilde(self) -> Poly:
        total = Poly.zero()
        for n, c in enumerate(self.coeffs):
            total = total + c * B**n
        return total

    def transport_residual(self) -> Poly:
        """d(phi~)/db + psi d(phi~)/da, truncated below order b^N.

        The recursion determines c_1 .. c_N, which kills every residual
        coefficient of b-degree below N.
        """
        phi = self.phi_tilde()
        residual = phi.diff("b") + self.psi * phi.diff("a")
        return truncate_b(residual, self.order - 1)


def solve_embedding(psi: Poly, order: int = 8) -> EmbeddingSeries:
    """Recursive coefficient extraction for the transport Cauchy problem.

    Writing psi = sum_m psi_m(x, a) b^m, the recursion reads
    (n+1) c_{n+1} = - sum_{m+j=n} psi_m dc_j/da.
    """
    if order < 1:
        raise EmbeddingError("series order must be at least 1")
    if not psi.uses_only(("x", "a", "b")):
        raise EmbeddingError("psi must be a polynomial in (x, a, b)")
    psi_layers: Dict[int, Poly] = {}
    for exp, c in psi.items():
        layer = psi_layers.setdefault(exp[3], Poly.zero())
        psi_layers[exp[3]] = layer + Poly.monomial((exp[0], exp[1], exp[2], 0), c)
    coeffs = [A]
    for n in range(order):
        total = Poly.zero()
        for m, layer in psi_layers.items():
            j = n - m
            if 0 <= j < len(coeffs):
                total = total + layer * coeffs[j].diff("a")
        coeffs.append(total * Fraction(-1, n + 1))
    series = EmbeddingSeries(psi=psi, order=order, coeffs=tuple(coeffs))
    if not series.transport_residual().is_zero:
        raise AssertionError("transport recursion produced a nonzero residual")
    return series


class InducedDirection(NamedTuple):
    """The direction field d_b - (phi_b / (1 + phi_a)) d_a on the graph."""

    numerator: Poly    # -phi_b
    denominator: Poly  # 1 + phi_a
    psi_residual: Poly


def induced_Y(series: EmbeddingSeries) -> InducedDirection:
    """Rational direction field induced on the embedded graph.

    Certifies that the field annihilates phi~ after clearing denominators
    and that it matches d_b + psi d_a through order b^(N-2).
    """
    phi = series.phi_tilde() - A
    num = -phi.diff("b")
    den = Poly.constant(1) + phi.diff("a")
    if den.coefficient((0, 0, 0, 0)) != 1:
        raise EmbeddingError("denominator must have constant term 1")
    phi_tilde = series.phi_tilde()
    cleared = den * phi_tilde.diff("b") + num * phi_tilde.diff("a")
    if not cleared.is_zero:
        raise AssertionError("induced direction does not annihilate the graph")
    # -phi_b = psi (1 + phi_a) holds through the solved order
    psi_residual = truncate_b(num - series.psi * den, series.order - 1)
    return InducedDirection(numerator=num, denominator=den, psi_residual=psi_residual)


class ParaCRFunctionPair(Record):
    """u(x, y) paired with v(a, b); the defining residuals vanish on S."""

    __slots__ = __match_args__ = ("u", "v")

    def __init__(self, u: Poly, v: Poly):
        if not u.uses_only(("x", "y")):
            raise MixedComponentError(f"u must be a polynomial in (x, y), got {u}")
        if not v.uses_only(("a", "b")):
            raise MixedComponentError(f"v must be a polynomial in (a, b), got {v}")
        super().__init__(u, v)


def paracr_residuals(f: ParaCRFunctionPair, s: ModelSurface) -> Tuple[Poly, Poly]:
    """(X v, Y u) on the surface; both vanish exactly for well-typed pairs.

    X = d_x + P_x d_y acts on v, and Y = d_b - P_b d_a acts on u with y
    replaced by a + P.
    """
    xv = f.v.diff("x") + s.p_x * f.v.diff("y")
    u_on_s = s.substitute_y(f.u)
    yu = u_on_s.diff("b") - s.p_b * u_on_s.diff("a")
    return (xv, yu)
