"""Series solution of the embedding Cauchy problem.

Given a canonical frame X = d_x, Y = d_b + psi(x, a, b) d_a, the graph
y = phi~(a, x, b) embeds the structure when phi~ solves the transport
problem d(phi~)/db + psi d(phi~)/da = 0 with phi~ = a at b = 0.  The
solution is computed as a truncated power series in b with polynomial
coefficients in (a, x); the argument order (a, x, b) is fixed throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .poly import A, B, Poly


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
