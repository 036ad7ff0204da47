"""Finite type, the weight-0 torus, case detection, normalization, singular locus.

The defining function of a hypersurface y = a + phi(a, b, x) is brought to
the model shape by eliminating pure x and pure b terms; the lowest a-free
mixed part then determines the type k and the coefficient sequence.  Model
surfaces split into monomial, binomial and generic coefficient layouts.  The
one weight-0 map, ``TorusMap`` (x, y, a, b) -> (lam x, mu y, mu a, rho b),
acts on the coefficient sequence: the binomial layout is the torus orbit of
the binomial coefficients C(k, i), and a binomial surface normalizes exactly
onto them by the torus element that sends its sequence there.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Dict, NamedTuple, Optional, Tuple

from . import sturm
from .linalg import normalize_primitive
from .poly import VARS, A, B, Poly, Record, X, Y, decimal_digits
from .surface import InvalidSurfaceError, ModelSurface

FINITE = "FINITE"
INFINITE = "INFINITE"

MONOMIAL = "MONOMIAL"
BINOMIAL = "BINOMIAL"
GENERIC = "GENERIC"

POINT = "POINT"
LINE = "LINE"
PENCIL = "PENCIL"

# Terms allowed in p before a pure-b elimination step.  Each step can grow p
# fast: for x^5 b^5 + a^5 b + b^2 + a^2, p has 61 terms at step 2 (0.2 s) and
# 680 at step 3, whose substitution alone takes 12.5 s.
MAX_ELIMINATION_TERMS = 200
# Terms one step may multiply out before like terms merge (``_step_terms``).
# The second step of x^99 b^99 + a^99 b + b^2 + a^2 starts from 104 terms,
# multiplies out 171,711 and took 8 s; a step of 26,537 took 0.8 s.  On 300
# seeded inputs a^2 + b^2 (or b^3) plus up to 4 terms of exponent <= 9, no
# step of an input decided within MAX_ELIMINATION_TERMS exceeded 6,620.
MAX_STEP_TERMS = 20_000
# Digits the terms of one step may hold in all (``_step_digits``); a step's time
# follows them.  a^200 + N b + x b^2 counts 12 million with a 300-digit N and took
# 2.0 s, 40 million and 16 s with 1,000 digits; at 5 million, the largest first
# steps of a^e + N (b + ... + b^t) + x b^(t+1), e <= 200, t <= 5, took 0.1-0.6 s.
MAX_STEP_DIGITS = 5_000_000


class NormalFormError(ValueError):
    """Raised for inputs outside an operation's stated domain."""


class DefiningFunction(Record):
    """phi with y = a + phi(a, b, x); phi(0) = 0 and d(phi)/da vanishes at 0."""

    __slots__ = __match_args__ = ("phi",)

    def __init__(self, phi: Poly):
        if not phi.uses_only(("x", "a", "b")):
            raise NormalFormError("phi must not involve y")
        if phi.coefficient((0, 0, 0, 0)) != 0:
            raise NormalFormError("phi must vanish at the origin")
        if phi.coefficient((0, 0, 1, 0)) != 0:
            raise NormalFormError("d(phi)/da must vanish at the origin")
        super().__init__(phi)


class TypeResult(NamedTuple):
    kind: str
    k: Optional[int] = None
    gamma: Optional[Tuple[Fraction, ...]] = None
    normalized: Optional[Poly] = None

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE


def _select(p: Poly, keep) -> Poly:
    return Poly({exp: c for exp, c in p.items() if keep(exp)})


def _pure_x_part(p: Poly) -> Poly:
    return _select(p, lambda e: e[0] > 0 and e[2] == 0 and e[3] == 0)


def _pure_b_part(p: Poly) -> Poly:
    return _select(p, lambda e: e[3] > 0 and e[0] == 0 and e[2] == 0)


def _mixed_a_free(p: Poly) -> Poly:
    # x-containing monomials without a (pure x never reappears, so b >= 1)
    return _select(p, lambda e: e[2] == 0 and e[0] > 0)


def _min_total_degree(p: Poly) -> int:
    return min(sum(exp) for exp, _ in p.items())


def _b_order(p: Poly) -> int:
    return min(exp[3] for exp, _ in p.items())


def _step_terms(p: Poly, g: Poly) -> int:
    """Terms that substituting a -> a - g into p multiplies out, or more.

    The terms of g^j have the distinct sums of j b-exponents of g, so
    (a - g)^e has sum_(j <= e) of their counts; each term a^e of p takes
    those of (a - g)^e.  The count stops as soon as one power alone is over
    ``MAX_STEP_TERMS``, so no set of sums it builds is larger than that.
    """
    b_exps = {exp[3] for exp, _ in g.items()}
    sums, sizes = {0}, [1]  # sizes[e]: terms of (a - g)^e
    for _ in range(p.max_exponent("a")):
        sums = {s + t for s in sums for t in b_exps}
        sizes.append(sizes[-1] + len(sums))
        if sizes[-1] > MAX_STEP_TERMS:
            return sizes[-1]
    return sum(sizes[exp[2]] for exp, _ in p.items())


def _step_digits(p: Poly, g: Poly, terms: int) -> int:
    """Digits of the ``terms`` terms that substituting a -> a - g into p multiplies
    out, numerator and denominator each, or more.  With L the lcm of g's
    denominators and S the sum of |c| L over its coefficients c, (a - g)^e has
    numerators and denominators at most (L + S)^e, e at most p's a-degree, and
    each term is one of them times a coefficient of p.
    """
    den = lcm(*(c.denominator for _, c in g.items()))
    total = den + sum(abs(c.numerator) * (den // c.denominator) for _, c in g.items())
    largest = max(decimal_digits(v) for _, c in p.items() for v in (c.numerator, c.denominator))
    return terms * (p.max_exponent("a") * decimal_digits(total) + largest)


def finite_type(phi: DefiningFunction) -> TypeResult:
    """Type detection by iterated elimination of pure x and pure b terms.

    The pure x part is removed once by shifting y.  Each loop step removes
    the current pure b part g by shifting a, which only creates terms whose
    b-order exceeds that of g; the loop stops as soon as the surviving
    mixed a-free part of lowest degree can no longer be touched.  If no
    x-containing monomial exists, or everything left is divisible by a, the
    contact order is unbounded.  A step that would start from more than
    ``MAX_ELIMINATION_TERMS`` terms, or multiply out more than
    ``MAX_STEP_TERMS`` terms or terms of more than ``MAX_STEP_DIGITS`` digits
    in all, raises ``NormalFormError`` before it expands.
    """
    p = phi.phi - _pure_x_part(phi.phi)
    if p.max_exponent("x") == 0:
        return TypeResult(INFINITE)
    guard = 12 * (p.total_degree() + 2)
    for _ in range(guard):
        g = _pure_b_part(p)
        if g.is_zero:
            break
        mixed = _mixed_a_free(p)
        if not mixed.is_zero and _b_order(g) >= _min_total_degree(mixed):
            break
        if len(p) > MAX_ELIMINATION_TERMS:
            raise NormalFormError(
                f"pure-b elimination reached {len(p)} terms, over the bound of "
                f"{MAX_ELIMINATION_TERMS} (MAX_ELIMINATION_TERMS); the type is undecided"
            )
        step_terms = _step_terms(p, g)
        if step_terms > MAX_STEP_TERMS:
            raise NormalFormError(
                f"a pure-b elimination step would multiply out {step_terms:,} terms or more, "
                f"over the bound of {MAX_STEP_TERMS:,} (MAX_STEP_TERMS); the type is undecided"
            )
        step_digits = _step_digits(p, g, step_terms)
        if step_digits > MAX_STEP_DIGITS:
            raise NormalFormError(
                f"a pure-b elimination step may multiply out terms of {step_digits:,} digits "
                f"in all, over the bound of {MAX_STEP_DIGITS:,} (MAX_STEP_DIGITS); the type is "
                "undecided"
            )
        p = p.substitute({"a": A - g}) - g
    else:
        raise RuntimeError("pure-term elimination did not stabilize")
    mixed = _mixed_a_free(p)
    if mixed.is_zero:
        return TypeResult(INFINITE)
    k = _min_total_degree(mixed)
    gamma = tuple(mixed.coefficient((k - i, 0, 0, i)) for i in range(1, k))
    normalized = p - _pure_b_part(p)
    return TypeResult(FINITE, k=k, gamma=gamma, normalized=normalized)


# -- the weight-0 torus, case detection, binomial normalization -----------------


class CoordinateChange(NamedTuple):
    """Target coordinates expressed as polynomials in the source ones."""

    x_map: Poly
    y_map: Poly
    a_map: Poly
    b_map: Poly


class TorusMap(Record):
    """The weight-0 map (x, y, a, b) -> (lam x, mu y, mu a, rho b).

    It carries the model surface of gamma onto that of ``act(gamma)``: the
    image's defining polynomial composed with the map is mu times gamma's,
    so gamma_i becomes mu gamma_i / (lam^(k-i) rho^i).  A map of weight 0
    may also add c x^k to y and c' b^k to a.  But P has no pure x^k or b^k
    term, so a weight-0 map of one model surface onto another has
    c = c' = 0 and the same factor mu on y and a: these three parameters
    are the whole weight-0 part.
    """

    __slots__ = __match_args__ = ("lam", "rho", "mu")

    def act(self, gamma: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
        """The coefficients of the image surface, gamma_i -> mu gamma_i / (lam^(k-i) rho^i)."""
        k = len(gamma) + 1
        lam, rho, mu = self.lam, self.rho, self.mu
        return tuple(mu * g / (lam ** (k - i) * rho**i) for i, g in enumerate(gamma, start=1))

    def change(self) -> CoordinateChange:
        return CoordinateChange(self.lam * X, self.mu * Y, self.mu * A, self.rho * B)

    def apply(self, point):
        x, y, a, b = point
        return (self.lam * x, self.mu * y, self.mu * a, self.rho * b)

    def transform_poly(self, p: Poly) -> Poly:
        """p composed with the map: p(lam x, mu y, mu a, rho b)."""
        return p.substitute(dict(zip(VARS, self.change())))


class CaseDetection(NamedTuple):
    kind: str
    iota: Optional[int] = None
    delta: Optional[Fraction] = None
    nu: Optional[Fraction] = None


def _binomial_coefficients(k: int) -> Tuple[int, ...]:
    return tuple(comb(k, i) for i in range(1, k))


def detect_case(s: ModelSurface) -> CaseDetection:
    """Monomial, binomial (gamma_i = C(k,i) delta nu^i) or generic layout.

    Binomial means that the torus element (lam, rho, mu) = (1, nu, 1/delta),
    with nu and delta read off gamma_1 and gamma_2, sends gamma to C(k, i).
    """
    nonzero = [i for i, g in enumerate(s.gamma, start=1) if g != 0]
    if len(nonzero) == 1:
        return CaseDetection(MONOMIAL, iota=nonzero[0])
    if len(nonzero) < s.k - 1:
        # a binomial layout has every gamma_i nonzero
        return CaseDetection(GENERIC)
    k = s.k
    g1 = s.gamma[0] / comb(k, 1)
    g2 = s.gamma[1] / comb(k, 2)
    nu = g2 / g1
    delta = g1 / nu
    if TorusMap(1, nu, 1 / delta).act(s.gamma) != _binomial_coefficients(k):
        return CaseDetection(GENERIC)
    return CaseDetection(BINOMIAL, delta=delta, nu=nu)


class BinomialNormalization(NamedTuple):
    change: CoordinateChange        # shears a and y by the pure k-th powers
    model_change: CoordinateChange  # the torus element onto the model shape
    normalized: ModelSurface        # gamma_i = C(k, i)


def normalize_binomial(s: ModelSurface, detection: CaseDetection) -> BinomialNormalization:
    """Exact normalization of a binomial surface onto gamma_i = C(k, i).

    Two maps are produced.  ``model_change`` is the torus element
    (lam, rho, mu) = (1, nu, 1/delta), that is (x, y/delta, a/delta, nu b),
    which lands exactly on the model surface with gamma_i = C(k, i).
    ``change`` adds the pure k-th powers, y* + x*^k and a* - b*^k, and so
    sends the surface onto the graph of the full power (x* + b*)^k, pure
    terms included.  Both identities are verified symbolically.
    """
    if detection.kind != BINOMIAL:
        raise NormalFormError("normalization requires a binomial detection")
    k = s.k
    torus = TorusMap(1, detection.nu, 1 / detection.delta)
    model_change = torus.change()
    x_map, y_map, a_map, b_map = model_change
    change = CoordinateChange(x_map, y_map + X**k, a_map - b_map**k, b_map)
    # image of the shear map satisfies y* = a* + (x* + b*)^k, pure terms included
    full_power = change.y_map - change.a_map - (change.x_map + change.b_map) ** k
    if full_power != torus.mu * s.defining_poly:
        raise NormalFormError("binomial detection is inconsistent with the surface")
    normalized = ModelSurface(k, _binomial_coefficients(k))
    if torus.transform_poly(normalized.defining_poly) != torus.mu * s.defining_poly:
        raise NormalFormError("model-form identity failed")
    return BinomialNormalization(change=change, model_change=model_change, normalized=normalized)


# -- singular locus ----------------------------------------------------------


class SingularLocus(NamedTuple):
    """Real zero set of P_xb in the (x, b) plane."""

    kind: str
    line: Optional[Poly] = None
    line_count: Optional[int] = None


def singular_locus(s: ModelSurface) -> SingularLocus:
    """POINT, LINE or PENCIL classification of the zero set of P_xb.

    LINE means a single real line carrying the full multiplicity k - 2;
    PENCIL reports the number of distinct real lines otherwise.
    """
    pxb = s.p_xb
    if pxb.is_zero:
        raise InvalidSurfaceError("P_xb vanishes identically")
    ex = min(exp[0] for exp, _ in pxb.items())
    eb = min(exp[3] for exp, _ in pxb.items())
    total = s.k - 2
    # dehomogenize the cofactor R (divisible by neither x nor b) at b = 1
    coeffs: Dict[int, Fraction] = {}
    for exp, c in pxb.items():
        coeffs[exp[0] - ex] = c
    r = [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]
    interior_roots = sturm.count_real_roots(r)
    lines = (1 if ex > 0 else 0) + (1 if eb > 0 else 0) + interior_roots
    if lines == 0:
        return SingularLocus(POINT)
    if lines == 1:
        if ex == total:
            return SingularLocus(LINE, line=X)
        if eb == total:
            return SingularLocus(LINE, line=B)
        if ex == 0 and eb == 0:
            # R = lead (t - root)^total would have t^(total-1) coefficient
            # -total root lead; the identity below decides
            lead = r[total]
            line = X + Fraction(r[total - 1], total * lead) * B
            if pxb == lead * line**total:
                return SingularLocus(LINE, line=normal_line(line))
        return SingularLocus(PENCIL, line_count=1)
    return SingularLocus(PENCIL, line_count=lines)


def normal_line(line: Poly) -> Poly:
    """Clear denominators and fix the sign of a linear form in x, b."""
    cx = line.coefficient((1, 0, 0, 0))
    cb = line.coefficient((0, 0, 0, 1))
    nx, nb = normalize_primitive((cx, cb))
    return nx * X + nb * B

