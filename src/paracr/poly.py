"""Exact polynomial arithmetic in the four ambient coordinates x, y, a, b.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``).
A polynomial stores a map from exponent quadruples ``(e_x, e_y, e_a, e_b)``
to nonzero coefficients.  The variable set is closed, so exponents live in
fixed 4-tuples; this keeps hashing and term ordering trivial.  All
operations are exact; floating point enters only through ``eval_float``.

Text grammar, shared by the CLI and the test fixtures (whitespace ignored):

    poly   := [sign] term (sign term)*
    term   := coeff? factor*          at least one of coeff, factor
    coeff  := int [ "/" int ]
    factor := var [ "^" nat ]         var in {x, y, a, b}

Printing uses the same grammar with the canonical term order: ascending
total degree, ties broken lexicographically on (e_a, e_y, e_b, e_x).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

VARS = ("x", "y", "a", "b")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}


def _var_index(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}") from None

Exponents = Tuple[int, int, int, int]

ZERO_EXP: Exponents = (0, 0, 0, 0)

# eval_exact's power table for a variable that does not occur; never mutated
_ONLY_POWER_ZERO = {0: 1}

# print order of factors inside a term: a, y, b, x
_PRINT_SLOTS = (("a", 2), ("y", 1), ("b", 3), ("x", 0))


def order_key(exp: Exponents):
    """Canonical term order key (graded, then lex on (e_a, e_y, e_b, e_x))."""
    ex, ey, ea, eb = exp
    return (ex + ey + ea + eb, ea, ey, eb, ex)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class OutputDigitsError(ValueError):
    """Raised when a number to print has an integer over the interpreter's
    digit limit for ``str(int)`` (4,300 digits by default)."""


def format_fraction(q: Fraction) -> str:
    try:
        return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
    except ValueError:  # str(int) refuses integers over the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise OutputDigitsError(
            f"a number to print has an integer of more than {limit:,} digits, "
            f"over the {limit:,}-digit output bound"
        ) from None


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the failing position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedDegreeError(ValueError):
    """Raised when a construction requires degree k >= 3."""


class Poly:
    """Immutable sparse polynomial over Q in x, y, a, b.

    Besides its terms a polynomial holds its evaluation plan, built from the
    terms alone the first time it is evaluated and kept from then on: the
    integer form of the terms that ``eval_exact`` sums and the Horner tree
    that ``eval_float`` walks.  The plan never changes a value, and equality
    and hashing ignore it.
    """

    __slots__ = ("_terms", "_plan")

    def __init__(self, terms: Optional[Mapping[Exponents, object]] = None):
        clean: Dict[Exponents, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                q = as_fraction(coeff)
                if q != 0:
                    clean[tuple(exp)] = q  # type: ignore[index]
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_plan", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        return Poly({ZERO_EXP: as_fraction(c)})

    @staticmethod
    def variable(name: str) -> "Poly":
        exp = [0, 0, 0, 0]
        exp[_var_index(name)] = 1
        return Poly({tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(exp: Exponents, coeff=1) -> "Poly":
        return Poly({tuple(exp): as_fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Iterate (exponents, coefficient) pairs.  Do not mutate."""
        return self._terms.items()

    def coefficient(self, exp: Exponents) -> Fraction:
        return self._terms.get(tuple(exp), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(exp) for exp in self._terms)

    def max_exponent(self, var: str) -> int:
        i = _var_index(var)
        if not self._terms:
            return 0
        return max(exp[i] for exp in self._terms)

    def uses_only(self, allowed: Iterable[str]) -> bool:
        allowed_idx = {_VAR_INDEX[v] for v in allowed}
        banned = [i for i in range(4) if i not in allowed_idx]
        return all(all(exp[i] == 0 for i in banned) for exp in self._terms)

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for exp, c in other._terms.items():
            s = merged.get(exp, Fraction(0)) + c
            if s:
                merged[exp] = s
            else:
                merged.pop(exp, None)
        return _raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            q = as_fraction(other)
            if q == 0:
                return Poly.zero()
            return _raw({exp: c * q for exp, c in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: Dict[Exponents, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                s = out.get(exp, Fraction(0)) + c1 * c2
                if s:
                    out[exp] = s
                else:
                    out.pop(exp, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to x, y, a or b."""
        i = _var_index(var)
        out: Dict[Exponents, Fraction] = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = list(exp)
            new[i] = e - 1
            out[tuple(new)] = c * e
        return _raw(out)

    def substitute(self, var: str, replacement: "Poly") -> "Poly":
        """Replace every occurrence of ``var`` by ``replacement``, expanded."""
        i = _var_index(var)
        powers = [Poly.constant(1)]
        result = Poly.zero()
        for exp, c in self._terms.items():
            rest = list(exp)
            e = rest[i]
            rest[i] = 0
            while len(powers) <= e:
                powers.append(powers[-1] * replacement)
            result = result + Poly.monomial(tuple(rest), c) * powers[e]
        return result

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, point) -> Fraction:
        """Exact evaluation at (x, y, a, b) given as rationals.

        Runs over integers at one common denominator.  With each coordinate
        v_i = p_i/q_i, D_i the largest exponent of v_i and L the lcm of the
        coefficient denominators, the term c v^e becomes the integer
        c L prod p_i^e_i q_i^(D_i - e_i), and the value is the sum of these
        over L prod q_i^D_i: one ``Fraction`` per call, in lowest terms.
        Powers are taken only at the exponents that occur, so a sparse
        x^100000 costs two powers, not a table of 100000.  The plan holds
        L, each c L as an integer and the occurring exponents and D_i of
        each variable, so a call only takes the powers of the point and
        sums.  A float coordinate is a ``TypeError``, used slot or not.
        """
        if not self._terms:
            return Fraction(0)
        lcm, int_terms, occurring, _ = self._plan or self._build_plan()
        denominator = lcm
        factors = []
        for i, v in enumerate(point):
            if not isinstance(v, (int, Fraction)):
                v = as_fraction(v)
            exps, top = occurring[i]
            if top == 0:  # the variable does not occur
                factors.append(_ONLY_POWER_ZERO)
                continue
            num, den = v.numerator, v.denominator
            factors.append({e: num**e * den ** (top - e) for e in exps})
            denominator *= den**top
        fx, fy, fa, fb = factors
        total = 0
        for c, ex, ey, ea, eb in int_terms:
            total += c * fx[ex] * fy[ey] * fa[ea] * fb[eb]
        return Fraction(total, denominator)

    def eval_float(self, point) -> float:
        """Floating evaluation at (x, y, a, b), by sparse Horner.

        The plan's tree buckets the terms by the exponent of x, then of y,
        a and b.  A node holds its exponents in descending order as gaps,
        and a leaf the one coefficient with those exponents, as a float.
        The walk computes ``0.0 + c`` at a leaf, ``acc * v ** gap + sub``
        down a node and ``acc * v ** last`` at its end; the report
        witnesses pin this operation order, so values are reproducible bit
        for bit.  A coefficient too large for a float raises
        ``OverflowError`` at every call.
        """
        if not self._terms:
            return 0.0
        tree = (self._plan or self._build_plan())[3]
        return _walk(tree, tuple(map(float, point)), 0)

    def _build_plan(self):
        terms = self._terms
        lcm = math.lcm(*(c.denominator for c in terms.values()))
        int_terms = tuple(
            (c.numerator * (lcm // c.denominator), *exp) for exp, c in terms.items()
        )
        occurring = []
        for i in range(4):
            exps = sorted({exp[i] for exp in terms})
            occurring.append((tuple(exps), exps[-1]))
        plan = (lcm, int_terms, tuple(occurring), _horner_tree(list(terms.items()), 0))
        object.__setattr__(self, "_plan", plan)
        return plan

    # -- text --------------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, key=order_key):
            c = self._terms[exp]
            factors = []
            for name, slot in _PRINT_SLOTS:
                e = exp[slot]
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = format_fraction(mag)
            elif mag == 1:
                body = " ".join(factors)
            else:
                body = " ".join([format_fraction(mag)] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign0, body0 = parts[0]
        text = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"

    @staticmethod
    def parse(text: str) -> "Poly":
        return _parse_poly(text)


def _raw(terms: Dict[Exponents, Fraction]) -> Poly:
    p = Poly()
    object.__setattr__(p, "_terms", terms)
    return p


def _coerce(value) -> Optional[Poly]:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return None


def _horner_tree(items, vi):
    # sparse Horner's bucket tree: one level per variable, exponents in
    # descending order as (first child, ((gap, child), ...), last exponent);
    # a leaf is one coefficient, since no two terms share all four exponents
    if vi == 4:
        ((_, c),) = items
        try:
            return float(c)
        except OverflowError:
            # kept exact: adding it to 0.0 converts it again and raises, so
            # every evaluation raises, as float(c) itself would
            return c
    buckets: Dict[int, list] = {}
    for exp, c in items:
        buckets.setdefault(exp[vi], []).append((exp, c))
    order = sorted(buckets, reverse=True)
    first = _horner_tree(buckets[order[0]], vi + 1)
    rest = tuple(
        (prev - e, _horner_tree(buckets[e], vi + 1)) for prev, e in zip(order, order[1:])
    )
    return (first, rest, order[-1])


def _walk(node, point, vi):
    if vi == 4:
        return 0.0 + node  # as a sum from 0.0: a coefficient that underflows to -0.0 gives 0.0
    first, rest, last = node
    v = point[vi]
    acc = _walk(first, point, vi + 1)
    for gap, child in rest:
        acc = acc * v**gap + _walk(child, point, vi + 1)
    return acc * v**last


# -- weighted grading ------------------------------------------------------


@dataclass(frozen=True)
class Grading:
    """Weights 1 on x and b, k on a and y, with k >= 3."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 3:
            raise UnsupportedDegreeError(f"grading requires integer k >= 3, got {self.k!r}")

    def weight(self, exp: Exponents) -> int:
        ex, ey, ea, eb = exp
        return ex + eb + self.k * (ea + ey)

    def components(self, p: Poly) -> Dict[int, Poly]:
        """Decompose by weighted degree; the parts sum back to ``p``."""
        buckets: Dict[int, Dict[Exponents, Fraction]] = {}
        for exp, c in p.items():
            buckets.setdefault(self.weight(exp), {})[exp] = c
        return {w: _raw(terms) for w, terms in sorted(buckets.items())}

    def weight_of_poly(self, p: Poly) -> Optional[int]:
        """Weighted degree if homogeneous, else None.  Zero gives None."""
        weights = {self.weight(exp) for exp, _ in p.items()}
        if len(weights) == 1:
            return weights.pop()
        return None


# -- parser ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<int>\d+)|(?P<var>[xyab])|(?P<op>[+\-*/^])|(?P<bad>\S)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise PolyParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.lastgroup, m.group(), m.start()))
    return tokens


def _int_token(value: str, pos: int) -> int:
    try:
        return int(value)
    except ValueError:  # over the interpreter's digit limit for int(str), 4300 by default
        raise PolyParseError(
            f"integer literal of {len(value)} digits is over the interpreter's digit limit", pos
        ) from None


def _parse_poly(text: str) -> Poly:
    tokens = _tokenize(text)
    n = len(tokens)
    if n == 0:
        raise PolyParseError("empty polynomial", 0)
    terms: Dict[Exponents, Fraction] = {}
    i = 0
    first = True
    while i < n:
        sign = 1
        kind, value, pos = tokens[i]
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            i += 1
        elif not first:
            raise PolyParseError(f"expected '+' or '-' before {value!r}", pos)
        if i >= n:
            raise PolyParseError("dangling sign", pos)
        coeff = Fraction(1)
        have_body = False
        kind, value, pos = tokens[i]
        if kind == "int":
            num = _int_token(value, pos)
            i += 1
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "/":
                if i + 1 >= n or tokens[i + 1][0] != "int":
                    raise PolyParseError("expected integer denominator after '/'", tokens[i][2])
                den = _int_token(*tokens[i + 1][1:])
                if den == 0:
                    raise PolyParseError("zero denominator", tokens[i + 1][2])
                coeff = Fraction(num, den)
                i += 2
            else:
                coeff = Fraction(num)
            have_body = True
        exp = [0, 0, 0, 0]
        while i < n:
            kind, value, pos = tokens[i]
            if kind == "op" and value == "*":
                i += 1
                if i >= n or tokens[i][0] != "var":
                    raise PolyParseError("expected variable after '*'", pos)
                continue
            if kind != "var":
                break
            vi = _VAR_INDEX[value]
            i += 1
            power = 1
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                if i + 1 >= n or tokens[i + 1][0] != "int":
                    raise PolyParseError("expected integer exponent after '^'", tokens[i][2])
                power = _int_token(*tokens[i + 1][1:])
                i += 2
            exp[vi] += power
            have_body = True
        if not have_body:
            raise PolyParseError(f"expected coefficient or variable, got {value!r}", pos)
        key = tuple(exp)
        s = terms.get(key, Fraction(0)) + sign * coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
        first = False
    return _raw(terms)


# module-level generators, convenient for building expressions
X = Poly.variable("x")
Y = Poly.variable("y")
A = Poly.variable("a")
B = Poly.variable("b")
ONE = Poly.constant(1)
