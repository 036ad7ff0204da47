"""Exact polynomial arithmetic in the four ambient coordinates x, y, a, b.

Coefficients are exact rationals, a plain ``int`` where the value is integral
and a ``fractions.Fraction`` only where it is not; equality, hashing, printing
and evaluation do not depend on which.  Products run on ints, at one common
denominator of each factor, so integral polynomials multiply with no gcd.
A polynomial stores a map from exponent quadruples ``(e_x, e_y, e_a, e_b)``
to nonzero coefficients.  The variable set is closed, so exponents live in
fixed 4-tuples; this keeps hashing and term ordering trivial.  All
operations are exact; floating point enters only through ``eval_floats``.

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
from fractions import Fraction
from itertools import chain
from operator import add, attrgetter, itemgetter, sub
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

VARS = ("x", "y", "a", "b")
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}


def _var_index(name: str) -> int:
    try:
        return _VAR_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable {name!r}") from None

Exponents = Tuple[int, int, int, int]
Rational = Union[int, Fraction]  # a coefficient: an int when integral, else a Fraction

ZERO_EXP: Exponents = (0, 0, 0, 0)

# print order of factors inside a term: a, y, b, x
_PRINT_SLOTS = (("a", 2), ("y", 1), ("b", 3), ("x", 0))


def order_key(exp: Exponents):
    """Canonical term order key (graded, then lex on (e_a, e_y, e_b, e_x))."""
    ex, ey, ea, eb = exp
    return (ex + ey + ea + eb, ea, ey, eb, ex)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def exact(q: Rational) -> Rational:
    """The one form of an exact rational: an ``int`` when integral, else a ``Fraction``."""
    return q.numerator if q.denominator == 1 else q


def decimal_digits(n: int) -> int:
    """Decimal digits of |n|, without ``str``, which refuses integers over 4,300 digits."""
    n = abs(n)
    d = int(n.bit_length() * math.log10(2))
    return d + (n >= 10**d)


class OutputDigitsError(ValueError):
    """Raised when a number to print has an integer over the interpreter's
    digit limit for ``str(int)`` (4,300 digits by default)."""


def format_fraction(q: Rational) -> str:
    if type(q) is not int and type(q) is not Fraction:
        raise TypeError(f"not an exact rational: {q!r}")
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

    Besides its terms a polynomial holds the Horner tree that
    ``eval_floats`` walks, built from the terms alone on its first call.
    The tree never changes a value, and equality and hashing ignore it.
    """

    __slots__ = ("_terms", "_tree")

    def __init__(self, terms: Optional[Mapping[Exponents, object]] = None):
        clean: Dict[Exponents, Rational] = {}
        if terms:
            for exp, coeff in terms.items():
                q = coeff if type(coeff) is int else exact(as_fraction(coeff))
                if q:
                    clean[tuple(exp)] = q  # type: ignore[index]
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_tree", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        return Poly({ZERO_EXP: c})

    @staticmethod
    def variable(name: str) -> "Poly":
        exp = [0, 0, 0, 0]
        exp[_var_index(name)] = 1
        return Poly({tuple(exp): 1})

    @staticmethod
    def monomial(exp: Exponents, coeff=1) -> "Poly":
        return Poly({tuple(exp): coeff})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Iterate (exponents, coefficient) pairs.  Do not mutate."""
        return self._terms.items()

    def coefficient(self, exp: Exponents) -> Rational:
        return self._terms.get(tuple(exp), 0)

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
        allowed = set(allowed)
        return not mentions([v for v in VARS if v not in allowed], self)

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
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _raw({exp: -c for exp, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        return self._merge(other, sub)  # self + (-other), without building -other

    def _merge(self, other, op) -> "Poly":
        # op(self, other) term by term, for op add or sub
        other = _coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for exp, c in other._terms.items():
            s = op(merged.get(exp, 0), c)
            if s:
                merged[exp] = exact(s)
            else:
                del merged[exp]
        return _raw(merged)

    def __rsub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero()
            return _raw({exp: exact(c * other) for exp, c in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        # the product runs on ints, at one common denominator of each factor
        den1, terms1 = _over_denominator(self._terms)
        den2, terms2 = _over_denominator(other._terms)
        out, den = _int_product(terms1, terms2), den1 * den2
        return _raw(out) if den == 1 else from_scaled(out, den)

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
        out: Dict[Exponents, Rational] = {}
        for exp, c in self._terms.items():
            e = exp[i]
            if e == 0:
                continue
            new = list(exp)
            new[i] = e - 1
            out[tuple(new)] = exact(c * e)
        return _raw(out)

    def substitute(self, replacements: Mapping[str, "Poly"]) -> "Poly":
        """Replace each named variable by its polynomial, all at once, expanded.

        Each replacement is read in the original variables, so
        ``substitute({"x": B, "b": X})`` swaps x and b, and one call composes
        a polynomial map.  Each replaced variable keeps one list of powers,
        as int terms over a power of its replacement's common denominator,
        so no power or product of powers goes through a ``Fraction``; the
        sum runs on ints too, at one common denominator of every term's image.
        """
        slots = [(_var_index(name), r) for name, r in replacements.items()]
        # per replaced slot that occurs: the lcm L of its replacement r's
        # denominators and [L r, (L r)^2, ...] as int terms
        scaled: Dict[int, Tuple[int, list]] = {}
        parts = []  # per term: exponents kept, numerator, denominator, int terms
        for exp, c in self._terms.items():
            rest = list(exp)
            image = _ONE_TERMS  # the product of the replaced variables' scaled powers
            den = c.denominator
            for i, r in slots:
                e, rest[i] = rest[i], 0
                if e:
                    if i not in scaled:
                        d, terms = _over_denominator(r._terms)
                        scaled[i] = (d, [terms])
                    d, powers = scaled[i]
                    while len(powers) < e:
                        powers.append(_int_product(powers[-1], powers[0]).items())
                    if image is _ONE_TERMS:
                        image = powers[e - 1]
                    else:
                        image = _int_product(image, powers[e - 1]).items()
                    den *= d**e
            parts.append((rest, c.numerator, den, image))
        # the sum runs on ints, at one common denominator of every part
        den = math.lcm(*(d for _, _, d, _ in parts))
        out: Dict[Exponents, int] = {}
        for (rx, ry, ra, rb), n, d, image in parts:
            n *= den // d
            for (ex, ey, ea, eb), c2 in image:
                key = (rx + ex, ry + ey, ra + ea, rb + eb)
                out[key] = out.get(key, 0) + n * c2
        return from_scaled(out, den)

    # -- evaluation --------------------------------------------------------

    def eval_exact(self, point) -> Fraction:
        """Exact evaluation at (x, y, a, b) given as rationals.

        Runs over integers at one common denominator.  With each coordinate
        v_i = p_i/q_i, D_i the largest exponent of v_i and L the lcm of the
        coefficient denominators, the term c v^e becomes the integer
        c L prod p_i^e_i q_i^(D_i - e_i), and the value is the sum of these
        over L prod q_i^D_i: one ``Fraction`` per call, in lowest terms.
        Powers are taken only at the exponents that occur, so a sparse
        x^100000 costs two powers, not a table of 100000.  A float
        coordinate is a ``TypeError``, used slot or not.
        """
        terms = self._terms
        if not terms:
            return Fraction(0)
        denominator, scaled = _over_denominator(terms)
        factors = []
        for i, v in enumerate(point):
            if not isinstance(v, (int, Fraction)):
                v = as_fraction(v)
            exps = {exp[i] for exp in terms}
            top = max(exps)
            num, den = v.numerator, v.denominator
            factors.append({e: num**e * den ** (top - e) for e in exps})
            denominator *= den**top
        fx, fy, fa, fb = factors
        total = 0
        for (ex, ey, ea, eb), c in scaled:
            total += c * fx[ex] * fy[ey] * fa[ea] * fb[eb]
        return Fraction(total, denominator)

    def eval_floats(self, points) -> List[float]:
        """Floating evaluation at each of the points (x, y, a, b), by sparse Horner.

        The Horner tree buckets the terms by the exponent of x, then of y,
        a and b, and skips a variable where every term has exponent 0.  A
        node holds its exponents in descending order as gaps, and a leaf the
        one coefficient with those exponents as ``0.0 + float(c)``.  One walk
        of the tree serves every point: it runs over the points' coordinate
        columns, one list per node, and computes for each point
        ``acc * v ** gap + sub`` down a node and ``acc * v ** last`` at its
        end, where ``last`` is not 0.  Each point's value thus takes the
        same float operations in the same order as a walk at that point
        alone; the report witnesses pin this order, so values are
        reproducible bit for bit.  A skipped level or a ``last`` of 0 would
        multiply by ``v ** 0 == 1.0``, which changes no float.  An
        ``OverflowError`` at any point is raised for the whole call, and a
        caller that needs the other points' values evaluates them one by
        one.  A coefficient too large for a float stays exact in its leaf,
        where ``0.0 + c`` raises ``OverflowError`` at every call with a point.
        """
        if not points:
            return []
        if not self._terms:
            return [0.0] * len(points)
        return self.eval_columns(float_columns(points))

    def eval_columns(self, columns: Sequence[List[float]]) -> List[float]:
        """``eval_floats`` at the points whose ``float_columns`` are ``columns``.

        A caller that evaluates several polynomials at one point list builds
        its columns once and passes them to each; every value is the one
        ``eval_floats`` gives, bit for bit, and an ``OverflowError`` is raised
        for the whole call alike.
        """
        n = len(columns[0])
        if not n:
            return []
        if not self._terms:
            return [0.0] * n
        tree = self._tree
        if tree is None:  # a leaf of 0.0 is a built tree too
            tree = _horner_tree(list(self._terms.items()), 0)
            object.__setattr__(self, "_tree", tree)
        return _walk(tree, columns, n)

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


def float_columns(points) -> List[List[float]]:
    """The x, y, a and b columns of a point list as floats, the input of
    ``Poly.eval_columns``.  Each column is built by index: zip(*points) would
    also build an argument tuple as long as the point list."""
    return [list(map(float, map(itemgetter(i), points))) for i in range(4)]


def mentions(variables: Iterable[str], *polys: Poly) -> bool:
    """Whether a term of one of ``polys`` has a nonzero exponent of one of
    ``variables``, read in one pass over all their terms."""
    slots = list(map(_var_index, variables))
    if not slots:
        return False
    # each term's exponents of those variables, read by one itemgetter: a bare
    # int for one variable, a tuple for more
    zero = 0 if len(slots) == 1 else (0,) * len(slots)
    return not {*map(itemgetter(*slots), chain.from_iterable(p._terms for p in polys))} <= {zero}


def over_common_denominator(polys: Sequence[Poly]) -> Tuple[int, List[Iterable]]:
    """(L, each poly's terms times L as (exponents, int) pairs), L the lcm of
    every coefficient denominator of ``polys``: the int form the exact
    kernels run on, read back by ``from_scaled``."""
    terms = [p._terms for p in polys]
    if Fraction not in map(type, chain.from_iterable(map(dict.values, terms))):
        return 1, [t.items() for t in terms]
    parts = [_over_denominator(t) for t in terms]
    den = math.lcm(*(d for d, _ in parts))
    return den, [t if d == den else [(e, c * (den // d)) for e, c in t] for d, t in parts]


def from_scaled(terms: Mapping[Exponents, int], den: int) -> Poly:
    """The polynomial whose terms times ``den`` are the int ``terms``; a zero
    term is dropped and each coefficient takes its ``exact`` form."""
    if den == 1:
        return _raw({e: c for e, c in terms.items() if c})
    return _raw({e: exact(Fraction(c, den)) for e, c in terms.items() if c})


_new = object.__new__
_set_terms = Poly._terms.__set__  # type: ignore[attr-defined]
_set_tree = Poly._tree.__set__  # type: ignore[attr-defined]


def _raw(terms: Dict[Exponents, Rational]) -> Poly:
    # a Poly of terms already clean (exact nonzero coefficients), without __init__
    p = _new(Poly)
    _set_terms(p, terms)
    _set_tree(p, None)
    return p


def _over_denominator(terms: Dict[Exponents, Rational]) -> Tuple[int, Iterable]:
    # (L, the terms times L as ints), L the lcm of the coefficient denominators
    if Fraction not in map(type, terms.values()):
        return 1, terms.items()
    den = math.lcm(*(c.denominator for c in terms.values()))
    return den, [(exp, c.numerator * (den // c.denominator)) for exp, c in terms.items()]


def _int_product(terms1: Iterable, terms2: Iterable) -> Dict[Exponents, int]:
    # the product of two int term lists, a sum that cancels left out
    out: Dict[Exponents, int] = {}
    for (x1, y1, a1, b1), c1 in terms1:
        for (x2, y2, a2, b2), c2 in terms2:
            exp = (x1 + x2, y1 + y2, a1 + a2, b1 + b2)
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


_ONE_TERMS = ((ZERO_EXP, 1),)


def _coerce(value) -> Optional[Poly]:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
    return None


def _horner_tree(items, vi):
    # sparse Horner's bucket tree: one level per variable that occurs, with
    # exponents in descending order as (variable, first child,
    # ((gap, child), ...), last exponent); a leaf is one coefficient, since
    # no two terms share all four exponents
    while vi < 4 and not any(exp[vi] for exp, _ in items):
        vi += 1
    if vi == 4:
        ((_, c),) = items
        try:
            # as a sum from 0.0: a coefficient that underflows to -0.0 gives 0.0
            return 0.0 + float(c)
        except OverflowError:
            return c  # kept exact: the walk adds it to 0.0, which raises at every call
    buckets: Dict[int, list] = {}
    for exp, c in items:
        buckets.setdefault(exp[vi], []).append((exp, c))
    order = sorted(buckets, reverse=True)
    first = _horner_tree(buckets[order[0]], vi + 1)
    rest = tuple(
        (prev - e, _horner_tree(buckets[e], vi + 1)) for prev, e in zip(order, order[1:])
    )
    return (vi, first, rest, order[-1])


def _walk(node, columns, n):
    # the node's value at each of n points, from their coordinate columns
    if type(node) is not tuple:
        return [node if type(node) is float else 0.0 + node] * n
    vi, first, rest, last = node
    column = columns[vi]
    acc = _walk(first, columns, n)
    for gap, child in rest:
        acc = [s * v**gap + c for s, v, c in zip(acc, column, _walk(child, columns, n))]
    return [s * v**last for s, v in zip(acc, column)] if last else acc


# -- immutable records -----------------------------------------------------


class Record:
    """An immutable value, equal to, hashed and printed by its fields.

    A subclass names its fields once, in order, in ``__match_args__``; it
    validates its arguments in its own ``__init__``, if it has one, and then
    calls ``super().__init__`` with every field.  A record equals only a
    record of exactly its class, never one of a subclass or a base, and
    hashes as its field tuple.
    """

    __slots__ = ()
    __match_args__: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple in one C call; attrgetter of one name returns the bare value
        get = attrgetter(*cls.__match_args__)
        cls._values = staticmethod(get if len(cls.__match_args__) > 1 else lambda r: (get(r),))

    def __init__(self, *values):
        names = self.__match_args__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"


# -- weighted grading ------------------------------------------------------


class Grading(Record):
    """Weights 1 on x and b, k on a and y, with k >= 3."""

    __slots__ = __match_args__ = ("k",)

    def __init__(self, k: int):
        if not isinstance(k, int) or k < 3:
            raise UnsupportedDegreeError(f"grading requires integer k >= 3, got {k!r}")
        super().__init__(k)

    def weight(self, exp: Exponents) -> int:
        ex, ey, ea, eb = exp
        return ex + eb + self.k * (ea + ey)

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
    terms: Dict[Exponents, Rational] = {}
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
        coeff: Rational = 1
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
                coeff = num
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
        terms[key] = terms.get(key, 0) + sign * coeff
        first = False
    return Poly(terms)


# module-level generators, convenient for building expressions
X = Poly.variable("x")
Y = Poly.variable("y")
A = Poly.variable("a")
B = Poly.variable("b")
ONE = Poly.constant(1)
