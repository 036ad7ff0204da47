"""Exact real root counting for univariate rational polynomials.

Polynomials are coefficient lists in ascending degree order.  Root counts
use a Sturm chain built over the integers, so the answers are exact
integers that cannot flip under rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

Coeffs = List[Fraction]


def trim(p: Sequence[Fraction]) -> Coeffs:
    out = [Fraction(c) for c in p]
    while out and out[-1] == 0:
        out.pop()
    return out


def degree(p: Sequence[Fraction]) -> int:
    t = trim(p)
    return len(t) - 1 if t else -1


def _primitive(p: List[int]) -> List[int]:
    # divide by the positive content, so every sign is kept
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _negated_remainder(num: List[int], den: List[int]) -> List[int]:
    """-(num mod den) times a positive integer, primitive.

    Each pseudo-division step scales by |lc(den)| instead of lc(den), so
    the result is a positive multiple of the Sturm chain's next member.
    """
    rem = list(num)
    scale = abs(den[-1])
    sign = 1 if den[-1] > 0 else -1
    dn = len(den) - 1
    while len(rem) - 1 >= dn:
        shift = len(rem) - 1 - dn
        factor = sign * rem[-1]
        rem = [c * scale for c in rem]
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return _primitive([-c for c in rem])


def sign_variations(values: Sequence[int]) -> int:
    """Sign changes along the sequence, zeros skipped (Descartes' rule of signs)."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for s1, s2 in zip(signs, signs[1:]) if s1 != s2)


def count_real_roots(p: Sequence[Fraction]) -> int:
    """Number of distinct real roots of p over the whole line.

    The chain starts from the primitive integer forms of p and p'.  No
    square-free step is needed: every member is a multiple of gcd(p, p'),
    which scales all signs at +-infinity alike, so Sturm's theorem on the
    plain chain counts distinct roots.
    """
    t = trim(p)
    if len(t) <= 1:
        return 0
    scale = lcm(*(c.denominator for c in t))
    p0 = _primitive([int(c * scale) for c in t])
    chain = [p0, _primitive([i * c for i, c in enumerate(p0)][1:])]
    while len(chain[-1]) > 1:
        rem = _negated_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(rem)
    at_pos = [q[-1] for q in chain]
    at_neg = [q[-1] if len(q) % 2 else -q[-1] for q in chain]
    return sign_variations(at_neg) - sign_variations(at_pos)
