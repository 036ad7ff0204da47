"""Per-weight ansatz, exact kernel computation, and the graded algebra.

For a fixed weight m the unknown field has one coefficient per admissible
monomial: alpha and beta monomials a^i b^j satisfy ki + j = m + k and
ki + j = m + 1, xi and eta monomials x^i y^j satisfy i + kj = m + 1 and
i + kj = m + k.  The tangency residual is linear in these unknowns, so the
solution space per weight is the kernel of an exact rational matrix.  One
assembly and one solve serve every weight: ``tangency_system`` builds the
residual columns of any candidate fields, each a combination of ansatz
slots, as sparse rows, the (column, coefficient) pairs of each residual
monomial, read slot by slot off (a+P)^j and (a+P)^j P_x, cached on the
surface as ``Poly`` values, whose integral coefficients are plain ints.
``_solve`` takes the kernel of those columns in ansatz coordinates and in
one normal form.  Each weight w is solved one way, on the preimage under
ad V, V = d_a + d_y, of g_(w-k): the prolongation of the graded algebra
below w (Tanaka 1970; Sternberg 1964), at most dim g_(w-k) + 4 candidates
(``_solve_prolonged``), run by ``solve_weight``, which ``solve-weight``
prints, up one residue class mod k, and by ``solve_algebra`` up its scan at
the weights the prolongation leaves open: w = -k, -1 <= w <= k - 2, and any
w whose g_(w-k) has a generator.  Every other weight is {0} by the lemma in
``solve_algebra``'s docstring, and costs no solve.

``brute_force_check`` certifies each kernel independently: it samples the
residual of every unit field at random points of F_q, q = 2^31 - 1, each
row read straight off the gamma sequence mod q, and checks the symbolic
basis against those rows (dimension from the rank mod q, vanishing on every
row, independence mod q) with its own small dense elimination mod q, which
shares no code with ``tangency_system``, ``Poly`` or the kernel routines of
``linalg``.  Disagreement with ``solve_weight`` is a hard failure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .poly import ONE, Exponents, Poly, Rational, Record, order_key
from .surface import ModelSurface, ParaVectorField

COMPONENTS = ("alpha", "beta", "xi", "eta")

_ORACLE_SEED = 0x5EED
_ORACLE_PRIME = 2**31 - 1


class OracleMismatchError(AssertionError):
    """The interpolation oracle disagrees with the symbolic kernel."""


class WeightAnsatz(Record):
    """Unknown layout for one weight: ordered (component, monomial) slots."""

    __slots__ = __match_args__ = ("surface", "weight", "unknowns")

    def __len__(self) -> int:
        return len(self.unknowns)

    def unit_field(self, index: int) -> ParaVectorField:
        """The field with a single monomial of coefficient 1 in slot ``index``."""
        comp, exp = self.unknowns[index]
        polys = {name: Poly.zero() for name in COMPONENTS}
        polys[comp] = Poly.monomial(exp)
        return ParaVectorField(polys["alpha"], polys["beta"], polys["xi"], polys["eta"])

    def field_from_vector(self, vec: Sequence[Rational]) -> ParaVectorField:
        parts: Dict[str, Dict[Exponents, Rational]] = {name: {} for name in COMPONENTS}
        for (comp, exp), c in zip(self.unknowns, vec):
            parts[comp][exp] = c  # Poly drops the zeros
        return ParaVectorField(
            Poly(parts["alpha"]), Poly(parts["beta"]), Poly(parts["xi"]), Poly(parts["eta"])
        )

    def vector_from_field(self, v: ParaVectorField) -> Tuple[Rational, ...]:
        comps = {"alpha": v.alpha, "beta": v.beta, "xi": v.xi, "eta": v.eta}
        return tuple(comps[comp].coefficient(exp) for comp, exp in self.unknowns)


def _ab_monomials(k: int, wdeg: int) -> List[Exponents]:
    # a^i b^j with k i + j = wdeg
    if wdeg < 0:
        return []
    exps = [(0, 0, i, wdeg - k * i) for i in range(wdeg // k + 1)]
    return sorted(exps, key=order_key)


def _xy_monomials(k: int, wdeg: int) -> List[Exponents]:
    # x^i y^j with i + k j = wdeg
    if wdeg < 0:
        return []
    exps = [(wdeg - k * j, j, 0, 0) for j in range(wdeg // k + 1)]
    return sorted(exps, key=order_key)


def build_ansatz(s: ModelSurface, m: int) -> WeightAnsatz:
    """Enumerate the admissible monomials per component for weight m.

    Weights below -k admit no monomials and give the empty ansatz.
    """
    k = s.k
    unknowns: List[Tuple[str, Exponents]] = []
    unknowns += [("alpha", exp) for exp in _ab_monomials(k, m + k)]
    unknowns += [("beta", exp) for exp in _ab_monomials(k, m + 1)]
    unknowns += [("xi", exp) for exp in _xy_monomials(k, m + 1)]
    unknowns += [("eta", exp) for exp in _xy_monomials(k, m + k)]
    return WeightAnsatz(s, m, tuple(unknowns))


class KernelBasis(NamedTuple):
    """Solution space of the tangency condition at one weight, and its system's shape."""

    weight: int
    basis: Tuple[ParaVectorField, ...]
    system_shape: Tuple[int, int]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _slot_factor(s: ModelSurface, comp: str, ey: int) -> Tuple[Poly, int]:
    """(factor, sign) of one slot's residual, before the shift by its monomial:
    eta x^i y^j gives +(a+P)^j, xi x^i y^j gives -(a+P)^j P_x, alpha gives -1
    and beta gives -P_b."""
    if comp == "alpha":
        return ONE, -1
    if comp == "beta":
        return s.p_b, -1
    if comp == "eta":
        return s.y_power(ey), 1
    return s.y_power_p_x(ey), -1


def tangency_system(
    ansatz: WeightAnsatz, candidates: Sequence[Sequence[Tuple[int, int]]]
) -> Tuple[List[Exponents], List[linalg.SparseRow]]:
    """The per-weight linear system as (monomials, sparse rows).

    Each candidate is a field given by its (slot, integer coefficient) pairs,
    and column i holds the residual of candidate i, one row per residual
    monomial, in the order the monomials are first reached.  Each row lists
    its (column, coefficient) pairs in ascending column order, a value 0
    where a candidate's slots cancel; no dense matrix is formed.
    ``tangency_residual`` expands to eta x^i y^j -> x^i (a+P)^j,
    xi x^i y^j -> -x^i (a+P)^j P_x, alpha a^i b^j -> -a^i b^j and
    beta a^i b^j -> -a^i b^j P_b, so each slot is read straight off one
    ``Poly`` (``_slot_factor``) with its exponents shifted by the slot's
    monomial: (a+P)^j from ``ModelSurface.y_power`` and (a+P)^j P_x from
    ``ModelSurface.y_power_p_x``, both memoized on the surface.  Integral
    coefficients are ints.
    """
    s = ansatz.surface
    entries: Dict[Exponents, Dict[int, Rational]] = {}  # residual monomial -> column -> value
    for col, candidate in enumerate(candidates):
        for j, c in candidate:
            comp, (ex, ey, ea, eb) = ansatz.unknowns[j]
            factor, sign = _slot_factor(s, comp, ey)
            c *= sign
            for (fx, fy, fa, fb), f in factor.items():
                row = entries.setdefault((fx + ex, fy, fa + ea, fb + eb), {})
                row[col] = row.get(col, 0) + c * f
    return list(entries), [list(row.items()) for row in entries.values()]


def _solve(ansatz: WeightAnsatz, candidates: Sequence[Sequence[Tuple[int, int]]]) -> KernelBasis:
    """The tangency kernel within the span of independent ``candidates``, with
    shape (residual monomials, candidates).

    ``linalg.nullspace_modular`` solves the candidate columns of
    ``tangency_system``, the kernel is mapped to ansatz coordinates, and
    ``linalg.kernel_normal_form`` reads the basis off it.
    """
    monomials, rows = tangency_system(ansatz, candidates)
    vectors = []
    for u in linalg.nullspace_modular(rows, len(candidates)):
        vec = [0] * len(ansatz)
        for coefficient, candidate in zip(u, candidates):
            for j, c in candidate:
                vec[j] += coefficient * c
        vectors.append(vec)
    normal = linalg.kernel_normal_form(vectors, len(ansatz))
    basis = tuple(ansatz.field_from_vector(vec) for vec in normal)
    return KernelBasis(ansatz.weight, basis, (len(monomials), len(candidates)))


@lru_cache(maxsize=None)
def solve_weight(s: ModelSurface, m: int) -> KernelBasis:
    """The tangency kernel at weight m, solved as ``solve_algebra`` solves it
    (``_solve_prolonged``), in the basis ``nullspace_bareiss`` gives on the
    full ansatz.  m's residue class mod k is walked up from its lowest weight
    >= -k, each weight below m read from this cache, so calls nest at most
    one deep.  Results are cached; all returned values are immutable.
    """
    below = ()
    for w in range(m % s.k - s.k, m, s.k):
        below = solve_weight(s, w).basis
    return _solve_prolonged(build_ansatz(s, m), below)


def _slot_values(
    unknowns: Sequence[Tuple[str, Exponents]], maxima: Exponents, gamma: Sequence[int],
    x: int, a: int, b: int,
) -> List[int]:
    """The residual eta - alpha - beta P_b - xi P_x of each unit field at the
    point (x, a, b) of F_q^3, with q = ``_ORACLE_PRIME``.

    ``gamma`` is the coefficient sequence reduced mod q and ``maxima`` holds
    the largest exponents (Ex, Ey, Ea, Eb) of x, y, a, b in ``unknowns``.
    P, P_x and P_b are summed straight off ``gamma`` and the power tables of
    x and b, which reach at least k - 1, y = a + P, and each entry is the
    slot's monomial, read off four power tables, times its component's
    factor 1, -P_x, -1 or -P_b.
    """
    q = _ORACLE_PRIME
    k = len(gamma) + 1

    def powers(base: int, top: int) -> List[int]:
        table = [1] * (top + 1)
        for e in range(1, top + 1):
            table[e] = table[e - 1] * base % q
        return table

    ex_max, ey_max, ea_max, eb_max = maxima
    tx, tb = powers(x, max(ex_max, k - 1)), powers(b, max(eb_max, k - 1))
    p = p_x = p_b = 0
    for i, g in enumerate(gamma, start=1):
        if g:
            p += g * tb[i] * tx[k - i]
            p_x += g * (k - i) * tb[i] * tx[k - i - 1]
            p_b += g * i * tb[i - 1] * tx[k - i]
    ty, ta = powers(a + p, ey_max), powers(a, ea_max)
    factor = {"eta": 1, "xi": -p_x, "alpha": -1, "beta": -p_b}
    return [
        tx[ex] * ty[ey] * ta[ea] * tb[eb] * factor[comp] % q
        for comp, (ex, ey, ea, eb) in unknowns
    ]


def _rank_mod_q(rows: Iterable[Sequence[int]], ncols: int) -> int:
    """Rank over F_q of dense rows, by Gaussian elimination one row at a time;
    no row is read after the rank reaches ``ncols``."""
    q = _ORACLE_PRIME
    echelon: Dict[int, List[int]] = {}  # pivot column -> row scaled to pivot 1, zero before it
    for row in rows:
        row = [v % q for v in row]
        for c in range(ncols):
            v = row[c]
            if not v:
                continue
            prow = echelon.get(c)
            if prow is None:
                inv = pow(v, -1, q)
                echelon[c] = [w * inv % q for w in row]
                break
            row = [(w - v * u) % q for w, u in zip(row, prow)]
        if len(echelon) == ncols:
            break
    return len(echelon)


def brute_force_check(s: ModelSurface, m: int) -> KernelBasis:
    """Certify ``solve_weight``'s kernel, as ``analyze`` reports it, at random points of F_q.

    The residual of every unit field is sampled at up to 2t + 16 seeded
    points drawn in F_q, q = 2^31 - 1 (``_slot_values``), with no symbolic
    coefficient extraction.  A sampled row is a combination of the symbolic
    rows, so rank_q of the samples is at most the rank over Q, and
    t - rank_q below the symbolic dimension always means a missing generator.
    The symbolic basis passes when t - rank_q equals its dimension, every
    vector vanishes on every sampled row, and the vectors are independent
    mod q; by Schwartz-Zippel a wrong basis survives only with small
    probability.  Points are drawn in seeded order only as the elimination
    reads rows: no row after rank t can change the verdict, so only a weight
    with a kernel draws all 2t + 16.  The oracle uses none of the symbolic
    path's helpers.  Any disagreement raises ``OracleMismatchError``; a
    gamma denominator divisible by q raises ``ValueError``.  Returns
    ``solve_weight``'s basis with shape (2t + 16, t), the sampling budget;
    an empty ansatz (t = 0) draws no point and gives shape (0, 0).
    """
    q = _ORACLE_PRIME
    if any(g.denominator % q == 0 for g in s.gamma):
        raise ValueError(f"a gamma denominator is divisible by the oracle prime q = {q}")
    gamma = [g.numerator * pow(g.denominator, -1, q) % q for g in s.gamma]
    symbolic = solve_weight(s, m)
    ansatz = build_ansatz(s, m)
    t = len(ansatz)
    if t == 0:
        if symbolic.dimension != 0:
            raise OracleMismatchError(
                f"weight {m}: empty ansatz but symbolic dimension {symbolic.dimension}"
            )
        return KernelBasis(m, (), (0, 0))
    rng = random.Random((_ORACLE_SEED, s.k, tuple(s.gamma), m).__repr__())
    npoints = 2 * t + 16
    maxima = tuple(max(exp[v] for _, exp in ansatz.unknowns) for v in range(4))
    rows: List[List[int]] = []

    def sampled() -> Iterator[List[int]]:
        # a point is drawn and its row built and kept only when read
        for _ in range(npoints):
            x, a, b = (rng.randrange(q) for _ in range(3))
            rows.append(_slot_values(ansatz.unknowns, maxima, gamma, x, a, b))
            yield rows[-1]

    dimension = t - _rank_mod_q(sampled(), t)
    if dimension != symbolic.dimension:
        raise OracleMismatchError(
            f"weight {m}: interpolation dimension {dimension} "
            f"!= symbolic dimension {symbolic.dimension}"
        )
    symbolic_vectors = [ansatz.vector_from_field(f) for f in symbolic.basis]
    for vec in symbolic_vectors:
        # the primitive integer entries, kept sparse: (column, value) for each nonzero
        support = [(j, c) for j, c in enumerate(vec) if c]
        for row in rows:
            if sum(row[j] * c for j, c in support) % q:
                raise OracleMismatchError(
                    f"weight {m}: symbolic kernel vector fails a sampled equation"
                )
    if _rank_mod_q(symbolic_vectors, t) != len(symbolic_vectors):
        raise OracleMismatchError(f"weight {m}: kernel spans differ")
    return KernelBasis(m, symbolic.basis, (npoints, t))


# -- full graded algebra -----------------------------------------------------


class ClosureViolation(NamedTuple):
    left: int
    right: int
    weight_sum: int

    def describe(self) -> str:
        return (
            f"bracket of generators {self.left} and {self.right} "
            f"(weight sum {self.weight_sum}) is outside the computed span"
        )


class SymmetryAlgebra(NamedTuple):
    """Concatenated kernel bases with exact structure constants.

    ``weight_cap`` is the last weight scanned: the given cap, or the weight
    where the default scan stopped.
    """

    surface: ModelSurface
    weight_cap: int
    generators: Tuple[Tuple[int, ParaVectorField], ...]
    structure_constants: Tuple[Tuple[Tuple[Rational, ...], ...], ...]
    closure_violations: Tuple[ClosureViolation, ...]

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def weights(self) -> Tuple[int, ...]:
        return tuple(w for w, _ in self.generators)

    @property
    def complete(self) -> bool:
        """Whether the scan reached c + k, c = max(k - 2, highest weight found),
        so that by ``solve_algebra``'s lemma no generator lies above it."""
        k = self.surface.k
        return self.weight_cap >= max(k - 2, max(self.weights)) + k


def _solve_prolonged(ansatz: WeightAnsatz, below: Sequence[ParaVectorField]) -> KernelBasis:
    """The tangency kernel at ``ansatz.weight`` = w, solved on the preimage
    under ad V of g_(w-k), whose basis is ``below``.

    The candidates, each scaled to integers, are the integrals of ``below``
    and the fields of ker ad V with exponents >= 0 (see ``solve_algebra``).
    They are independent, since ad V maps the integrals back onto ``below``.
    """
    w, k = ansatz.weight, ansatz.surface.k
    index = {slot: i for i, slot in enumerate(ansatz.unknowns)}
    candidates: List[List[Tuple[int, int]]] = []  # (slot, integer coefficient) pairs
    for z in below:
        pairs = []
        # alpha and beta integrated in a (exponent slot 2), xi and eta in y (slot 1)
        for comp, part, var in zip(COMPONENTS, (z.alpha, z.beta, z.xi, z.eta), (2, 2, 1, 1)):
            for exp, c in part.items():
                e = list(exp)
                e[var] += 1
                pairs.append((index[(comp, tuple(e))], Fraction(c, e[var])))
        den = lcm(*(q.denominator for _, q in pairs))
        candidates.append([(j, q.numerator * (den // q.denominator)) for j, q in pairs])
    for slot in (
        ("alpha", (0, 0, 0, w + k)),
        ("beta", (0, 0, 0, w + 1)),
        ("xi", (w + 1, 0, 0, 0)),
        ("eta", (w + k, 0, 0, 0)),
    ):
        if min(slot[1]) >= 0:
            candidates.append([(index[slot], 1)])
    return _solve(ansatz, candidates)


def solve_algebra(s: ModelSurface, weight_cap: Optional[int] = None) -> SymmetryAlgebra:
    """Kernel bases for every weight from -k up, plus brackets.

    Each weight w is solved on the preimage under ad V, V = d_a + d_y, of
    g_(w-k), the weight k steps before (``_solve_prolonged``): V is in the
    algebra and the algebra is closed, so [V, X] lies in g_(w-k) for every
    X in g_w.  ad V differentiates alpha and beta in a and xi and eta in y,
    so the preimage is spanned by the integrals of g_(w-k)'s basis and
    ker ad V on the weight-w ansatz, b^(w+k) d_a, b^(w+1) d_b, x^(w+1) d_x
    and x^(w+k) d_y.  The basis found there is ``solve_weight(s, w)``'s, the
    full ansatz's kernel in its normal form.

    When g_(w-k) = 0 the preimage is ker ad V alone, X = e' b^(w+k) d_a
    + d b^(w+1) d_b + c1 x^(w+1) d_x + e x^(w+k) d_y, each term kept only
    where its exponent is >= 0, and tangency asks that
    e x^(w+k) - e' b^(w+k) = c1 x^(w+1) P_x + d b^(w+1) P_b.  This is the
    lemma, and it proves g_w = 0 in two ranges:

    - w >= k - 1: the left side is pure and the right side mixed, and the
      two mixed sums share no monomial, since b^i x^(w+k-i) of x^(w+1) P_x
      equals b^(w+j) x^(k-j) of b^(w+1) P_b only if w = i - j <= k - 2.  So
      P != 0 forces c1 = d = 0, and then e = e' = 0.
    - -k < w < -1: g_(w-k) lies below -k and is 0, and w + 1 < 0 leaves
      only b^(w+k) d_a and x^(w+k) d_y, whose residuals -b^(w+k) and
      x^(w+k) are two distinct pure monomials, as w + k >= 1.

    So the scan solves weight w only when g_(w-k) has a generator, or
    w = -k, or -1 <= w <= k - 2, and builds no ansatz at any other weight.
    ``solve_weight`` still solves every weight of its residue class.

    With a ``weight_cap`` the weights [-k, weight_cap] are scanned.  Without
    one the scan stops at c + k, where c = max(k - 2, highest weight seen so
    far with a nonzero kernel), which finds the whole algebra: every w in
    (c + k, c + 2k] has g_(w-k) = 0 and w >= k - 1, so g_w = 0, and so on
    by induction.  The model is weighted homogeneous, so this covers formal
    symmetries too.  ``SymmetryAlgebra.complete`` tells whether a given cap
    reached c + k.

    The algebra is graded, [g_u, g_w] in g_(u+w), so brackets are solved per
    weight: a nonzero bracket of generators of weights u and w is written in
    the ansatz coordinates of weight u + w, solved exactly against that
    weight's kernel basis alone, and its coefficients fill that weight's
    block of the table row.  Only weights with generators have a block: a
    nonzero bracket whose weight has none (outside [-k, weight_cap], or
    {0} there), that has a term outside the ansatz, or that lies outside
    the span is recorded as a closure violation, not dropped.
    """
    k = s.k
    if weight_cap is not None and weight_cap < k:
        raise ValueError(f"weight_cap must be at least k={k}, got {weight_cap}")
    stop = 2 * k - 2 if weight_cap is None else weight_cap
    generators: List[Tuple[int, ParaVectorField]] = []
    # weight -> (ansatz, index of its first generator, basis in ansatz coordinates)
    blocks: Dict[int, Tuple[WeightAnsatz, int, List[Tuple[Rational, ...]]]] = {}
    m = -k
    while m <= stop:
        below = [f for w, f in generators if w == m - k]
        if below or m == -k or -1 <= m <= k - 2:
            ansatz = build_ansatz(s, m)
            basis = _solve_prolonged(ansatz, below).basis
            if basis:
                blocks[m] = (ansatz, len(generators), [ansatz.vector_from_field(f) for f in basis])
                generators.extend((m, f) for f in basis)
                if weight_cap is None:
                    stop = max(stop, m + k)
        m += 1
    weight_cap = stop
    fields = [f for _, f in generators]
    n = len(fields)
    zero_row: Tuple[Rational, ...] = (0,) * n
    table: List[List[Tuple[Rational, ...]]] = [[zero_row] * n for _ in range(n)]
    violations: List[ClosureViolation] = []
    for i in range(n):
        for j in range(i + 1, n):
            br = fields[i].bracket(fields[j])
            if br.is_zero:
                continue
            w = generators[i][0] + generators[j][0]
            coeffs = None
            if w in blocks:
                ansatz, start, basis_vectors = blocks[w]
                vec = ansatz.vector_from_field(br)
                # the slots are distinct (component, monomial) pairs, so every
                # term of br has a slot iff br has as many terms as vec nonzeros
                terms = len(br.alpha) + len(br.beta) + len(br.xi) + len(br.eta)
                if terms == len(vec) - vec.count(0):
                    coeffs = linalg.solve_in_span(basis_vectors, vec)
            if coeffs is None:
                violations.append(ClosureViolation(i, j, w))
                continue
            row = list(zero_row)
            row[start : start + len(coeffs)] = coeffs
            table[i][j] = tuple(row)
            table[j][i] = tuple(-c for c in row)
    return SymmetryAlgebra(
        surface=s,
        weight_cap=weight_cap,
        generators=tuple(generators),
        structure_constants=tuple(tuple(row) for row in table),
        closure_violations=tuple(violations),
    )


# -- named generator fields --------------------------------------------------


def vertical_translation() -> ParaVectorField:
    """d_a + d_y, the weight -k generator of every model surface."""
    one = Poly.constant(1)
    zero = Poly.zero()
    return ParaVectorField(one, zero, zero, one)


def grading_field(k: int) -> ParaVectorField:
    """k a d_a + b d_b + x d_x + k y d_y, the weighted dilation generator."""
    return ParaVectorField(
        Poly.monomial((0, 0, 1, 0), k),
        Poly.monomial((0, 0, 0, 1)),
        Poly.monomial((1, 0, 0, 0)),
        Poly.monomial((0, 1, 0, 0), k),
    )


def relative_dilation_field(k: int, iota: int) -> ParaVectorField:
    """(iota - k) b d_b + iota x d_x, extra weight-0 generator of monomials."""
    zero = Poly.zero()
    return ParaVectorField(
        zero,
        Poly.monomial((0, 0, 0, 1), iota - k),
        Poly.monomial((1, 0, 0, 0), iota),
        zero,
    )


def special_conformal_field(k: int, iota: int) -> ParaVectorField:
    """a^2 d_a + ab/iota d_b + xy/(k - iota) d_x + y^2 d_y, weight k."""
    return ParaVectorField(
        Poly.monomial((0, 0, 2, 0)),
        Poly.monomial((0, 0, 1, 1), Fraction(1, iota)),
        Poly.monomial((1, 1, 0, 0), Fraction(1, k - iota)),
        Poly.monomial((0, 2, 0, 0)),
    )


def oblique_translation_field(k: int, delta: Fraction, nu: Fraction) -> ParaVectorField:
    """Weight -1 generator of the binomial surfaces.

    Solving the tangency condition gives
    k delta nu^k b^(k-1) d_a + d_b - nu d_x + k delta nu x^(k-1) d_y.
    """
    delta = Fraction(delta)
    nu = Fraction(nu)
    return ParaVectorField(
        Poly.monomial((0, 0, 0, k - 1), k * delta * nu**k),
        Poly.constant(1),
        Poly.constant(-nu),
        Poly.monomial((k - 1, 0, 0, 0), k * delta * nu),
    )
