"""Exact rational linear algebra: kernels, rank, span tests, signatures.

Two independent kernel routines are provided on purpose.  The main path
scales rows to integers and runs fraction-free (Bareiss) elimination with
partial pivoting on pivot magnitude, which avoids rational blow-up during
elimination.  ``nullspace_modular`` puts a certified row selection in front
of it: the rows are reduced modulo one fixed prime, and only the rows that
raise the rank mod p go to Bareiss.  Rank mod p never exceeds the rank over
Q, so full rank mod p proves the kernel is {0} with no exact elimination.
Otherwise every row of the full system is checked against the subsystem's
kernel over the integers, and rows that fail join the subsystem until none
fails; the result then equals ``nullspace_bareiss`` on all rows.  The second
path is a Gauss-Jordan reduction to reduced row echelon form, run over
integers one row at a time: each row is cleared of denominators, divided by
its content and reduced against the pivot rows found so far with gcd-reduced
multipliers.  A row that reduces to zero is dropped, and the reduction stops
as soon as every column has a pivot, since the reduced form is then the
identity; otherwise one back-substitution pass clears above the pivots.  It
stays independent of the first so that cross-checks do not share an
elimination route: it shares no helper with it, uses no modular arithmetic
and never divides by the previous pivot.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Vector = Tuple[Fraction, ...]
Matrix = Sequence[Sequence[Fraction]]

_PRIME = 2**61 - 1


def _row_to_int(row: Sequence[Fraction]) -> List[int]:
    # int and Fraction entries alike: scale numerators to the common denominator
    denom = 1
    for v in row:
        denom = lcm(denom, v.denominator)
    return [v.numerator * (denom // v.denominator) for v in row]


def normalize_primitive(vec: Sequence[Fraction]) -> Vector:
    """Scale to a primitive integer vector whose first nonzero entry is > 0."""
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for v in fracs:
        denom = lcm(denom, v.denominator)
    ints = [int(v * denom) for v in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(Fraction(v) for v in ints)


def nullspace_bareiss(rows: Matrix, ncols: int) -> List[Vector]:
    """Kernel basis of the matrix, primitive-integer normalized.

    Entries are ints or Fractions; each row is scaled to integers by the lcm
    of its denominators before elimination.  Basis vectors are indexed by
    the free columns in ascending order, so the result is deterministic.
    """
    m = [_row_to_int(row) for row in rows if any(v != 0 for v in row)]
    nrows = len(m)
    pivots: List[Tuple[int, int]] = []  # (row, col) in echelon order
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if m[i][c] != 0 and (best is None or abs(m[i][c]) > abs(m[best][c])):
                best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        for i in range(r + 1, nrows):
            # exact integer division: entries stay minors of the input
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append((r, c))
        r += 1
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: List[Vector] = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in reversed(pivots):
            s = Fraction(0)
            for j in range(col + 1, ncols):
                if vec[j]:
                    s += Fraction(m[row][j]) * vec[j]
            vec[col] = -s / Fraction(m[row][col])
        basis.append(normalize_primitive(vec))
    return basis


def nullspace_modular(rows: Matrix, ncols: int) -> List[Vector]:
    """The basis ``nullspace_bareiss(rows, ncols)`` returns, via rank mod p.

    Rows are reduced modulo ``_PRIME`` one at a time against an echelon keyed
    by pivot column; a row that adds rank mod p is kept.  Kept rows are
    independent mod p, hence over Q, so rank ``ncols`` mod p returns ``[]``.
    Otherwise Bareiss runs on the kept rows, and every row is checked against
    each basis vector over the integers.  Rows with a nonzero product join
    the kept rows, which raises their rank, and Bareiss runs again.  Once no
    row fails, the subsystem has the kernel of the full system, and Bareiss's
    basis depends on the kernel alone: its free columns lie outside the
    lex-first column basis, and each vector is the primitive kernel vector
    on the pivots and one free column.
    """
    m = [_row_to_int(row) for row in rows if any(v != 0 for v in row)]
    p = _PRIME
    echelon: Dict[int, List[int]] = {}  # pivot column -> row mod p with pivot 1
    kept: List[int] = []
    for i, row in enumerate(m):
        red = [v % p for v in row]
        for c in range(ncols):
            v = red[c]
            if not v:
                continue
            pivot_row = echelon.get(c)
            if pivot_row is None:
                inv = pow(v, -1, p)
                echelon[c] = [w * inv % p for w in red]
                kept.append(i)
                break
            for j in range(c + 1, ncols):
                if pivot_row[j]:
                    red[j] = (red[j] - v * pivot_row[j]) % p
        if len(kept) == ncols:
            return []
    while True:
        basis = nullspace_bareiss([m[i] for i in kept], ncols)
        vectors = [[(j, v.numerator) for j, v in enumerate(vec) if v] for vec in basis]
        failing = [
            i
            for i, row in enumerate(m)
            if any(sum(row[j] * v for j, v in vec) for vec in vectors)
        ]
        if not failing:
            return basis
        kept = sorted(kept + failing)


def _clear_column(row: List[int], c: int, prow: List[int]) -> List[int]:
    # row = (p/g) row - (f/g) prow with g = gcd(p, f), then divided by its content
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    if a == 1:
        row = [v - b * w for v, w in zip(row, prow)]
    else:
        row = [a * v - b * w for v, w in zip(row, prow)]
    content = gcd(*row)
    return [v // content for v in row] if content > 1 else row


def rref(rows: Iterable[Sequence[Fraction]], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Entries are ints or Fractions, and ``rows`` is read one row at a time.
    Each row is scaled to a primitive integer row, then reduced against the
    pivot rows found so far, in ascending pivot column, by
    ``row = (p/g) row - (f/g) pivot_row`` with ``g = gcd(p, f)``, after which
    it is divided by its content.  A row that reduces to zero is dropped; any
    other row becomes the pivot row of its leading column.  Once there are
    ``ncols`` pivots the matrix has full column rank, so its reduced form is
    the identity: that is returned at once and no further row is read.
    Otherwise one back-substitution pass, from the last pivot to the first,
    clears each pivot column in the pivot rows above it, and only the final
    rows become Fractions, divided by their pivots.  The reduced form is
    unique, so the result does not depend on the order of the rows.
    """
    pivot_cols: List[int] = []  # ascending
    pivot_rows: List[List[int]] = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        ints = [v.numerator * (scale // v.denominator) for v in row]
        content = gcd(*ints)
        if content > 1:
            ints = [v // content for v in ints]
        for c, prow in zip(pivot_cols, pivot_rows):
            if ints[c]:
                ints = _clear_column(ints, c, prow)
        for lead, v in enumerate(ints):
            if v:
                break
        else:
            continue  # reduced to zero
        i = bisect_left(pivot_cols, lead)
        pivot_cols.insert(i, lead)
        pivot_rows.insert(i, ints)
        if len(pivot_cols) == ncols:
            zero, one = Fraction(0), Fraction(1)
            identity = [[one if j == c else zero for j in range(ncols)] for c in pivot_cols]
            return identity, pivot_cols
    for i in range(len(pivot_cols) - 1, 0, -1):
        c, prow = pivot_cols[i], pivot_rows[i]
        for h in range(i):
            if pivot_rows[h][c]:
                pivot_rows[h] = _clear_column(pivot_rows[h], c, prow)
    reduced = [[Fraction(v, row[c]) for v in row] for row, c in zip(pivot_rows, pivot_cols)]
    return reduced, pivot_cols


def nullspace_gauss_jordan(rows: Matrix, ncols: int) -> List[Vector]:
    """Kernel basis via Gauss-Jordan (``rref``); same normalization as Bareiss."""
    reduced, pivot_cols = rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: List[Vector] = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, col in zip(reduced, pivot_cols):
            vec[col] = -row[f]
        basis.append(normalize_primitive(vec))
    return basis


def rank(rows: Matrix, ncols: int) -> int:
    _, pivot_cols = rref(rows, ncols)
    return len(pivot_cols)


def solve_in_span(
    basis: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Coefficients z with sum_i z_i basis_i = target, or None if outside.

    Solved exactly by eliminating the transposed system.
    """
    n = len(target)
    k = len(basis)
    if k == 0:
        return [] if all(Fraction(v) == 0 for v in target) else None
    rows = [[Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    reduced, pivot_cols = rref(rows, k + 1)
    if k in pivot_cols:
        return None
    coeffs = [Fraction(0)] * k
    for row, col in zip(reduced, pivot_cols):
        coeffs[col] = row[k]
    return coeffs


def same_span(u: Matrix, v: Matrix, ncols: int) -> bool:
    """Whether the rows of u and of v span the same space: their reduced forms agree."""
    return rref(u, ncols) == rref(v, ncols)


def symmetric_signature(matrix: Matrix) -> Tuple[int, int, int]:
    """Signature (pos, neg, zero) of a symmetric matrix over Q.

    Computed by congruence diagonalization; no floating point involved.
    """
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    for i in range(n):
        if m[i][i] == 0:
            swap = None
            for j in range(i + 1, n):
                if m[j][j] != 0:
                    swap = j
                    break
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = None
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        off = j
                        break
                if off is None:
                    continue  # row and column vanish: zero diagonal entry
                for col in range(n):
                    m[i][col] += m[off][col]
                for row in m:
                    row[i] += row[off]
        pivot = m[i][i]
        if pivot == 0:
            continue
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / pivot
                for col in range(n):
                    m[j][col] -= f * m[i][col]
                for row in m:
                    row[j] = row[j] - f * row[i]
    pos = sum(1 for i in range(n) if m[i][i] > 0)
    neg = sum(1 for i in range(n) if m[i][i] < 0)
    zero = n - pos - neg
    return (pos, neg, zero)
