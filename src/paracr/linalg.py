"""Exact rational linear algebra: kernels, rank, span solves, signatures.

Entries are exact rationals in ``poly``'s one form, an ``int`` where the
value is integral and a ``Fraction`` only where it is not, and so is every
value returned: kernel vectors are primitive integer tuples, and reduced
rows and span coefficients are ints except where a pivot leaves a fraction.

Two independent kernel routines are provided on purpose.  The main path
scales rows to integers and runs fraction-free (Bareiss) elimination with
partial pivoting on pivot magnitude, which avoids rational blow-up during
elimination.  ``nullspace_modular`` puts a rank test mod one fixed prime in
front of it, on sparse rows (each row the list of its (column, value) pairs,
which suits the mostly-zero per-weight tangency systems): rank mod p never
exceeds the rank over Q, so full rank mod p proves the kernel is {0};
otherwise Bareiss runs on every row.  ``kernel_normal_form`` reads Bareiss's
basis off any spanning set of a kernel.
The second path is a Gauss-Jordan reduction to reduced row echelon form
(``rref``), run over integers one row at a time: each row is cleared of
denominators, divided by its content and reduced against the pivot rows
found so far with gcd-reduced multipliers.  A row that reduces to zero is
dropped, and the reduction stops as soon as every column has a pivot, since
the reduced form is then the identity; otherwise one back-substitution pass
clears above the pivots, which ``rank`` skips.  ``rref`` serves the span
solves and the Lie invariants, and ``nullspace_gauss_jordan`` built on it is
the tests' independent cross-check of Bareiss: it shares no helper with it,
uses no modular arithmetic and never divides by the previous pivot.
Signatures of symmetric matrices come from Descartes' rule of signs on the
exact characteristic polynomial.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import Rational, exact
from .sturm import sign_variations

Vector = Tuple[Rational, ...]
Matrix = Sequence[Sequence[Rational]]
SparseRow = Sequence[Tuple[int, Rational]]  # a row's (column, value) pairs

_PRIME = 2**61 - 1


def _row_to_int(row: Sequence[Rational]) -> List[int]:
    # int and Fraction entries alike: scale numerators to the common denominator
    denom = lcm(*(v.denominator for v in row))
    return [v.numerator * (denom // v.denominator) for v in row]


def normalize_primitive(vec: Sequence[Rational]) -> Tuple[int, ...]:
    """Scale to a primitive integer vector whose first nonzero entry is > 0."""
    ints = _row_to_int(vec)
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


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
        vec: List[Rational] = [0] * ncols
        vec[f] = 1
        for row, col in reversed(pivots):
            s = 0
            for j in range(col + 1, ncols):
                if vec[j]:
                    s += m[row][j] * vec[j]
            vec[col] = Fraction(-s, m[row][col])
        basis.append(normalize_primitive(vec))
    return basis


def nullspace_modular(rows: Sequence[SparseRow], ncols: int) -> List[Vector]:
    """The basis ``nullspace_bareiss`` returns on the dense rows, via rank mod p.

    Each row is a sparse row: its (column, value) pairs, in any order, with int
    or Fraction values; a zero value is allowed and adds nothing.  Rows are read
    shortest first, each scaled to integers by the lcm of its denominators only
    when read, and reduced modulo ``_PRIME`` against a sparse echelon keyed by
    pivot column, whose rows hold the pairs right of their pivot scaled so that
    the pivot is 1 (a row of one entry needs no inverse).  Rank mod p never
    exceeds the rank over Q, so rank ``ncols`` mod p proves the kernel is {0}:
    ``[]`` is returned before any later row is read.  Otherwise
    ``nullspace_bareiss`` runs on every row, made dense.
    """
    p = _PRIME
    echelon: Dict[int, List[Tuple[int, int]]] = {}  # pivot column -> pairs right of it
    for row in sorted(rows, key=len):
        denom = lcm(*(v.denominator for _, v in row))
        red = {j: v.numerator * (denom // v.denominator) % p for j, v in row if v}
        while red:
            c = min(red)
            v = red.pop(c)
            if not v:
                continue
            tail = echelon.get(c)
            if tail is None:
                inv = pow(v, -1, p) if red else 1
                echelon[c] = [(j, w * inv % p) for j, w in red.items() if w]
                break
            for j, w in tail:
                red[j] = (red.get(j, 0) - v * w) % p
        if len(echelon) == ncols:
            return []
    return nullspace_bareiss([[dict(row).get(j, 0) for j in range(ncols)] for row in rows], ncols)


def kernel_normal_form(kernel: Sequence[Sequence[Rational]], ncols: int) -> List[Vector]:
    """The basis ``nullspace_bareiss`` returns on any matrix whose kernel the
    vectors of ``kernel`` span, read off the kernel alone.

    Column f is free in Bareiss, outside the lex-first column basis, exactly
    when some kernel vector has its last nonzero entry at f, so the free
    columns are the pivots of the kernel's echelon form taken from the right.
    Bareiss's vector for f is the kernel vector that is zero on every other
    free column: the row of pivot f in the RREF of the kernel with its columns
    reversed, read back in column order and made primitive.  Vectors come in
    ascending free column.
    """
    reduced, _ = rref([vec[::-1] for vec in kernel], ncols)
    return [normalize_primitive(row[::-1]) for row in reversed(reduced)]


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


def _echelon(rows: Iterable[Sequence[Rational]], ncols: int) -> Tuple[List[int], List[List[int]]]:
    # rref's elimination below the pivots, all ``rank`` needs: (ascending pivot columns, rows)
    pivot_cols: List[int] = []
    pivot_rows: List[List[int]] = []
    for row in rows:
        ints = _row_to_int(row)
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
            break
    return pivot_cols, pivot_rows


def rref(rows: Iterable[Sequence[Rational]], ncols: int) -> Tuple[List[List[Rational]], List[int]]:
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
    clears each pivot column in the pivot rows above it, and the final rows
    are divided by their pivots, each entry an int where integral and a
    Fraction where not.  The reduced form is unique, so the result does not
    depend on the order of the rows.
    """
    pivot_cols, pivot_rows = _echelon(rows, ncols)
    if len(pivot_cols) == ncols:
        return [[int(j == c) for j in range(ncols)] for c in pivot_cols], pivot_cols
    for i in range(len(pivot_cols) - 1, 0, -1):
        c, prow = pivot_cols[i], pivot_rows[i]
        for h in range(i):
            if pivot_rows[h][c]:
                pivot_rows[h] = _clear_column(pivot_rows[h], c, prow)
    reduced = [[exact(Fraction(v, row[c])) for v in row] for row, c in zip(pivot_rows, pivot_cols)]
    return reduced, pivot_cols


def nullspace_gauss_jordan(rows: Matrix, ncols: int) -> List[Vector]:
    """Kernel basis via Gauss-Jordan (``rref``); same normalization as Bareiss."""
    reduced, pivot_cols = rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis: List[Vector] = []
    for f in free_cols:
        vec = [0] * ncols
        vec[f] = 1
        for row, col in zip(reduced, pivot_cols):
            vec[col] = -row[f]
        basis.append(normalize_primitive(vec))
    return basis


def rank(rows: Matrix, ncols: int) -> int:
    return len(_echelon(rows, ncols)[0])


def solve_in_span(
    basis: Sequence[Sequence[Rational]], target: Sequence[Rational]
) -> Optional[List[Rational]]:
    """Coefficients z with sum_i z_i basis_i = target, or None if outside.

    Solved exactly by eliminating the transposed system.
    """
    n = len(target)
    k = len(basis)
    if k == 0:
        return [] if not any(target) else None
    rows = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    reduced, pivot_cols = rref(rows, k + 1)
    if k in pivot_cols:
        return None
    coeffs: List[Rational] = [0] * k
    for row, col in zip(reduced, pivot_cols):
        coeffs[col] = row[k]
    return coeffs


def symmetric_signature(matrix: Matrix) -> Tuple[int, int, int]:
    """Signature (pos, neg, zero) of a symmetric matrix over Q.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of signs
    on its characteristic polynomial p counts the positive ones exactly, and
    on p(-t) the negative ones.  p is computed by Faddeev-LeVerrier on the
    matrix scaled to integers, a positive scaling that keeps the signature:
    with M_0 = 0, M_i = A M_(i-1) + c_(n-i+1) I and c_(n-i) = -tr(A M_i) / i,
    where c_n = 1 and every c is an integer, so each division is exact.
    """
    n = len(matrix)
    flat = _row_to_int([v for row in matrix for v in row])
    a = [flat[r * n : (r + 1) * n] for r in range(n)]
    coeffs = [1]  # c_n, c_(n-1), ..., c_0
    m = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        m = [[sum(a[r][t] * m[t][c] for t in range(n)) for c in range(n)] for r in range(n)]
        for r in range(n):
            m[r][r] += coeffs[-1]
        trace = sum(a[r][t] * m[t][r] for r in range(n) for t in range(n))
        coeffs.append(-trace // i)
    pos = sign_variations(coeffs)
    neg = sign_variations([c if (n - d) % 2 == 0 else -c for d, c in enumerate(coeffs)])
    return (pos, neg, n - pos - neg)
