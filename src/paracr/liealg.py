"""Abstract Lie-algebra analysis of a computed symmetry algebra.

Everything here runs over exact rationals, each an ``int`` where integral
and a ``Fraction`` only where not (``poly.exact``); the structure constants
of the computed algebras are integers in practice, so brackets, the Killing
form and the grading eigenvalues run on ints.  The derived series comes
from rank computations, the center dimension from the rank of the adjoint
map, the Killing form's signature from Descartes' rule of signs on its
exact characteristic polynomial, and the classification is structural,
with an honest OTHER bucket.  The derived algebra's invariants are read off
that Killing form and off its RREF pivots, without re-expressing any
subalgebra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .poly import Rational, exact
from .solver import SymmetryAlgebra

Vector = Tuple[Rational, ...]
Table = Tuple[Tuple[Vector, ...], ...]

SL2_PLUS_CENTER = "SL2_PLUS_CENTER"
SOLVABLE_3D_WEIGHTS_K_1 = "SOLVABLE_3D_WEIGHTS_K_1"
AFFINE_LINE_2D = "AFFINE_LINE_2D"
OTHER = "OTHER"


class ClosureViolationError(ValueError):
    """Propagated when the source algebra failed bracket closure."""


class InvalidStructureError(ValueError):
    """Antisymmetry or the Jacobi identity fails for a constants table."""


class StructureConstants(NamedTuple):
    """Table c with [e_i, e_j] = sum_l c[i][j][l] e_l, exact rationals."""

    table: Table

    @property
    def dimension(self) -> int:
        return len(self.table)

    def bracket_vec(self, u: Sequence[Rational], v: Sequence[Rational]) -> Vector:
        n = self.dimension
        out: List[Rational] = [0] * n
        for i in range(n):
            if u[i] == 0:
                continue
            for j in range(n):
                if v[j] == 0:
                    continue
                uv = u[i] * v[j]
                row = self.table[i][j]
                for l in range(n):
                    if row[l]:
                        out[l] += uv * row[l]
        return tuple(map(exact, out))

    def validate(self) -> None:
        n = self.dimension
        table = self.table
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    if table[i][j][l] != -table[j][i][l]:
                        raise InvalidStructureError(
                            f"antisymmetry fails at ({i},{j},{l})"
                        )
        # given antisymmetry the Jacobi sum is alternating in (i, j, l), zero on a
        # repeated index and odd under a swap, so the triples i < j < l decide it
        basis = _basis_vectors(n)
        for i, j, l in combinations(range(n), 3):
            lhs = self.bracket_vec(table[i][j], basis[l])
            mid = self.bracket_vec(table[j][l], basis[i])
            rhs = self.bracket_vec(table[l][i], basis[j])
            if any(p + q + r != 0 for p, q, r in zip(lhs, mid, rhs)):
                raise InvalidStructureError(
                    f"Jacobi identity fails on basis triple ({i},{j},{l})"
                )


def structure_constants(algebra: SymmetryAlgebra) -> StructureConstants:
    """Re-expression of a symmetry algebra as an abstract constants table."""
    if algebra.closure_violations:
        detail = "; ".join(v.describe() for v in algebra.closure_violations)
        raise ClosureViolationError(f"algebra failed closure: {detail}")
    sc = StructureConstants(algebra.structure_constants)
    sc.validate()
    return sc


class AlgebraProfile(NamedTuple):
    """Basis-independent invariants used for classification."""

    dimension: int
    derived_series_dims: Tuple[int, ...]
    center_dim: int
    killing_rank: int
    killing_signature: Tuple[int, int, int]
    is_solvable: bool
    derived_killing_signature: Optional[Tuple[int, int, int]]
    ad_eigenvalue_data: Optional[Vector]


def _basis_vectors(n: int) -> List[Vector]:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _subspace_brackets(sc: StructureConstants, basis: Sequence[Vector]) -> List[Vector]:
    vecs = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = sc.bracket_vec(basis[i], basis[j])
            if any(w):
                vecs.append(w)
    return vecs


def _derived_series(sc: StructureConstants) -> Tuple[Tuple[int, ...], List[Vector], List[int]]:
    """Derived-series dimensions, with the RREF basis of [g, g] and its pivot columns."""
    n = sc.dimension
    derived, pivots = linalg.rref(_subspace_brackets(sc, _basis_vectors(n)), n)
    dims = [n, len(derived)]
    current = derived
    while 0 < len(current) < dims[-2]:
        current = linalg.rref(_subspace_brackets(sc, current), n)[0]
        dims.append(len(current))
    return tuple(dims), derived, pivots


def _center_dim(sc: StructureConstants) -> int:
    # the center is the kernel of z -> ([z, e_j])_j, one row per (j, l)
    n = sc.dimension
    rows = [tuple(sc.table[i][j][l] for i in range(n)) for j in range(n) for l in range(n)]
    return n - linalg.rank(rows, n)


def killing_form(sc: StructureConstants) -> List[List[Rational]]:
    """K(e_i, e_j) = tr(ad e_i ad e_j) = sum over p, l of c[i][p][l] c[j][l][p].

    Each table slice c[i] is laid out once flat, as the row (c[i][p][l]) in
    (p, l) order, and once transposed, as the column (c[i][l][p]) in the same
    order, so each entry is one row-column product, ``sum(map(mul, ...))``.
    """
    n = sc.dimension
    rows = [[c for row in block for c in row] for block in sc.table]
    columns = [[c for column in zip(*block) for c in column] for block in sc.table]
    killing: List[List[Rational]] = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            killing[i][j] = killing[j][i] = exact(sum(map(mul, rows[i], columns[j])))
    return killing


def _rational_sqrt(q: Rational) -> Optional[Rational]:
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return exact(Fraction(rn, rd))
    return None


def _matrix_eigenvalues(m: List[List[Rational]]) -> Optional[List[Rational]]:
    # exact rational eigenvalues for sizes 1 and 2 only
    if len(m) == 1:
        return [m[0][0]]
    if len(m) == 2:
        tr = m[0][0] + m[1][1]
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        disc = tr * tr - 4 * det
        root = _rational_sqrt(disc)
        if root is None:
            return None
        return [exact(Fraction(tr + root, 2)), exact(Fraction(tr - root, 2))]
    return None


def _ad_eigenvalue_data(
    sc: StructureConstants, derived_basis: Sequence[Vector], pivots: Sequence[int]
) -> Optional[Vector]:
    """Normalized eigenvalues of ad(h) on an abelian codimension-1 ideal D.

    A vector of D has coordinate v[pivots[i]] along the RREF row
    derived_basis[i], so the unit vector of a non-pivot column lies outside D
    and serves as h.  Shifting h by ideal elements or rescaling it changes the
    eigenvalues by a common factor only, so the data is returned scaled to
    make the smallest-magnitude eigenvalue equal to 1.
    """
    n = sc.dimension
    d = len(derived_basis)
    if d != n - 1 or d == 0 or d > 2:
        return None
    h = _basis_vectors(n)[next(c for c in range(n) if c not in pivots)]
    images = [sc.bracket_vec(h, b) for b in derived_basis]
    ad = [[images[j][pivots[i]] for j in range(d)] for i in range(d)]
    eigenvalues = _matrix_eigenvalues(ad)
    if eigenvalues is None or any(v == 0 for v in eigenvalues):
        return None
    smallest = min(eigenvalues, key=abs)
    normalized = sorted((exact(Fraction(v, smallest)) for v in eigenvalues), reverse=True)
    return tuple(normalized)


def profile(sc: StructureConstants) -> AlgebraProfile:
    """Invariants of the algebra, with one Killing form K and no re-expressed subalgebra.

    D = [g, g] is spanned by brackets, so [g, D] lies in D: D is an ideal, and
    its Killing form is K restricted to D (Humphreys, Introduction to Lie
    Algebras and Representation Theory, 5.1), B K B^T for D's basis rows B.
    """
    n = sc.dimension
    dims, derived, pivots = _derived_series(sc)
    is_solvable = dims[-1] == 0
    killing = killing_form(sc)
    signature = linalg.symmetric_signature(killing)
    pos, neg, _ = signature
    derived_killing_signature = None
    if 0 < len(derived) < n:
        # the rows K b for D's basis rows b, then B K B^T; zero products are skipped
        kb = [[sum(x * y for x, y in zip(row, b) if x and y) for row in killing] for b in derived]
        derived_killing_signature = linalg.symmetric_signature(
            [[sum(x * y for x, y in zip(u, v) if x and y) for v in kb] for u in derived]
        )
    ad_data = None
    if len(dims) > 2 and dims[2] == 0:  # D is abelian, so g is solvable
        ad_data = _ad_eigenvalue_data(sc, derived, pivots)
    return AlgebraProfile(
        dimension=n,
        derived_series_dims=dims,
        center_dim=_center_dim(sc),
        killing_rank=pos + neg,
        killing_signature=signature,
        is_solvable=is_solvable,
        derived_killing_signature=derived_killing_signature,
        ad_eigenvalue_data=ad_data,
    )


class Classification(NamedTuple):
    label: str
    profile: AlgebraProfile


def classify(p: AlgebraProfile) -> Classification:
    """Structural pattern match onto the three expected shapes, else OTHER."""
    if (
        p.dimension == 4
        and not p.is_solvable
        and p.center_dim == 1
        and len(p.derived_series_dims) > 1
        and p.derived_series_dims[1] == 3
        and p.derived_killing_signature == (2, 1, 0)
    ):
        return Classification(SL2_PLUS_CENTER, p)
    if (
        p.dimension == 3
        and p.is_solvable
        and tuple(p.derived_series_dims[:3]) == (3, 2, 0)
        and p.ad_eigenvalue_data is not None
        and len(p.ad_eigenvalue_data) == 2
        and p.ad_eigenvalue_data[1] == 1
        and p.ad_eigenvalue_data[0] > 1
    ):
        return Classification(SOLVABLE_3D_WEIGHTS_K_1, p)
    if (
        p.dimension == 2
        and len(p.derived_series_dims) > 1
        and p.derived_series_dims[1] == 1
    ):
        return Classification(AFFINE_LINE_2D, p)
    return Classification(OTHER, p)
