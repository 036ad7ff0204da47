"""Abstract Lie-algebra analysis of a computed symmetry algebra.

Everything here runs over exact rationals: derived series by rank
computations, the center dimension from the rank of the adjoint map, the
Killing form with its signature by Descartes' rule of signs on its exact
characteristic polynomial, and a structural classification with an honest
OTHER bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .solver import SymmetryAlgebra

Vector = Tuple[Fraction, ...]
Table = Tuple[Tuple[Tuple[Fraction, ...], ...], ...]

SL2_PLUS_CENTER = "SL2_PLUS_CENTER"
SOLVABLE_3D_WEIGHTS_K_1 = "SOLVABLE_3D_WEIGHTS_K_1"
AFFINE_LINE_2D = "AFFINE_LINE_2D"
OTHER = "OTHER"


class ClosureViolationError(ValueError):
    """Propagated when the source algebra failed bracket closure."""


class InvalidStructureError(ValueError):
    """Antisymmetry or the Jacobi identity fails for a constants table."""


@dataclass(frozen=True)
class StructureConstants:
    """Table c with [e_i, e_j] = sum_l c[i][j][l] e_l, exact rationals."""

    table: Table

    @property
    def dimension(self) -> int:
        return len(self.table)

    def bracket_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        n = self.dimension
        out = [Fraction(0)] * n
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
        return tuple(out)

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


@dataclass(frozen=True)
class AlgebraProfile:
    """Basis-independent invariants used for classification."""

    dimension: int
    derived_series_dims: Tuple[int, ...]
    center_dim: int
    killing_rank: int
    killing_signature: Tuple[int, int, int]
    is_solvable: bool
    derived_killing_signature: Optional[Tuple[int, int, int]]
    ad_eigenvalue_data: Optional[Tuple[Fraction, ...]]


def _basis_vectors(n: int) -> List[Vector]:
    out = []
    for i in range(n):
        e = [Fraction(0)] * n
        e[i] = Fraction(1)
        out.append(tuple(e))
    return out


def _subspace_brackets(sc: StructureConstants, basis: Sequence[Vector]) -> List[Vector]:
    vecs = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = sc.bracket_vec(basis[i], basis[j])
            if any(w):
                vecs.append(w)
    return vecs


def _derived_series(sc: StructureConstants) -> Tuple[Tuple[int, ...], List[List[Vector]]]:
    n = sc.dimension
    current = _basis_vectors(n)
    dims = [n]
    chain = [current]
    while True:
        brackets = _subspace_brackets(sc, current)
        nxt = linalg.rref(brackets, n)[0]
        dims.append(len(nxt))
        chain.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(current):
            break
        current = nxt
    return tuple(dims), chain


def _center_dim(sc: StructureConstants) -> int:
    # the center is the kernel of z -> ([z, e_j])_j, one row per (j, l)
    n = sc.dimension
    rows = [tuple(sc.table[i][j][l] for i in range(n)) for j in range(n) for l in range(n)]
    return n - linalg.rank(rows, n)


def killing_form(sc: StructureConstants) -> List[List[Fraction]]:
    n = sc.dimension
    killing = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = Fraction(0)
            for p in range(n):
                for l in range(n):
                    total += sc.table[i][p][l] * sc.table[j][l][p]
            killing[i][j] = total
            killing[j][i] = total
    return killing


def restrict_to_subalgebra(
    sc: StructureConstants, basis: Sequence[Vector]
) -> StructureConstants:
    """Constants of a subalgebra in the given basis of it."""
    d = len(basis)
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            w = sc.bracket_vec(basis[i], basis[j])
            coeffs = linalg.solve_in_span(basis, w)
            if coeffs is None:
                raise InvalidStructureError("span is not closed under the bracket")
            table[i][j] = tuple(coeffs)
    return StructureConstants(tuple(tuple(row) for row in table))


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _matrix_eigenvalues(m: List[List[Fraction]]) -> Optional[List[Fraction]]:
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
        return [(tr + root) / 2, (tr - root) / 2]
    return None


def _ad_eigenvalue_data(
    sc: StructureConstants, derived_basis: Sequence[Vector]
) -> Optional[Tuple[Fraction, ...]]:
    """Normalized eigenvalues of ad(h) on an abelian codimension-1 ideal.

    h is any complement vector; shifting h by ideal elements or rescaling it
    changes the eigenvalues by a common factor only, so the data is returned
    scaled to make the smallest-magnitude eigenvalue equal to 1.
    """
    n = sc.dimension
    d = len(derived_basis)
    if d != n - 1 or d == 0 or d > 2:
        return None
    h = next(e for e in _basis_vectors(n) if linalg.solve_in_span(derived_basis, e) is None)
    # [h, e_j] = sum_i table[d][j][i] e_i in the basis derived_basis + [h]
    table = restrict_to_subalgebra(sc, list(derived_basis) + [h]).table
    ad = [[table[d][j][i] for j in range(d)] for i in range(d)]
    eigenvalues = _matrix_eigenvalues(ad)
    if eigenvalues is None or any(v == 0 for v in eigenvalues):
        return None
    smallest = min(eigenvalues, key=abs)
    normalized = sorted((v / smallest for v in eigenvalues), reverse=True)
    return tuple(normalized)


def profile(sc: StructureConstants) -> AlgebraProfile:
    dims, chain = _derived_series(sc)
    is_solvable = dims[-1] == 0
    killing = killing_form(sc)
    signature = linalg.symmetric_signature(killing)
    pos, neg, _ = signature
    derived_basis = chain[1]
    derived_killing_signature = None
    if 0 < len(derived_basis) < sc.dimension:
        derived_sc = restrict_to_subalgebra(sc, derived_basis)
        derived_killing_signature = linalg.symmetric_signature(
            killing_form(derived_sc)
        )
    ad_data = None
    derived_abelian = len(dims) > 2 and dims[2] == 0
    if is_solvable and derived_abelian:
        ad_data = _ad_eigenvalue_data(sc, derived_basis)
    return AlgebraProfile(
        dimension=sc.dimension,
        derived_series_dims=dims,
        center_dim=_center_dim(sc),
        killing_rank=pos + neg,
        killing_signature=signature,
        is_solvable=is_solvable,
        derived_killing_signature=derived_killing_signature,
        ad_eigenvalue_data=ad_data,
    )


@dataclass(frozen=True)
class Classification:
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


def change_basis(sc: StructureConstants, t: Sequence[Sequence[Fraction]]) -> StructureConstants:
    """Constants in the basis f_i = sum_j t[j][i] e_j (t invertible)."""
    n = sc.dimension
    new_basis = [tuple(Fraction(t[j][i]) for j in range(n)) for i in range(n)]
    if linalg.rank(new_basis, n) != n:
        raise ValueError("base change matrix is singular")
    return restrict_to_subalgebra(sc, new_basis)
