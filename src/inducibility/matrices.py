"""Exact rational matrices: determinants via fraction-free elimination and the
leading-principal-minor positive-definiteness test used by the certificates."""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .polynomials import Rat, _frac, bareiss_det


class RationalMatrix:
    """Dense square-or-rectangular matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Rat]]):
        self.rows = tuple(tuple(_frac(x) for x in r) for r in rows)
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged matrix")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.n == self.m

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(self.rows[i][j] == self.rows[j][i]
                   for i in range(self.n) for j in range(i + 1, self.n))

    def submatrix(self, k: int) -> "RationalMatrix":
        return RationalMatrix([r[:k] for r in self.rows[:k]])

    def det(self) -> Fraction:
        """Determinant by Bareiss fraction-free elimination (exact)."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        if self.n == 0:
            return Fraction(1)
        return bareiss_det(self.rows, operator.truediv)

    def leading_minors(self) -> list[Fraction]:
        return [self.submatrix(k).det() for k in range(1, self.n + 1)]


def psd_check(m: RationalMatrix) -> bool:
    """True iff the matrix is symmetric with all leading principal minors > 0.

    This certifies strict positive definiteness, which is sufficient for every
    positive-semidefiniteness claim the certificates rely on.
    """
    if not m.is_square():
        raise ValueError("psd_check needs a square matrix")
    if not m.is_symmetric():
        return False
    return all(d > 0 for d in m.leading_minors())
