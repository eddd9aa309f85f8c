"""Exact rational matrices as plain row lists: determinants via fraction-free
elimination and the leading-principal-minor positive-definiteness test used
by the certificates."""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

from .polynomials import Rat, _frac, bareiss_det


def _square(rows: Sequence[Sequence[Rat]]) -> list[list[Fraction]]:
    """rows as Fractions; ValueError unless they form a square matrix."""
    m = [[_frac(x) for x in r] for r in rows]
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    if any(len(r) != len(m) for r in m):
        raise ValueError("square matrix needed")
    return m


def det(rows: Sequence[Sequence[Rat]]) -> Fraction:
    """Determinant by Bareiss fraction-free elimination (exact); 1 when empty."""
    m = _square(rows)
    return bareiss_det(m, operator.truediv) if m else Fraction(1)


def psd_check(rows: Sequence[Sequence[Rat]]) -> bool:
    """True iff the matrix is symmetric with all leading principal minors > 0.

    This certifies strict positive definiteness, which is sufficient for every
    positive-semidefiniteness claim the certificates rely on.
    """
    m = _square(rows)
    if any(m[i][j] != m[j][i] for i in range(len(m)) for j in range(i + 1, len(m))):
        return False
    return all(det([r[:k] for r in m[:k]]) > 0 for k in range(1, len(m) + 1))
