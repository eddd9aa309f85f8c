"""Exact rational matrices as plain row lists: one integer Bareiss
elimination, of the rows cleared of their denominators, gives determinants
(also those that ``polynomials.resultant`` interpolates) and the
leading-principal-minor positive-definiteness test of the certificates."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .polynomials import Rat, _frac


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Bareiss fraction-free elimination of a square integer matrix: its
    pivots and the number of row swaps (every division is exact). Pivot k is
    the leading (k + 1)-minor of the swapped matrix, so the last pivot times
    (-1)^swaps is the determinant; a column with no nonzero entry left ends
    the elimination with pivot 0."""
    n = len(rows)
    a = [list(r) for r in rows]
    pivots: list[int] = []
    swaps, prev = 0, 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if i is None:
                return pivots + [0], swaps
            a[k], a[i] = a[i], a[k]
            swaps += 1
        pivot, row_k = a[k][k], a[k]
        pivots.append(pivot)
        for row in a[k + 1:]:
            m = row[k]
            row[k + 1:] = [(pivot * x - m * y) // prev
                           for x, y in zip(row[k + 1:], row_k[k + 1:])]
        prev = pivot
    return pivots, swaps


def _integer_rows(rows: Sequence[Sequence[Rat]]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of these
    positive row scales; ValueError unless the rows form a square matrix."""
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("square matrix needed")
    out, scale = [], 1
    for r in rows:
        r = [_frac(x) for x in r]
        s = lcm(*(x.denominator for x in r))
        out.append([x.numerator * (s // x.denominator) for x in r])
        scale *= s
    return out, scale


def det(rows: Sequence[Sequence[Rat]]) -> Fraction:
    """Determinant: the signed last Bareiss pivot over the row scales (exact);
    1 when empty."""
    ints, scale = _integer_rows(rows)
    if not ints:
        return Fraction(1)
    pivots, swaps = _bareiss(ints)
    return Fraction(-pivots[-1] if swaps % 2 else pivots[-1], scale)


def psd_check(rows: Sequence[Sequence[Rat]]) -> bool:
    """True iff the matrix is symmetric with all leading principal minors > 0:
    no Bareiss row swap (a swap follows a zero minor) and every pivot, a minor
    times positive row scales, > 0. This certifies strict positive
    definiteness, sufficient for every positive-semidefiniteness claim the
    certificates rely on."""
    ints, _ = _integer_rows(rows)
    n = len(rows)
    if any(_frac(rows[i][j]) != _frac(rows[j][i]) for i in range(n) for j in range(i + 1, n)):
        return False
    pivots, swaps = _bareiss(ints)
    return not swaps and all(p > 0 for p in pivots)
