"""A certified branch-and-bound upper bound for polynomial maxima over boxes.

``bb_max_bound`` bounds a polynomial on a box by its Bernstein coefficients
(Garloff 1986): written in the tensor Bernstein basis of the box, the
polynomial is a convex combination of basis functions, so its range lies
between the smallest and the largest coefficient, and the coefficients at the
box's corners are its values there. The root box is expanded once; a child box
gets its coefficients from its parent's by de Casteljau subdivision at the
midpoint of the split variable. Coefficients are integers over one common
power-of-two multiple of the root denominator, so every bound is an exact
rational and a certified upper bound. Sample values come from the same forms
(a midpoint weighs coefficient i by C(d, i) / 2^d along each variable).
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import cache
from math import comb, lcm, prod
from typing import Iterator, Mapping, Sequence

from .polynomials import MPoly, Rat, _frac


def _fibres(dims: tuple[int, ...], axis: int) -> Iterator[slice]:
    """Slices of a row-major array with shape ``dims``, one per line along ``axis``."""
    stride = prod(dims[axis + 1:])
    block = dims[axis] * stride
    for outer in range(0, prod(dims), block):
        for r in range(outer, outer + stride):
            yield slice(r, r + block, stride)


@cache
def _sample_points(dims: tuple[int, ...]) -> list[tuple[list[tuple[int, int]], int]]:
    """(index, weight) pairs and a shift per sample point of a box, the midpoint
    and then the corners in itertools.product order: the value at a point is
    sum(weight * coeffs[index]) / (den << shift)."""
    grid = list(itertools.product(*map(range, dims)))  # row-major: position = flat index
    mid = [(f, prod(comb(n - 1, i) for n, i in zip(dims, idx))) for f, idx in enumerate(grid)]
    return [(mid, sum(dims) - len(dims))] + [
        ([(grid.index(tuple(c * (n - 1) for c, n in zip(corner, dims))), 1)], 0)
        for corner in itertools.product((0, 1), repeat=len(dims))]


class BernsteinForm:
    """Bernstein coefficients of a polynomial on a box.

    ``coeffs`` is a row-major array of integers with shape ``dims`` (one more
    than the polynomial's degree in each box variable, in box order); the
    coefficients are ``coeffs[i] / den``.
    """

    __slots__ = ("coeffs", "dims", "den")

    def __init__(self, coeffs: list[int], dims: tuple[int, ...], den: int):
        self.coeffs = coeffs
        self.dims = dims
        self.den = den

    @classmethod
    def expand(cls, poly: MPoly, box: Mapping[str, tuple[Rat, Rat]]) -> "BernsteinForm":
        """Coefficients of ``poly`` on ``box``, whose keys name every variable
        ``poly`` uses."""
        for v, (lo, hi) in box.items():  # x = lo + (hi - lo) x' maps [0, 1] onto [lo, hi]
            poly = poly.substitute(v, lo + (hi - lo) * MPoly.var(v))
        poly = poly._pruned()._embed(tuple(box))
        dims = tuple(max((e[i] for e in poly.terms), default=0) + 1 for i in range(len(box)))
        a = [Fraction(0)] * prod(dims)
        for e, c in poly.terms.items():
            a[sum(p * prod(dims[i + 1:]) for i, p in enumerate(e))] = c
        for axis, n in enumerate(dims):  # power to Bernstein: b_k = sum_j C(k,j)/C(n-1,j) a_j
            for sl in _fibres(dims, axis):
                row = a[sl]
                a[sl] = [sum(Fraction(comb(k, j), comb(n - 1, j)) * row[j] for j in range(k + 1))
                         for k in range(n)]
        den = lcm(*(c.denominator for c in a))
        return cls([c.numerator * (den // c.denominator) for c in a], dims, den)

    def sample(self, k: int) -> Fraction:
        """The polynomial's value at sample point k of the box: 0 is the
        midpoint, and k >= 1 the corners in ``itertools.product`` order."""
        terms, shift = _sample_points(self.dims)[k]
        return Fraction(sum(w * self.coeffs[i] for i, w in terms), self.den << shift)

    def halves(self, axis: int) -> tuple["BernsteinForm", "BernsteinForm"]:
        """Coefficients on the two halves of the box split at the midpoint of
        variable ``axis`` (de Casteljau at 1/2 along that axis)."""
        d = self.dims[axis] - 1
        left, right = list(self.coeffs), list(self.coeffs)
        for sl in _fibres(self.dims, axis):
            row = self.coeffs[sl]
            lo_part, hi_part = [], []
            for k in range(d + 1):
                # row holds level-k pair sums, 2^k times the de Casteljau points
                lo_part.append(row[0] << (d - k))
                hi_part.append(row[-1] << (d - k))
                row = [x + y for x, y in zip(row, row[1:])]
            left[sl] = lo_part
            right[sl] = hi_part[::-1]
        den = self.den << d
        return BernsteinForm(left, self.dims, den), BernsteinForm(right, self.dims, den)


class BBResult:
    __slots__ = ("upper", "conclusive", "boxes", "empty")

    def __init__(self, upper: Fraction, conclusive: bool, boxes: int, empty: bool = False):
        self.upper = upper              # certified upper bound on the max over the region
        self.conclusive = conclusive    # upper - best sample value <= tol within budget
        self.boxes = boxes
        self.empty = empty              # every box was discarded: the region is infeasible


def bb_max_bound(poly: MPoly, box: Mapping[str, tuple[Rat, Rat]], tol: Rat,
                 constraints: Sequence[MPoly] = (),
                 max_boxes: int = 200_000) -> BBResult:
    """Certified upper bound on max of ``poly`` over box ∩ {g <= 0 for g in constraints}.

    Returns U with U >= true max always; when ``conclusive`` also
    U - true max <= tol. Constraints are polynomials required to be <= 0.
    When some constraint is > 0 on every box, the region is empty: the
    result has ``empty`` set, with upper = 0 and ``conclusive`` false.

    Each box is bounded by the largest Bernstein coefficient of ``poly`` on
    it. A constraint whose smallest coefficient is > 0 discards the box; one
    whose largest coefficient is <= 0 holds on the whole box and is not looked
    at again inside it; boxes straddling the boundary are bounded over their
    whole extent (sound). The box with the largest bound is split at the
    midpoint of its widest variable, and the children's coefficients come
    from de Casteljau subdivision of the parent's. The midpoint and corners of
    each box are sampled for the lower bound ``sample_max``, in the forms.
    """
    tol = _frac(tol)
    sample_max: Fraction | None = None
    heap: list[tuple[float, int, Fraction, tuple]] = []
    counter = itertools.count()

    def push(b: list[tuple[Fraction, Fraction]], form: BernsteinForm, active) -> None:
        # active: the forms of the constraints not known to hold on b
        nonlocal sample_max
        straddling = []
        for g_form in active:
            if min(g_form.coeffs) > 0:
                return
            if max(g_form.coeffs) > 0:
                straddling.append(g_form)
        ub = Fraction(max(form.coeffs), form.den)
        for k in range(1 + 2 ** len(b)):  # the midpoint, then the corners
            if all(g_form.sample(k) <= 0 for g_form in straddling):
                val = form.sample(k)
                if sample_max is None or val > sample_max:
                    sample_max = val
                break
        heapq.heappush(heap, (-float(ub), next(counter), ub, (b, form, straddling)))

    push([(_frac(lo), _frac(hi)) for lo, hi in box.values()], BernsteinForm.expand(poly, box),
         [BernsteinForm.expand(g, box) for g in constraints])
    boxes = 1
    while heap:
        _, _, ub, (b, form, active) = heap[0]
        if sample_max is not None and ub - sample_max <= tol:
            return BBResult(ub, True, boxes)
        if boxes >= max_boxes:
            return BBResult(ub, False, boxes)
        heapq.heappop(heap)
        axis = max(range(len(b)), key=lambda i: b[i][1] - b[i][0])
        lo, hi = b[axis]
        mid = (lo + hi) / 2
        halves = [f.halves(axis) for f in (form, *active)]
        for side, part in enumerate(((lo, mid), (mid, hi))):
            child = list(b)
            child[axis] = part
            push(child, halves[0][side], [h[side] for h in halves[1:]])
            boxes += 1
    # heap empty: the whole region was infeasible
    return BBResult(Fraction(0), False, boxes, empty=True)
