"""The partite limit space: finite-support vectors x_1 >= x_2 >= ... > 0 with
sum <= 1 and clique mass x_0 = 1 - sum, their n-vertex realisations,
elementary symmetric polynomials, the draw-multiset sampling kernel
(draw_sum) and the exact sampling value lambda(x) as its expectation, the
closed-form complete partite densities, exact counts of complete partite
patterns inside complete partite hosts, and the limit edit distance.

The sampling model: draw k independent indices with P(i) = x_i (0 for the
clique), and join two draws iff their indices differ or both are 0. Every
pattern arising this way is complete partite, which is what makes the closed
form and the fast partition-keyed evaluation possible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .graphs import CompletePartiteShape, Graph, PartiteStructure
from .objectives import ObjectiveSpec
from .polynomials import MPoly, Rat, _frac


class PartiteVector:
    """Finite-support element of the partite limit space (exact rationals)."""

    __slots__ = ("parts", "x0")

    def __init__(self, parts: Iterable[Rat] = (), *, sort: bool = False):
        ps = [_frac(p) for p in parts]
        if sort:
            ps.sort(reverse=True)
        if any(p <= 0 for p in ps):
            raise ValueError("parts must be strictly positive")
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValueError("parts must be non-increasing")
        s = sum(ps, Fraction(0))
        if s > 1:
            raise ValueError("parts sum exceeds 1")
        self.parts: tuple[Fraction, ...] = tuple(ps)
        self.x0: Fraction = 1 - s

    @classmethod
    def zero(cls) -> "PartiteVector":
        return cls(())

    @classmethod
    def uniform(cls, r: int) -> "PartiteVector":
        return cls([Fraction(1, r)] * r)

    @property
    def support(self) -> tuple[int, ...]:
        """Indices 1..m of the positive parts."""
        return tuple(range(1, len(self.parts) + 1))

    @property
    def supp_star(self) -> tuple[int, ...]:
        """Support plus index 0 iff the clique mass is positive."""
        if self.x0 > 0:
            return (0,) + self.support
        return self.support

    def entry(self, i: int) -> Fraction:
        if i == 0:
            return self.x0
        return self.parts[i - 1]

    def draw_weights(self) -> dict[int, Fraction]:
        """The draw probabilities {i: x_i} over supp*."""
        return {i: self.entry(i) for i in self.supp_star}

    def min_entry(self) -> Fraction:
        """min over supp*: the beta of a beta-separated vector."""
        return min(self.entry(i) for i in self.supp_star)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartiteVector) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"PartiteVector({list(map(str, self.parts))}, x0={self.x0})"

    # -- JSON format: {"x0": "2/5", "parts": ["3/5"]} --------------------------

    def to_json(self) -> str:
        return json.dumps({"x0": str(self.x0), "parts": [str(p) for p in self.parts]})

    @classmethod
    def from_json(cls, text: str) -> "PartiteVector":
        obj = json.loads(text)
        parts = [Fraction(p) for p in obj.get("parts", [])]
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("vector JSON: parts must be sorted non-increasing")
        v = cls(parts)
        if "x0" in obj and Fraction(obj["x0"]) != v.x0:
            raise ValueError("vector JSON: x0 inconsistent with parts")
        return v


@dataclass(frozen=True)
class SymmetricIndex:
    exponents: tuple[int, ...]
    excluded: frozenset[int] = frozenset()

    def __post_init__(self):
        if any(d <= 0 for d in self.exponents):
            raise ValueError("exponents must be positive")


def elementary_symmetric(x: PartiteVector, idx: SymmetricIndex) -> Fraction:
    """S^I_d(x): sum over distinct part indices outside I of prod x_{i_j}^{d_j}."""
    allowed = [p for i, p in enumerate(x.parts, start=1) if i not in idx.excluded]
    return _sym_sum(allowed, idx.exponents)


def _sym_sum(values: Sequence, exponents: Sequence[int]):
    """Sum over ordered tuples of distinct positions of prod v^d (generic ring)."""
    t = len(exponents)
    if t == 0:
        return Fraction(1)
    m = len(values)
    if m < t:
        return Fraction(0)
    total = Fraction(0)
    for tup in itertools.permutations(range(m), t):
        prod = Fraction(1)
        for pos, d in zip(tup, exponents):
            prod = prod * values[pos] ** d
        total = total + prod
    return total


def sym_coefficient(a: Sequence[int]) -> Fraction:
    """1 / prod(multiplicity!) over the distinct values of the partition."""
    denom = 1
    for v in set(a):
        denom *= factorial(list(a).count(v))
    return Fraction(1, denom)


# ---------------------------------------------------------------------------
# Realisations
# ---------------------------------------------------------------------------

def realisation_shape(n: int, x: PartiteVector) -> CompletePartiteShape:
    """Part sizes of the n-vertex realisation of x.

    With no clique mass, largest-remainder rounding keeps every size within 1
    of x_i*n; with clique mass, parts with x_i*n >= 2 get floor(x_i*n) and all
    remaining vertices become universal singletons.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return CompletePartiteShape(sizes=[s for s in _part_sizes(n, x) if s > 0],
                                counts=[(1, n - sum(_part_sizes(n, x)))])


def _part_sizes(n: int, x: PartiteVector) -> list[int]:
    if x.x0 == 0:
        base = [int(p * n) for p in x.parts]
        rem = n - sum(base)
        fracs = sorted(range(len(x.parts)),
                       key=lambda i: (-(x.parts[i] * n - base[i]), i))
        for i in fracs[:rem]:
            base[i] += 1
        return base
    return [int(p * n) if p * n >= 2 else 0 for p in x.parts]


class RealisedPartite:
    """A concrete realisation; the Graph is materialised on first use only,
    so profile-enumeration consumers work at any n."""

    __slots__ = ("structure", "vector", "_graph")

    def __init__(self, structure: PartiteStructure, vector: PartiteVector):
        self.structure = structure
        self.vector = vector
        self._graph: Optional[Graph] = None

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = self.structure.graph()
        return self._graph


def realise(n: int, x: PartiteVector) -> RealisedPartite:
    """Concrete realisation with parts laid out in index order, clique last."""
    sizes = _part_sizes(n, x)
    parts = []
    pos = 0
    for s in sizes:
        parts.append(tuple(range(pos, pos + s)))
        pos += s
    v0 = tuple(range(pos, n))
    structure = PartiteStructure(tuple(parts), v0)
    return RealisedPartite(structure, x)


# ---------------------------------------------------------------------------
# The sampling kernel and lambda(x) as its expectation
# ---------------------------------------------------------------------------

def _multinomial(k: int, counts: Iterable[int]) -> int:
    num = factorial(k)
    for c in counts:
        num //= factorial(c)
    return num


def draw_sum(k: int, weights: Mapping[int, object], term: Callable[[dict], object]):
    """Expectation of term(counts) over k independent draws from weights.

    Enumerates the multisets of k draws over the keys of weights; counts maps
    each drawn key, in ascending order, to its repeat count. A nonzero term
    contributes multinomial(k; counts) * prod weights[i]**c * term, so free
    (unnormalised) weights give the homogeneous degree-k free form. Generic
    in the weight ring (Fraction, float, MPoly) and in the term ring
    (scalars, or UPoly in alpha); an empty sum is Fraction(0).
    """
    keys = sorted(weights)
    if len(keys) ** k > 10**7:
        raise ValueError("support too large for exact enumeration")
    total = None
    for multi in itertools.combinations_with_replacement(keys, k):
        counts: dict[int, int] = {}
        for i in multi:
            counts[i] = counts.get(i, 0) + 1
        value = term(counts)
        if not value:
            continue
        weight = _multinomial(k, counts.values())
        for i, c in counts.items():
            weight = weight * weights[i] ** c
        value = weight * value
        total = value if total is None else total + value
    return Fraction(0) if total is None else total


def _draw_pattern(counts: Mapping[int, int]) -> tuple[int, ...]:
    """The partition of the complete partite pattern of a draw multiset: the
    repeat counts of the nonzero indices plus one singleton per zero draw."""
    parts = [c for i, c in counts.items() if i] + [1] * counts.get(0, 0)
    return tuple(sorted(parts, reverse=True))


def lambda_of_vector(spec: ObjectiveSpec, x: PartiteVector) -> Fraction:
    """Exact E[gamma(pattern of k independent draws from x)]."""
    return lambda_free(spec, x.x0, x.parts)


def lambda_free(spec: ObjectiveSpec, clique_weight, part_weights: Sequence) -> object:
    """The same expectation with free (unnormalised) weights.

    Generic in the weight ring: Fractions give the exact value, floats give
    the numeric free form used for finite-difference cross-checks, and MPoly
    weights give lambda as a polynomial. The result is the homogeneous
    degree-k free form of lambda; on the simplex it equals lambda_of_vector.
    Zero weights are never drawn, so they are left out of the enumeration.
    """
    weights = {i: w for i, w in enumerate([clique_weight, *part_weights]) if w != 0}
    values = spec.partition_values()
    return draw_sum(spec.k, weights, lambda counts: values[_draw_pattern(counts)])


# ---------------------------------------------------------------------------
# Closed form (complete partite density of K_{a_1,...,a_l})
# ---------------------------------------------------------------------------

def sampling_density(a: Sequence[int], x: PartiteVector) -> Fraction:
    """p(K_a, x) straight from the sampling model, without a gamma table.

    Dual route to density_formula: enumerate draw multisets and test whether
    the pattern partition equals a.
    """
    a = tuple(sorted((int(v) for v in a), reverse=True))
    return draw_sum(sum(a), x.draw_weights(),
                    lambda counts: 1 if _draw_pattern(counts) == a else 0)


def density_formula(a: Sequence[int], x: PartiteVector) -> Fraction:
    """p(K_{a_1,...,a_l}, x) via the elementary-symmetric closed form."""
    return _closed_form(a, x.x0, x.parts)


def density_polynomial(a: Sequence[int], m: int) -> MPoly:
    """The free form of p(K_a, .) as a polynomial in x0, x1, ..., xm.

    Homogeneous of degree sum(a); substituting a point of the simplex gives
    density_formula. Used for the independent symbolic-derivative oracle.
    """
    xs = [MPoly.var(f"x{i}") for i in range(m + 1)]
    return MPoly.const(0) + _closed_form(a, xs[0], xs[1:])


def _closed_form(a: Sequence[int], x0, parts: Sequence):
    """Ring-generic body of the closed form (Fraction parts or MPoly variables).

    Each term chooses s of the l - t singleton parts to be clique draws, so
    it carries a C(l-t, s) factor alongside x0^s; without it the formula
    disagrees with the sampling expectation as soon as several singleton
    parts meet positive clique mass.
    """
    a = tuple(sorted((int(v) for v in a), reverse=True))
    if not a or any(v <= 0 for v in a):
        raise ValueError("malformed partition")
    ell = len(a)
    t = sum(1 for v in a if v >= 2)
    total = Fraction(0)
    for s in range(ell - t + 1):
        term = comb(ell - t, s) * _sym_sum(parts, a[: ell - s])
        if s:
            term = term * x0**s
        total = total + term
    return Fraction(_multinomial(sum(a), a)) * sym_coefficient(a) * total


# ---------------------------------------------------------------------------
# Exact complete-partite pattern counts in complete partite hosts
# ---------------------------------------------------------------------------

def count_partite(a: Sequence[int], shape: CompletePartiteShape) -> int:
    """P(K_{a_1,...,a_l}, G) for complete partite G, exactly.

    A k-subset induces K_a iff its nonzero intersections with the host parts
    realise the multiset a, each pattern part inside a distinct host part.
    """
    a = tuple(sorted((int(v) for v in a), reverse=True))
    if not a or any(v <= 0 for v in a):
        raise ValueError("malformed partition")
    distinct = sorted(set(a), reverse=True)
    start = tuple(a.count(s) for s in distinct)

    groups = shape.counts  # ((size, multiplicity), ...)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(gi: int, remaining: tuple[int, ...]) -> int:
        if all(c == 0 for c in remaining):
            return 1
        if gi == len(groups):
            return 0
        size, mult = groups[gi]
        total = 0
        # choose how many pattern parts of each distinct size go to this group
        ranges = [range(0, min(c, mult) + 1) for c in remaining]
        for pick in itertools.product(*ranges):
            used = sum(pick)
            if used > mult:
                continue
            ways = factorial(mult) // factorial(mult - used)
            val = 1
            ok = True
            for cnt, s in zip(pick, distinct):
                if cnt == 0:
                    continue
                ways //= factorial(cnt)
                c = comb(size, s)
                if c == 0:
                    ok = False
                    break
                val *= c**cnt
            if not ok:
                continue
            rest = tuple(c - p for c, p in zip(remaining, pick))
            total += ways * val * rec(gi + 1, rest)
        return total

    return rec(0, start)


def lambda_of_shape(spec: ObjectiveSpec, shape: CompletePartiteShape) -> Fraction:
    """lambda of a complete partite graph from counts alone (any n)."""
    n = shape.n
    if n < spec.k:
        raise ValueError("shape smaller than objective arity")
    total = Fraction(0)
    for part, val in spec.partition_values().items():
        if val != 0:
            total += val * count_partite(part, shape)
    return total / comb(n, spec.k)


# ---------------------------------------------------------------------------
# Edit distance between limit vectors
# ---------------------------------------------------------------------------

def edit_distance_vectors(x: PartiteVector, y: PartiteVector) -> Fraction:
    """delta_edit(x, y), exactly.

    Overlay model: couple the two mass distributions; a coupling X costs
    sum x_i^2 + sum y_j^2 - 2 sum_{i,j >= 1} X_ij^2 (mass placed with or into
    a clique earns no square term). The cost is concave in X, so the minimum
    over the transportation polytope is attained at a vertex; vertices are
    enumerated exactly by leaf peeling with memoisation.
    """
    if len(x.parts) + (x.x0 > 0) > 8 or len(y.parts) + (y.x0 > 0) > 8:
        raise ValueError("support too large for overlay enumeration")
    base = sum((p * p for p in x.parts), Fraction(0)) + \
        sum((q * q for q in y.parts), Fraction(0))
    return base - 2 * _max_overlay_square_mass(x, y)


def _max_overlay_square_mass(x: PartiteVector, y: PartiteVector) -> Fraction:
    memo: dict[tuple, Fraction] = {}

    def reduce_line(lines: tuple[Fraction, ...], idx: int, delta: Fraction) -> tuple[Fraction, ...]:
        v = lines[idx] - delta
        rest = lines[:idx] + lines[idx + 1:]
        if v == 0:
            return rest
        return tuple(sorted(rest + (v,), reverse=True))

    def rec(rows: tuple[Fraction, ...], x0r: Fraction,
            cols: tuple[Fraction, ...], y0r: Fraction) -> Fraction:
        if not rows or not cols:
            return Fraction(0)
        key = (rows, x0r, cols, y0r)
        if key in memo:
            return memo[key]
        best = Fraction(0)
        seen_moves = set()
        # a part row fully into one line
        for ri in range(len(rows)):
            r = rows[ri]
            if (("r", r) in seen_moves):
                continue
            seen_moves.add(("r", r))
            rrest = rows[:ri] + rows[ri + 1:]
            tried_cols = set()
            for ci in range(len(cols)):
                c = cols[ci]
                if c < r or c in tried_cols:
                    continue
                tried_cols.add(c)
                cand = r * r + rec(rrest, x0r, reduce_line(cols, ci, r), y0r)
                if cand > best:
                    best = cand
            if y0r >= r:
                cand = rec(rrest, x0r, cols, y0r - r)
                if cand > best:
                    best = cand
        # a part column fully into one line
        for ci in range(len(cols)):
            c = cols[ci]
            if (("c", c) in seen_moves):
                continue
            seen_moves.add(("c", c))
            crest = cols[:ci] + cols[ci + 1:]
            tried_rows = set()
            for ri in range(len(rows)):
                r = rows[ri]
                if r < c or r in tried_rows:
                    continue
                tried_rows.add(r)
                cand = c * c + rec(reduce_line(rows, ri, c), x0r, crest, y0r)
                if cand > best:
                    best = cand
            if x0r >= c:
                cand = rec(rows, x0r - c, crest, y0r)
                if cand > best:
                    best = cand
        # the clique row/column fully into one opposite line (no reward)
        if x0r > 0:
            for ci in range(len(cols)):
                if cols[ci] >= x0r:
                    cand = rec(rows, Fraction(0), reduce_line(cols, ci, x0r), y0r)
                    if cand > best:
                        best = cand
            if y0r >= x0r:
                cand = rec(rows, Fraction(0), cols, y0r - x0r)
                if cand > best:
                    best = cand
        if y0r > 0:
            for ri in range(len(rows)):
                if rows[ri] >= y0r:
                    cand = rec(reduce_line(rows, ri, y0r), x0r, cols, Fraction(0))
                    if cand > best:
                        best = cand
            if x0r >= y0r:
                cand = rec(rows, x0r - y0r, cols, Fraction(0))
                if cand > best:
                    best = cand
        memo[key] = best
        return best

    return rec(tuple(sorted(x.parts, reverse=True)), x.x0,
               tuple(sorted(y.parts, reverse=True)), y.x0)
