"""The partite limit space: finite-support vectors x_1 >= x_2 >= ... > 0 with
sum <= 1 and clique mass x_0 = 1 - sum, their n-vertex realisations, the
draw-multiset sampling kernel (draw_sum) and its counting twin over
realisations (pick_sum), one generating-function kernel (CompiledPattern)
for complete partite counts, densities and elementary symmetric sums, the
exact sampling value lambda(x) and its gradient (lambda_gradient) from that
kernel, and the limit edit distance.

The sampling model: draw k independent indices with P(i) = x_i (0 for the
clique), and join two draws iff their indices differ or both are 0. Every
pattern arising this way is complete partite, so lambda(x) is the sum over
the partitions a of k of gamma(K_a) p(K_a, x), each density read from the
kernel; draw_sum stays the independent reference (sampling_density).

The kernel: with d_j the distinct part sizes of a pattern K_a and c_j their
counts, each pattern part goes into a distinct host part, so the placements
are the coefficient of prod_j z_j^{c_j} in a product of one factor
(1 + sum_j w_j z_j) per host part. With w_j = C(s, d_j) for a host part of
size s this counts induced copies; with w_j = x_i^{d_j} for a limit part
and the clique factor c! sum_e x0^e/e! z^e (size-1 variable, c singletons),
an integer lead times the coefficient is p(K_a, x); with prod_j c_j! in
front and no clique factor it is the elementary symmetric sum S_d(x).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, perm, prod
from operator import mul
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .graphs import CompletePartiteShape, PartiteStructure
from .objectives import ObjectiveSpec, _norm_partition
from .polynomials import MPoly, Rat, _frac, parse_rational


class PartiteVector:
    """Finite-support element of the partite limit space (exact rationals)."""

    __slots__ = ("parts", "x0")

    def __init__(self, parts: Iterable[Rat] = ()):
        ps = [_frac(p) for p in parts]
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

    def integer_weights(self) -> tuple[int, dict[int, int]]:
        """(D, {i: D x_i} over supp*) with D the least common denominator of
        the parts: the point as integers. A homogeneous free form of degree
        d at these weights is D^d times its value at x."""
        d = lcm(*(p.denominator for p in self.parts))
        weights = {i: p.numerator * (d // p.denominator) for i, p in enumerate(self.parts, 1)}
        if self.x0:
            weights[0] = d - sum(weights.values())
        return d, weights

    def __eq__(self, other) -> bool:
        return isinstance(other, PartiteVector) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"PartiteVector({list(map(str, self.parts))}, x0={self.x0})"

    # -- JSON format: {"x0": "2/5", "parts": ["3/5"]} --------------------------

    def to_jsonable(self) -> dict:
        return {"x0": str(self.x0), "parts": [str(p) for p in self.parts]}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())

    @classmethod
    def from_json(cls, text: str) -> "PartiteVector":
        obj = json.loads(text)
        if not (isinstance(obj, dict) and isinstance(obj.get("parts", []), list)):
            raise ValueError('vector JSON: expected an object with a "parts" list')
        try:
            parts = [parse_rational(p) for p in obj.get("parts", [])]
            x0 = parse_rational(obj["x0"]) if "x0" in obj else None
        except ValueError as e:
            raise ValueError(f"vector JSON: {e}") from e
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("vector JSON: parts must be sorted non-increasing")
        v = cls(parts)
        if x0 is not None and x0 != v.x0:
            raise ValueError("vector JSON: x0 inconsistent with parts")
        return v


class SymmetricIndex:
    """The exponents d and the excluded part indices I of S^I_d, compared by value."""

    __slots__ = ("exponents", "excluded")

    def __init__(self, exponents: tuple[int, ...], excluded: frozenset[int] = frozenset()):
        if any(d <= 0 for d in exponents):
            raise ValueError("exponents must be positive")
        self.exponents = exponents
        self.excluded = excluded

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymmetricIndex)
                and self.exponents == other.exponents and self.excluded == other.excluded)

    def __hash__(self) -> int:
        return hash((self.exponents, self.excluded))


def elementary_symmetric(x: PartiteVector, idx: SymmetricIndex) -> Fraction:
    """S^I_d(x): sum over distinct part indices outside I of prod x_{i_j}^{d_j}.

    With d_j the distinct exponents and c_j their counts, this is prod_j c_j!
    times the coefficient of prod_j z_j^{c_j} in prod_{i not in I} (1 + sum_j
    x_i^{d_j} z_j) (see CompiledPattern). The empty index gives 1, and fewer
    allowed parts than exponents give 0.
    """
    d = tuple(sorted(idx.exponents, reverse=True))
    pattern = _compiled(d)
    allowed = [p for i, p in enumerate(x.parts, start=1) if i not in idx.excluded]
    return pattern.coefficient(_part_factors(pattern, allowed)) / sym_coefficient(d)


def sym_coefficient(a: Sequence[int]) -> Fraction:
    """1 / prod(multiplicity!) over the distinct values of the partition."""
    denom = 1
    for v in set(a):
        denom *= factorial(list(a).count(v))
    return Fraction(1, denom)


# ---------------------------------------------------------------------------
# Realisations
# ---------------------------------------------------------------------------

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


def realise(n: int, x: PartiteVector) -> PartiteStructure:
    """The n-vertex realisation of x, parts laid out in index order, clique last.

    With no clique mass, largest-remainder rounding keeps every size within 1
    of x_i*n; with clique mass, parts with x_i*n >= 2 get floor(x_i*n) and all
    remaining vertices become universal singletons. Part i keeps index i when
    it rounds to no vertices. No graph is built (structure.graph() does that).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    sizes = _part_sizes(n, x)
    parts = []
    pos = 0
    for s in sizes:
        parts.append(tuple(range(pos, pos + s)))
        pos += s
    return PartiteStructure(tuple(parts), tuple(range(pos, n)))


# ---------------------------------------------------------------------------
# The sampling kernel and its counting twin
# ---------------------------------------------------------------------------

def _multinomial(k: int, counts: Iterable[int]) -> int:
    num = factorial(k)
    for c in counts:
        num //= factorial(c)
    return num


def draw_sum(k: int, weights: Mapping[int, object], term: Callable[[dict], object],
             group: Optional[Callable[[dict], Hashable]] = None):
    """Expectation of term(counts) over k independent draws from weights.

    Enumerates the multisets of k draws over the keys of weights; counts maps
    each drawn key, in ascending order, to its repeat count. A nonzero term
    contributes multinomial(k; counts) * prod weights[i]**c * term, so free
    (unnormalised) weights give the homogeneous degree-k free form. Generic
    in the weight ring (int, Fraction, float, MPoly) and in the term ring
    (scalars, or UPoly in alpha); an empty sum is Fraction(0). At a rational
    point the integrands of perturbation pass the integer weights D x_i
    (PartiteVector.integer_weights) and an integer term (gamma * scale from
    the code table), so the sum is an int; they divide it by scale and by
    D^k at the end. sampling_density passes the Fraction draw probabilities:
    it is the Fraction reference route. With group, the sum is split by
    group(counts) into a dict (see _multiset_sum).
    """
    keys = sorted(weights)
    if comb(len(keys) + k - 1, k) > 10**7:
        raise ValueError("support too large for exact enumeration")

    def weight(counts):
        w = _multinomial(k, counts.values())
        for i, c in counts.items():
            w = w * weights[i] ** c
        return w

    return _multiset_sum(keys, k, weight, term, group)


def pick_sum(k: int, sizes: Mapping[int, int], term: Callable[[dict], object]):
    """Sum of term(counts) over the k-subsets of items sorted into groups.

    sizes maps each group to its number of items; counts maps each group the
    subset meets, in ascending order, to the number of its items picked. A
    nonzero term contributes prod C(sizes[g], c) * term, the number of
    subsets with these counts, so the sum is exact in the term ring; an
    empty sum is Fraction(0). term is called only for counts that can be
    picked (none above its group's size). The counting twin of draw_sum.
    """
    def ways(counts):
        return prod(comb(sizes[g], c) for g, c in counts.items())

    def possible_term(counts):
        return term(counts) if all(c <= sizes[g] for g, c in counts.items()) else 0

    return _multiset_sum(sorted(g for g, s in sizes.items() if s > 0), k, ways, possible_term)


def _multiset_sum(keys: Sequence, k: int, weight: Callable[[dict], object],
                  term: Callable[[dict], object],
                  group: Optional[Callable[[dict], Hashable]] = None):
    """Sum of weight(counts) * term(counts) over the multisets of k sorted
    keys, each as the repeat counts of its keys in ascending order; terms
    that are zero are skipped, and an empty sum is Fraction(0). With group,
    the dict of the sums by group(counts) instead, without empty sums."""
    totals: dict = {}
    for multi in itertools.combinations_with_replacement(keys, k):
        counts: dict = {}
        for i in multi:
            counts[i] = counts.get(i, 0) + 1
        value = term(counts)
        if not value:
            continue
        value = weight(counts) * value
        g = group(counts) if group else None
        totals[g] = totals[g] + value if g in totals else value
    return totals if group else totals.get(None, Fraction(0))


# ---------------------------------------------------------------------------
# Closed form (complete partite density of K_{a_1,...,a_l})
# ---------------------------------------------------------------------------

def sampling_density(a: Sequence[int], x: PartiteVector) -> Fraction:
    """p(K_a, x) straight from the sampling model, without a gamma table.

    Dual route to density_formula: enumerate draw multisets and test whether
    the pattern partition equals a. A multiset's pattern has one part per
    nonzero index, of its repeat count, and one singleton per clique draw.
    A reference route: it draws with the Fraction probabilities of x.
    """
    a = _norm_partition(a)

    def hit(counts):
        parts = [c for i, c in counts.items() if i] + [1] * counts.get(0, 0)
        return 1 if tuple(sorted(parts, reverse=True)) == a else 0

    return draw_sum(sum(a), x.draw_weights(), hit)


def density_formula(a: Sequence[int], x: PartiteVector) -> Fraction:
    """p(K_{a_1,...,a_l}, x) via the elementary-symmetric closed form, at the
    Fraction entries of x (a reference route for lambda_of_vector)."""
    return _closed_form(a, x.x0, x.parts)


def density_polynomial(a: Sequence[int], m: int) -> MPoly:
    """The free form of p(K_a, .) as a polynomial in x0, x1, ..., xm.

    Homogeneous of degree sum(a); substituting a point of the simplex gives
    density_formula. certify_kst reads its flip gradients and attachment
    values from the partials of this form, and the tests use it as the
    symbolic-derivative oracle for lambda_gradient.
    """
    xs = [MPoly.var(f"x{i}") for i in range(m + 1)]
    return MPoly.const(0) + _closed_form(a, xs[0], xs[1:])


def _closed_form(a: Sequence[int], x0, parts: Sequence):
    """Ring-generic body of the closed form (int, Fraction or float parts, or
    MPoly variables).

    With d_j the distinct part sizes of a, c_j their counts, c the number of
    parts of size 1 and k = sum(a),

        p(K_a, x) = L [prod_j z_j^{c_j}] C(x0) prod_{i>=1} (1 + sum_j x_i^{d_j} z_j):

    part i takes at most one pattern part, of size d_j with weight x_i^{d_j}.
    The clique factor C(x0) = c! sum_e x0^e/e! z^e, in the variable of size
    1, is c! times the limit of m host parts of weight x0/m each; it places e
    singleton pattern parts in the clique and is present only when x0 is
    nonzero and 1 is a part size. The lead L is the multinomial
    k!/prod(a_i!), divided by c! when the clique factor is present (an
    integer too). So at integer weights every factor and the value are
    integers, and no step divides. Equal parts share one factor (see
    CompiledPattern).
    """
    pattern = _compiled(_norm_partition(a))
    lead, factors = _limit_factors(pattern, x0, parts)
    return lead * pattern.coefficient(factors)


def _limit_factors(pattern: "CompiledPattern", x0, parts: Sequence) -> tuple[int, list]:
    """The closed form at a limit point as (lead, factors): one factor per
    run of equal parts, then the clique factor when x0 is nonzero and 1 is a
    part size of the pattern. At x0 = 0 the clique factor would be c! times
    the empty product, so it is left out and the lead is not divided by c!."""
    factors = _part_factors(pattern, parts)
    if x0 and pattern.sizes[-1] == 1:
        factors.append(pattern.clique(x0))
        return pattern.lead // factorial(pattern.states[-1][-1]), factors
    return pattern.lead, factors


def _part_factors(pattern: "CompiledPattern", parts: Sequence) -> list:
    """One CompiledPattern factor per run of equal limit parts, in which a
    pattern part of size d has weight p^d in a part of value p."""
    return [pattern.factor([p**d for d in pattern.sizes], len(list(run)))
            for p, run in itertools.groupby(parts)]


# ---------------------------------------------------------------------------
# lambda(x) and its gradient from the closed form
# ---------------------------------------------------------------------------

def lambda_of_vector(spec: ObjectiveSpec, x: PartiteVector) -> Fraction:
    """Exact E[gamma(pattern of k independent draws from x)].

    The free form at the integer weights D x_i (x.integer_weights()),
    divided by D^k.
    """
    d, weights = x.integer_weights()
    return lambda_free(spec, weights.get(0, 0), [weights[i] for i in x.support]) / d**spec.k


def lambda_free(spec: ObjectiveSpec, clique_weight, part_weights: Sequence) -> object:
    """The same expectation with free (unnormalised) weights.

    The sum over the partitions a of k of gamma(K_a) times the closed form
    of p(K_a, .) (_closed_form). Generic in the weight ring: ints and
    Fractions give the exact value, floats give the numeric free form used
    for finite-difference cross-checks, and MPoly weights give lambda as a
    polynomial. The sum runs over gamma * scale (partition_weights), so it
    is an int at integer weights, and is divided by scale once, at the end.
    The result is the homogeneous degree-k free form of lambda; on the
    simplex it equals lambda_of_vector.
    """
    total = 0
    for a, gamma in spec.partition_weights().items():
        total = total + gamma * _closed_form(a, clique_weight, part_weights)
    return total * Fraction(1, spec.scale)


def lambda_gradient(spec: ObjectiveSpec, x: PartiteVector) -> dict[int, Fraction]:
    """d(lambda)/dx_i of the free form for every i in supp*, exactly.

    Each pattern's closed form is a product of one factor per run of equal
    parts, plus the clique factor, and the coefficient of z^e in the factor
    of value p is homogeneous in p of degree placed(e) = sum_j e_j d_j. So
    the factor's derivative in p is the factor with z^e scaled by
    placed(e)/p (CompiledPattern.slope), times the product of the other
    factors (CompiledPattern.leave_one_out). A run of m equal parts has the
    factor F(p)^m, and each member's partial is 1/m of its derivative,
    F'(p) F(p)^{m-1}. The clique factor c! sum_e x0^e/e! z^e is scaled the
    same way, placed(e) = e; a pattern with no part of size 1 has clique
    partial 0. (1/k) d(lambda)/dx_i is the clone value lambda(x, (e_i, 1)).

    The products run at the integer weights D x_i over gamma * scale, so
    each partial is an int until one division by scale * D^(k-1) * m p.
    """
    d, weights = x.integer_weights()
    x0, parts = weights.get(0, 0), [weights[i] for i in x.support]
    groups = [(p, len(list(run))) for p, run in itertools.groupby(parts)]
    if x0:
        groups.append((x0, 1))
    sums = [0] * len(groups)
    for a, gamma in spec.partition_weights().items():
        pattern = _compiled(a)
        lead, factors = _limit_factors(pattern, x0, parts)
        for r, (rest, f) in enumerate(zip(pattern.leave_one_out(factors), factors)):
            sums[r] += gamma * lead * pattern.top(rest, pattern.slope(f))
    scale = spec.scale * d ** (spec.k - 1)
    partials = [Fraction(t, scale * m * p) for t, (p, m) in zip(sums, groups)]
    grad = {0: partials.pop()} if x.x0 else {}
    members = (v for (_, m), v in zip(groups, partials) for _ in range(m))
    grad.update(zip(x.support, members))
    return grad


# ---------------------------------------------------------------------------
# Exact complete-partite pattern counts in complete partite hosts
# ---------------------------------------------------------------------------

class CompiledPattern:
    """The generating function of placements of K_a in complete partite hosts.

    Write d_1 > ... > d_r for the distinct part sizes of the pattern and c_j
    for their counts. A k-subset of a complete partite host induces K_a iff
    its nonzero intersections with the host parts realise a, each pattern part
    inside a distinct host part. A group of m host parts, in each of which a
    pattern part of size d_j has w_j placements, therefore contributes the
    factor (1 + sum_j w_j z_j)^m, and the placements of the whole pattern are
    the coefficient of prod_j z_j^{c_j} in the product of the factors of all
    groups. With w_j = C(s, d_j) for host parts of size s this counts induced
    copies (count_partite); with w_j = p^{d_j} for limit parts it gives the
    limit densities (_closed_form, times the integer lead) and elementary
    symmetric sums (elementary_symmetric). The kernel never divides: integer
    weights (host sizes, or the integer weights D x_i of a rational point)
    keep every product an int, and the caller divides its result at the end
    (lambda_free by scale, lambda_of_vector then by D^k, lambda_gradient by
    scale * D^(k-1) * m p at once). density_formula and sampling_density
    stay on the Fraction entries of x, as the reference routes.

    Polynomials are kept truncated to the exponent vectors e <= c, stored as
    lists indexed by the mixed-radix rank of e (e = 0 first, e = c last, the
    exponent of d_r least significant). The rank is additive, so the product
    of z^e and z^f sits at the sum of their ranks.
    """

    __slots__ = ("sizes", "states", "lead", "_pairs", "_picks", "_placed")

    def __init__(self, a: tuple[int, ...]):
        self.sizes = sorted(set(a), reverse=True)
        self.lead = _multinomial(sum(a), a)
        caps = [a.count(d) for d in self.sizes]
        self.states = list(itertools.product(*(range(c + 1) for c in caps)))
        self._pairs = [(i, j, i + j)
                       for i, e in enumerate(self.states)
                       for j, f in enumerate(self.states)
                       if all(x + y <= c for x, y, c in zip(e, f, caps))]
        self._picks = [(sum(e), prod(map(factorial, e))) for e in self.states]
        self._placed = [sum(map(mul, e, self.sizes)) for e in self.states]

    def one(self) -> list[int]:
        """The empty product."""
        return [1] + [0] * (len(self.states) - 1)

    def factor(self, weights: Sequence, mult: int) -> list:
        """(1 + sum_j weights[j] z_j)^mult, truncated: the coefficient of z^e
        places e_j pattern parts of size d_j in distinct parts of the group,
        in mult!/((mult - |e|)! prod e_j!) ways to pick the parts (an integer,
        computed first) times prod weights[j]^{e_j} ways to place them."""
        out = []
        for e, (used, denom) in zip(self.states, self._picks):
            if used > mult:
                out.append(0)
                continue
            ways = perm(mult, used) // denom
            for cnt, w in zip(e, weights):
                if cnt:
                    ways = ways * w**cnt
            out.append(ways)
        return out

    def clique(self, x0) -> list:
        """c! sum_e x0^e/e! z^e in the variable of size 1, truncated at the
        count c of that size: c! times the limit of (1 + x0/m z)^m, m host
        parts of weight x0/m each, with the integer coefficients c!/e!. Needs
        1 as a part size; its exponent is the least significant digit of the
        rank."""
        c = self.states[-1][-1]
        return ([factorial(c) // factorial(e) * x0**e for e in range(c + 1)]
                + [0] * (len(self.states) - c - 1))

    def slope(self, factor: list) -> list:
        """factor with z^e scaled by placed(e) = sum_j e_j d_j, the number of
        pattern vertices the term places: p times the derivative in p of a
        factor whose z^e coefficient is homogeneous of degree placed(e) in p."""
        return [f * n if f else 0 for f, n in zip(factor, self._placed)]

    def times(self, poly: list, factor: list) -> list:
        """The truncated product poly * factor."""
        out = [0] * len(poly)
        for i, j, t in self._pairs:
            out[t] += poly[i] * factor[j]
        return out

    def top(self, poly: list, factor: list):
        """The coefficient of z^c in poly * factor: the count once factor's
        group completes the host."""
        return sum(map(mul, poly, reversed(factor)))

    def leave_one_out(self, factors: Sequence[list]) -> list[list]:
        """For each factor, the truncated product of all the others (prefix
        products times suffix products)."""
        prefix = [self.one()]
        for f in factors[:-1]:
            prefix.append(self.times(prefix[-1], f))
        out = []
        suffix = self.one()
        for r in reversed(range(len(factors))):
            out.append(self.times(prefix[r], suffix))
            if r:
                suffix = self.times(suffix, factors[r])
        return out[::-1]

    def coefficient(self, factors: Sequence[list]):
        """The coefficient of z^c in the product of factors."""
        poly = self.one()
        for f in factors[:-1]:
            poly = self.times(poly, f)
        return self.top(poly, factors[-1]) if factors else poly[-1]


@cache
def _compiled(a: tuple[int, ...]) -> CompiledPattern:
    """The CompiledPattern of a sorted partition, built once per process."""
    return CompiledPattern(a)


def _host_factor(pattern: CompiledPattern, size: int, mult: int) -> list[int]:
    """The factor of mult host parts of the given size: C(size, d_j) placements."""
    return pattern.factor([comb(size, d) for d in pattern.sizes], mult)


def count_partite(a: Sequence[int], shape: CompletePartiteShape) -> int:
    """P(K_{a_1,...,a_l}, G) for complete partite G, exactly.

    The coefficient of prod z_j^{c_j} in the product of the group factors of
    shape.counts (see CompiledPattern). Each group costs one truncated
    product, so millions of singleton parts are as cheap as one.
    """
    pattern = _compiled(_norm_partition(a))
    return pattern.coefficient([_host_factor(pattern, s, m) for s, m in shape.counts])


def partition_counts(patterns: Sequence[Sequence[int]], n: int):
    """Yield (groups, counts) for every partition of n, in partitions_of order.

    groups is the run-length form ((size, mult), ..., (1, singletons)) with
    sizes >= 2 descending and a (1, 0) group when there are no singletons;
    counts[i] is count_partite(patterns[i], CompletePartiteShape(counts=groups)).
    The walk is depth first, sizes and then multiplicities descending, with
    the singletons last, and it carries each pattern's truncated product of
    the groups placed so far: a partition costs one product for its last
    group of size >= 2 and one top coefficient for its singletons.
    """
    compiled = [_compiled(_norm_partition(a)) for a in patterns]
    tables = [{(s, m): _host_factor(p, s, m) for s in range(1, n + 1) for m in range(n // s + 1)}
              for p in compiled]
    groups: list[tuple[int, int]] = []

    def walk(rest: int, cap: int, polys: list[list[int]]):
        for s in range(min(cap, rest), 1, -1):
            for m in range(rest // s, 0, -1):
                groups.append((s, m))
                yield from walk(rest - s * m, s - 1,
                                [p.times(poly, f[s, m])
                                 for p, f, poly in zip(compiled, tables, polys)])
                groups.pop()
        yield (*groups, (1, rest)), [p.top(poly, f[1, rest])
                                     for p, f, poly in zip(compiled, tables, polys)]

    yield from walk(n, n, [p.one() for p in compiled])


def lambda_of_shape(spec: ObjectiveSpec, shape: CompletePartiteShape) -> Fraction:
    """lambda of a complete partite graph from counts alone (any n)."""
    n = shape.n
    if n < spec.k:
        raise ValueError("shape smaller than objective arity")
    total = sum(weight * count_partite(a, shape) for a, weight in spec.partition_weights().items())
    return Fraction(total, spec.scale * comb(n, spec.k))


# ---------------------------------------------------------------------------
# Edit distance between limit vectors
# ---------------------------------------------------------------------------

def edit_distance_vectors(x: PartiteVector, y: PartiteVector) -> Fraction:
    """delta_edit(x, y), exactly.

    Overlay model: couple the two mass distributions; a coupling X costs
    sum x_i^2 + sum y_j^2 - 2 sum_{i,j >= 1} X_ij^2 (mass placed with or into
    a clique earns no square term). The cost is concave in X, so the minimum
    over the transportation polytope is attained at a vertex. The support of
    a vertex is a forest, so some line (a part or the clique, of either side)
    goes wholly into one line of the other side, and what is left is a vertex
    of the smaller polytope: one peel rule (_peel), applied from both sides
    with memoisation, reaches every vertex.
    """
    if len(x.parts) + (x.x0 > 0) > 8 or len(y.parts) + (y.x0 > 0) > 8:
        raise ValueError("support too large for overlay enumeration")

    @cache
    def best(rows: tuple[Fraction, ...], x0: Fraction,
             cols: tuple[Fraction, ...], y0: Fraction) -> Fraction:
        """Largest sum of X_ij^2 over pairs of parts among the lines left."""
        if not rows or not cols:
            return Fraction(0)
        moves = itertools.chain(
            _peel(rows, x0, cols, y0),
            ((g, r, r0, c, c0) for g, c, c0, r, r0 in _peel(cols, y0, rows, x0)))
        return max(g + best(r, r0, c, c0) for g, r, r0, c, c0 in moves)

    base = sum((p * p for p in x.parts), Fraction(0)) + \
        sum((q * q for q in y.parts), Fraction(0))
    return base - 2 * best(x.parts, x.x0, y.parts, y.x0)


def _peel(rows: tuple[Fraction, ...], x0: Fraction,
          cols: tuple[Fraction, ...], y0: Fraction):
    """Every way one line of the first side goes wholly into a line of the
    other side that can hold it, as (gain, rows, x0, cols, y0) after the move.

    A line is a part, or the clique when its mass is positive. Parts are kept
    non-increasing and equal parts are tried once. The move earns the squared
    mass when both lines are parts.
    """
    lines = [(r, True, rows[:i] + rows[i + 1:], x0)
             for i, r in enumerate(rows) if i == 0 or rows[i - 1] != r]
    if x0 > 0:
        lines.append((x0, False, rows, Fraction(0)))
    for m, part, rest, rest0 in lines:
        gain = m * m if part else Fraction(0)
        for j, c in enumerate(cols):
            if c >= m and (j == 0 or cols[j - 1] != c):
                left = cols[:j] + cols[j + 1:]
                if c > m:
                    left = tuple(sorted(left + (c - m,), reverse=True))
                yield gain, rest, rest0, left, y0
        if y0 >= m:
            yield Fraction(0), rest, rest0, cols, y0 - m
