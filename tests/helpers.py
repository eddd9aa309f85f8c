"""Test-only references and fixtures: independent float and graph routes that
the program itself does not need, the plain Fraction remainder routes, the
finite-n layer of the stability argument, the two-walk symmetrisation step,
and the negative strictness fixture."""

import itertools
import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb, prod
from typing import Mapping, NamedTuple, Optional

from inducibility.graphs import (CompletePartiteShape, Graph, _classes,
                                 complete_partite_shape_of, graph_from_code, iso_classes,
                                 subset_codes)
from inducibility.objectives import ObjectiveSpec, big_lambda, lambda_graph, partitions_of
from inducibility.optsearch import _FloatPlan
from inducibility.partite import PartiteVector, lambda_free, lambda_of_shape
from inducibility.perturbation import (_JOINED, AttachmentPattern, _attach_term, _flip_loss,
                                       flip_gradient)
from inducibility.polynomials import AlgebraicNumber, Rat, UPoly, _frac
from inducibility.strictness import _clone_edit_mass, _pair_orbits, _pattern_orbits
from inducibility.symmetrise import SymmetrisationError, SymStep, _clone


def class_keys(n: int) -> tuple[bytes, ...]:
    """The canonical key of each graph in iso_classes(n), in the same order."""
    return _classes(n)[0]


def big_lambda_vertex(spec: ObjectiveSpec, g: Graph, v: int) -> Fraction:
    """Lambda(G, v), the sum over the k-subsets through v: Lambda(G) - Lambda(G - v)."""
    rest = g.induced([u for u in range(g.n) if u != v])
    return big_lambda(spec, g) - (big_lambda(spec, rest) if rest.n >= spec.k else 0)


def lambda_vertex(spec: ObjectiveSpec, g: Graph, v: int) -> Fraction:
    """lambda(G, v): the mean of gamma over the k-subsets through v."""
    return big_lambda_vertex(spec, g, v) / comb(g.n - 1, spec.k - 1)


def complement(g: Graph) -> Graph:
    mask = (1 << g.n) - 1
    return Graph(g.n, tuple((mask ^ r) & ~(1 << i) for i, r in enumerate(g.rows)))


def flip(g: Graph, x: int, y: int) -> Graph:
    """g with the adjacency of the pair {x, y} toggled; an involution."""
    if x == y:
        raise ValueError("flip needs two distinct vertices")
    rows = list(g.rows)
    rows[x] ^= 1 << y
    rows[y] ^= 1 << x
    return Graph(g.n, tuple(rows))


def count_calls(monkeypatch, name: str) -> list:
    """Wrap partite's function ``name`` in every inducibility module that
    imported it; the returned list gets the arguments of each call."""
    from inducibility import partite
    original = getattr(partite, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("inducibility")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


def reference_gamma(terms, f: Graph) -> Fraction:
    """gamma(f) of Sum_F c_F p(K_F, .), as the class-walk builder of
    ``ObjectiveSpec.combination`` counted it per class representative: the
    shapes of f's |F|-subsets tallied, then a Fraction sum over the terms."""
    shapes = [(Fraction(c), CompletePartiteShape(a)) for c, a in terms]
    found: Counter = Counter()
    for m in {s.n for _, s in shapes}:
        for code, count in Counter(subset_codes(f, m)).items():
            found[complete_partite_shape_of(graph_from_code(m, code))] += count
    return sum((c * Fraction(found[s], comb(f.n, s.n)) for c, s in shapes), Fraction(0))


def reference_combination(terms, k: int) -> dict[bytes, Fraction]:
    """The class-walk builder: ``reference_gamma`` on every class of k vertices,
    by canonical key."""
    return {key: reference_gamma(terms, f) for key, f in zip(class_keys(k), iso_classes(k))}


def partial_derivative_fd(spec: ObjectiveSpec, x: PartiteVector, i: int,
                          step: float = 1e-6) -> float:
    """Central finite difference of the free form of lambda in float."""
    weights = [float(x.x0)] + [float(p) for p in x.parts]

    def at(delta: float) -> float:
        w = list(weights)
        w[i] += delta
        return lambda_free(spec, w[0], w[1:])

    return (at(step) - at(-step)) / (2 * step)


class ReferenceFloatPlan:
    """The float plan's value and gradient as plain loops over terms, slots
    and parts, recomputing every power sum and power at each call; a power
    sum is a left fold from 0.0, as sum() is before Python 3.12. The
    program's plan must give the same floats, bit for bit."""

    def __init__(self, spec: ObjectiveSpec):
        plan = _FloatPlan(spec)
        self.k, self.terms = plan.k, plan.terms

    def value(self, x0, parts):
        ps = [0.0] * (self.k + 1)
        for e in range(1, self.k + 1):
            ps[e] = reduce(operator.add, (p**e for p in parts), 0.0)
        total = 0.0
        for s, exps, c in self.terms:
            t = c * (x0**s if s else 1.0)
            for e in exps:
                t *= ps[e]
            total += t
        return total

    def gradient(self, x0, parts):
        ps = [0.0] * (self.k + 1)
        for e in range(1, self.k + 1):
            ps[e] = reduce(operator.add, (p**e for p in parts), 0.0)
        g0 = 0.0
        gi = [0.0] * len(parts)
        for s, exps, c in self.terms:
            prods = 1.0
            for e in exps:
                prods *= ps[e]
            if s:
                g0 += c * s * x0 ** (s - 1) * prods
            for pos, e in enumerate(exps):
                rest = c * (x0**s if s else 1.0)
                for q, e2 in enumerate(exps):
                    if q != pos:
                        rest *= ps[e2]
                for i, p in enumerate(parts):
                    gi[i] += rest * e * p ** (e - 1)
        return g0, gi


def reference_project_simplex(v):
    """Euclidean projection onto the simplex, clipping with max() as the
    program's projection first did."""
    u = sorted(v, reverse=True)
    css = 0.0
    theta = 0.0
    for j, uj in enumerate(u):
        css += uj
        t = (css - 1.0) / (j + 1)
        if uj - t > 0:
            theta = t
    return [max(x - theta, 0.0) for x in v]


def counterexample_spec() -> ObjectiveSpec:
    """Sum of all complete partite densities at k=3: maximised by everything,
    so strictness fails with c = 0 on candidates that include clique mass."""
    return ObjectiveSpec.combination([(1, a) for a in partitions_of(3)],
                                     label="SUM all complete partite, k=3")


def counterexample_candidates() -> list[PartiteVector]:
    return [PartiteVector(), PartiteVector([Fraction(1)]),
            PartiteVector([Fraction(1, 2), Fraction(1, 2)])]


def seeded_table(k: int) -> ObjectiveSpec:
    """A from_table spec on k vertices with seeded signed values on every class."""
    rng = random.Random(k)
    return ObjectiveSpec.from_table(k, {g: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                                        for g in iso_classes(k)})


def integer_route_specs():
    """KP densities, a SUM with a negative coefficient, and seeded
    from_table specs at k = 3..6 (gamma with denominators up to 12)."""
    rng = random.Random(23)
    specs = [ObjectiveSpec.partite_density(a) for a in ([2, 1], [2, 1, 1], [3, 1, 1], [2, 2, 1, 1])]
    specs.append(ObjectiveSpec.combination([(Fraction(3, 4), [2, 1, 1]),
                                            (Fraction(-5, 6), [1, 1, 1, 1]),
                                            (Fraction(1, 3), [2, 2])]))
    for k in range(3, 7):
        specs.append(ObjectiveSpec.from_table(
            k, {g: Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for g in iso_classes(k)}))
    return specs


def integer_route_vectors(seed):
    """Seeded rational points for the integer route: 1 to 8 parts drawn from
    a pool of three values (so parts tie), each with and without clique
    mass; x0 only; parts with denominators near 10^40; and 30 parts 1/p over
    pairwise coprime primes p."""
    rng = random.Random(seed)
    out = [PartiteVector()]
    for m in range(1, 9):
        pool = [Fraction(rng.randint(1, 9), rng.randint(10, 40)) for _ in range(3)]
        parts = sorted((rng.choice(pool) for _ in range(m)), reverse=True)
        while sum(parts) >= 1:
            parts = [p / 2 for p in parts]
        out += [PartiteVector(parts), PartiteVector([p / sum(parts) for p in parts])]
    for m in (1, 3, 5):
        dens = [rng.randrange(10**39, 10**40) for _ in range(m)]
        parts = sorted((Fraction(rng.randrange(1, d // 8), d) for d in dens), reverse=True)
        out += [PartiteVector(parts), PartiteVector([p / sum(parts) for p in parts])]
    primes = [p for p in range(31, 200) if all(p % q for q in range(2, p))][:30]
    out.append(PartiteVector([Fraction(1, p) for p in primes]))
    return out


# -- The finite-n layer: the finite-n conditions of the stability argument on
# the n-vertex realisation of a limit point, exact at any n ------------------

def realise(n: int, x: PartiteVector) -> dict[int, int]:
    """The group sizes {i: size} of the n-vertex realisation of x: part i
    keeps its index, the clique is group 0, and groups with no vertices are
    left out. vertex_groups lays the vertices out.

    With no clique mass, largest-remainder rounding keeps every size within 1
    of x_i*n; with clique mass, parts with x_i*n >= 2 get floor(x_i*n) and all
    remaining vertices become universal singletons. No graph is built, so any
    n works.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if x.x0 == 0:
        sizes = [int(p * n) for p in x.parts]
        fracs = sorted(range(len(sizes)), key=lambda i: (-(x.parts[i] * n - sizes[i]), i))
        for i in fracs[:n - sum(sizes)]:
            sizes[i] += 1
    else:
        sizes = [int(p * n) if p * n >= 2 else 0 for p in x.parts]
    groups = {i: s for i, s in enumerate(sizes, start=1) if s}
    if sum(sizes) < n:
        groups[0] = n - sum(sizes)
    return groups


def vertex_groups(sizes: Mapping[int, int]) -> list[int]:
    """The group of each vertex of a realisation with these group sizes: the
    parts in index order, then the clique (group 0). Two vertices are
    adjacent iff their groups differ or both are clique vertices."""
    return [i for i in sorted(sizes, key=lambda i: (i == 0, i)) for _ in range(sizes[i])]


def realised_shape(sizes: Mapping[int, int]) -> CompletePartiteShape:
    """The complete partite shape of a realisation with these group sizes:
    its parts, and each clique vertex as a part of size 1."""
    return CompletePartiteShape(sizes=[s for i, s in sizes.items() if i],
                                counts=[(1, sizes.get(0, 0))])


def realised_graph(sizes: dict[int, int]) -> Graph:
    """The realisation with these group sizes (realise) as a graph,
    its vertices laid out by vertex_groups: two vertices are joined
    iff their groups differ or both are clique vertices (group 0)."""
    groups = vertex_groups(sizes)
    n = len(groups)
    return Graph(n, tuple(sum(1 << w for w, h in enumerate(groups) if w != v and (h != g or not g))
                          for v, g in enumerate(groups)))


def attach(g: Graph, sizes: dict[int, int], b: dict[int, int], alpha: Fraction) -> Graph:
    """G +_{b,alpha} u on the realisation G with these group sizes: a new last
    vertex joined to part i when b(i)=1 and to the floor(alpha*|V0|)
    lowest-indexed clique vertices."""
    if g != realised_graph(sizes):
        raise ValueError("group sizes inconsistent with graph")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha outside [0,1]")
    groups = vertex_groups(sizes)
    clique = [v for v, i in enumerate(groups) if i == 0]
    joined = [v for v, i in enumerate(groups) if i and b.get(i, 0)]
    joined += clique[:int(alpha * len(clique))]  # floor
    return g.add_vertex(sum(1 << v for v in joined))


def pick_sum(k: int, sizes: Mapping[int, int], term):
    """Sum of term(counts) over the k-subsets of items sorted into groups.

    sizes maps each group to its number of items; counts maps each group the
    subset meets, in ascending order, to the number of its items picked. A
    nonzero term contributes prod C(sizes[g], c) * term, the number of
    subsets with these counts, so the sum is exact in the term ring; an
    empty sum is 0. term is called only for counts that can be picked (none
    above its group's size). The counting twin of partite.draw_sum.
    """
    total = 0
    for multi in itertools.combinations_with_replacement(sorted(g for g in sizes if sizes[g]), k):
        counts = Counter(multi)  # in ascending order
        if all(c <= sizes[g] for g, c in counts.items()):
            value = term(counts)
            if value:
                total += prod(comb(sizes[g], c) for g, c in counts.items()) * value
    return total


def pattern_e(i: int, x: PartiteVector) -> AttachmentPattern:
    """The clone pattern e_i: b(j) = 0 iff j = i (e_0 is all ones), alpha = 1."""
    return AttachmentPattern({j: 0 if j == i else 1 for j in x.support}, Fraction(1))


def finite_flip_delta(spec: ObjectiveSpec, sizes: Mapping[int, int],
                      i1: int, i2: int) -> Fraction:
    """(Lambda(G) - Lambda(G + xy)) / C(n-2, k-2) for a pair in parts i1, i2
    of the realisation G with these group sizes (realise).

    Exact for any n: the flip loss of flip_gradient summed over the ways to
    pick the other k-2 vertices from the groups of the realisation.
    """
    if i1 not in sizes or i2 not in sizes:
        raise ValueError("no such part in the realisation")
    rest = dict(sizes)
    rest[i1] -= 1
    rest[i2] -= 1
    if rest[i1] < 0:
        raise ValueError("part too small to host the pair")
    loss = _flip_loss(spec.code_table(), i1, i2)
    total = pick_sum(spec.k - 2, rest, loss)
    return Fraction(total, spec.scale * comb(sum(sizes.values()) - 2, spec.k - 2))


def finite_attach_lambda_vertex(spec: ObjectiveSpec, sizes: Mapping[int, int],
                                b: Mapping[int, int], v0_neighbours: int) -> Fraction:
    """lambda(G +_{b,alpha} u, u) with floor(alpha|V0|) = v0_neighbours, exact,
    for the realisation G with these group sizes (realise).

    The attachment integrand of attach_value summed over the ways to pick
    k-1 vertices from the groups of the realisation, where the clique is two
    groups: the nb = v0_neighbours vertices joined to u (_JOINED) and the
    v0 - nb others (0). The sum is an int. Works for any n.
    """
    v0 = sizes.get(0, 0)
    if not 0 <= v0_neighbours <= v0:
        raise ValueError("clique neighbour count out of range")
    groups = {**sizes, _JOINED: v0_neighbours, 0: v0 - v0_neighbours}
    table = spec.code_table()
    total = pick_sum(spec.k - 1, groups, lambda counts: _attach_term(table, b, counts))
    return Fraction(total, spec.scale * comb(sum(sizes.values()), spec.k - 1))


class FiniteStrictnessReport(NamedTuple):
    n: int
    c1: Fraction                          # best constant in lam(G)-lam(G+xy) >= c/n^2
    c2: Optional[Fraction]                # best constant in edits <= n*deficit/c
    clone_deficits: tuple[Fraction, ...]  # deficits at exact clone attachments

    @property
    def c(self) -> Fraction:
        return self.c1 if self.c2 is None else min(self.c1, self.c2)


def finite_strictness_check(spec: ObjectiveSpec, x: PartiteVector, n: int) -> FiniteStrictnessReport:
    """Evaluate both finite-n strictness conditions on the realisation of x."""
    sizes = realise(n, x)
    lam = lambda_of_shape(spec, realised_shape(sizes))
    k = spec.k

    # pair condition over part-index orbits
    scale = Fraction(n * n * comb(n - 2, k - 2), comb(n, k))

    def flip(i1: int, i2: int) -> Optional[Fraction]:
        if i1 == i2 and sizes[i1] < 2:
            return None
        return finite_flip_delta(spec, sizes, i1, i2) * scale

    c1 = min(v for v in _pair_orbits(sizes, flip).values() if v is not None)

    # attachment condition over all complete-or-empty patterns and clique cuts
    v0_size = sizes.get(0, 0)
    c2: Optional[Fraction] = None
    clone_deficits: list[Fraction] = []
    for b in _pattern_orbits({i: s for i, s in sizes.items() if i}):
        min_w = min(_clone_edit_mass(sizes, b).values())
        for j in range(v0_size + 1):
            deficit = lam - finite_attach_lambda_vertex(spec, sizes, b, j)
            edits = v0_size - j + min_w
            if edits == 0:
                clone_deficits.append(deficit)
                continue
            val = Fraction(n) * deficit / edits
            if c2 is None or val < c2:
                c2 = val
    return FiniteStrictnessReport(n, c1, c2, tuple(clone_deficits))


class DiagnosticBounds(NamedTuple):
    xi0: Fraction
    xi1: Fraction
    xi2: Fraction
    wrong_pairs: int
    max_degree: int


class CompareReport(NamedTuple):
    bounds: DiagnosticBounds
    lam_diff: Fraction                # lambda(H') - lambda(H)
    is_star: bool
    hyp_all_ge_c: bool
    hyp_all_le_c: bool
    concl_general: Optional[bool]     # diff >= xi0/2 - xi1 - xi2 (when hyp ge)
    concl_star: Optional[bool]        # diff >= xi0/2 - xi2 (when hyp ge and star)
    concl_upper: Optional[bool]       # diff <= xi0 + xi1 + xi2 (when hyp le)


def compare_bounds(spec: ObjectiveSpec, h: Graph, x: PartiteVector, c: Rat) -> CompareReport:
    """Evaluate the imperfection-comparison bounds on a concrete instance.

    H' is the complete partite realisation of x on h.n vertices, laid out by
    vertex_groups (no graph is built: adjacency in H' is read from the
    groups, and lambda(H') comes from lambda_of_shape), and T the edge
    symmetric difference between H and H'; the xi quantities are the stated
    functions of |T|, its max degree, c and gamma_max = max |gamma| over all
    classes, and the report records which hypotheses and conclusions hold.
    """
    c = _frac(c)
    n = h.n
    sizes = realise(n, x)
    groups = vertex_groups(sizes)
    k = spec.k
    wrong = [(u, v) for u in range(n) for v in range(u + 1, n)
             if h.has_edge(u, v) != (groups[u] != groups[v] or not groups[u])]
    t = len(wrong)
    deg: dict[int, int] = {}
    for u, v in wrong:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    max_deg = max(deg.values(), default=0)
    gm = max(abs(spec.gamma[key]) for key in class_keys(k))
    bounds = DiagnosticBounds(
        xi0=Fraction(k**2 * t) * c / n**2,
        xi1=2 * gm * Fraction(k**4 * t**2) / n**4,
        xi2=2 * gm * Fraction(k**3 * t * max_deg) / n**3,
        wrong_pairs=t,
        max_degree=max_deg,
    )
    lam_diff = lambda_of_shape(spec, realised_shape(sizes)) - lambda_graph(spec, h)
    grads = {}
    hyp_ge = True
    hyp_le = True
    for u, v in wrong:
        key = (min(groups[u], groups[v]), max(groups[u], groups[v]))
        if key not in grads:
            grads[key] = flip_gradient(spec, x, *key)
        if grads[key] < c:
            hyp_ge = False
        if grads[key] > c:
            hyp_le = False
    is_star = t <= 1 or max_deg == t
    concl_general = (lam_diff >= bounds.xi0 / 2 - bounds.xi1 - bounds.xi2) if hyp_ge else None
    concl_star = (lam_diff >= bounds.xi0 / 2 - bounds.xi2) if (hyp_ge and is_star) else None
    concl_upper = (lam_diff <= bounds.xi0 + bounds.xi1 + bounds.xi2) if hyp_le else None
    return CompareReport(bounds, lam_diff, is_star, hyp_ge, hyp_le,
                         concl_general, concl_star, concl_upper)


# Fraction references for the one integer remainder sequence that serves
# UPoly.gcd, UPoly.sturm_chain and AlgebraicNumber.sign_of: plain Euclid, the
# unscaled Sturm chain, and the sign by refining alpha until g has one sign.

def reference_gcd(a: UPoly, b: UPoly) -> UPoly:
    """Monic gcd by the Fraction Euclid loop."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic()


def reference_sturm_chain(p: UPoly) -> list[UPoly]:
    """The Fraction Sturm chain of p's squarefree part: f, f', then negated
    remainders, none of them rescaled."""
    g = reference_gcd(p, p.derivative())
    f = p.divmod(g)[0].monic() if g.degree > 0 else p.monic()
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2].divmod(chain[-1])[1]))
    chain.pop()
    return chain


def reference_chain_count(chain: list[UPoly], lo: Fraction, hi: Fraction) -> int:
    """Sign variations of the chain at lo less those at hi, by Fraction Horner."""
    def variations(x: Fraction) -> int:
        signs = [s for s in (p(x) for p in chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    return variations(lo) - variations(hi)


def reference_count_roots(p: UPoly, lo: Rat, hi: Rat) -> int:
    """Distinct real roots of p in (lo, hi] from the Fraction Sturm chain."""
    lo, hi = _frac(lo), _frac(hi)
    return reference_chain_count(reference_sturm_chain(p), lo, hi) if lo < hi else 0


def reference_refine_root(p: UPoly, a: Fraction, b: Fraction,
                          width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisection of an isolating interval by Fraction Horner on p's
    squarefree part, as UPoly.refine_root first ran."""
    f = p.squarefree_part()
    fa = f(a)
    while b - a > width:
        m = (a + b) / 2
        fm = f(m)
        if fm == 0:
            return m, m
        if (fa > 0) != (fm > 0):
            b = m
        else:
            a, fa = m, fm
    return a, b


def reference_sign_of(alpha: AlgebraicNumber, g: UPoly) -> int:
    """The sign of g at alpha: 0 if g and alpha's polynomial have a common
    root in alpha's interval, else alpha is refined until g has no root on
    its interval and one sign at both ends."""
    if alpha.is_rational:
        v = g(alpha.lo)
        return (v > 0) - (v < 0)
    d = reference_gcd(g, alpha.poly)
    if d.degree >= 1 and reference_count_roots(d, alpha.lo, alpha.hi) == 1:
        return 0
    lo, hi = alpha.lo, alpha.hi
    chain = reference_sturm_chain(g)
    while True:
        vlo, vhi = g(lo), g(hi)
        if (vlo != 0 and vhi != 0 and (vlo > 0) == (vhi > 0)
                and reference_chain_count(chain, lo, hi) == 0):
            return 1 if vlo > 0 else -1
        lo, hi = alpha.poly.refine_root(lo, hi, (hi - lo) / 4)
        if lo == hi:
            v = g(lo)
            return (v > 0) - (v < 0)


def reference_clone_step(spec: ObjectiveSpec, g: Graph, lam: Fraction, x: int, y: int,
                         prefer_xy: bool) -> tuple[SymStep, Graph]:
    """The symmetrisation step with each candidate clone's lambda from a
    whole-graph walk, as ``symmetrise._clone_step`` first ran."""
    g_xy, g_yx = _clone(g, x, y), _clone(g, y, x)
    lam_xy, lam_yx = lambda_graph(spec, g_xy), lambda_graph(spec, g_yx)
    if lam_xy > lam_yx or (lam_xy == lam_yx and prefer_xy):
        new_g, new_lam, src, dst = g_xy, lam_xy, x, y
    else:
        new_g, new_lam, src, dst = g_yx, lam_yx, y, x
    if new_lam < lam:
        if spec.eligible:
            raise AssertionError("monotone clone missing for an eligible objective")
        raise SymmetrisationError("no monotone clone available")
    edited = (g.rows[dst] ^ new_g.rows[dst]).bit_count()
    return SymStep(src, dst, lam, new_lam, edited), new_g
