"""Test-only references and fixtures: independent float and graph routes that
the program itself does not need, and the negative strictness fixture."""

import operator
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb

from inducibility.graphs import (CompletePartiteShape, Graph, class_keys,
                                 complete_partite_shape_of, graph_from_code, iso_classes,
                                 subset_codes)
from inducibility.objectives import ObjectiveSpec, partitions_of
from inducibility.optsearch import _FloatPlan
from inducibility.partite import PartiteVector, lambda_free, vertex_groups


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


def realised_graph(sizes: dict[int, int]) -> Graph:
    """The realisation with these group sizes (partite.realise) as a graph,
    its vertices laid out by partite.vertex_groups: two vertices are joined
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

