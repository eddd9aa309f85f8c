"""Objective specifications: a subset size k and an exact rational table
gamma over isomorphism classes of k-vertex graphs, together with the lambda /
Lambda averages they induce on finite graphs.

Objectives are built either from a raw table, from a single complete partite
density p(K_{a_1,...,a_l}, .), or from a linear combination of complete
partite densities (the symmetrisable family: coefficients of non-clique terms
must be >= 0 for the monotone-symmetrisation guarantee, tracked as
``eligible``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Optional, Sequence

from .graphs import Graph, class_index, class_key, class_keys, induced_count, iso_classes
from .polynomials import Rat, _frac


def _norm_partition(a: Sequence[int]) -> tuple[int, ...]:
    t = tuple(sorted((int(x) for x in a), reverse=True))
    if not t or any(x <= 0 for x in t):
        raise ValueError(f"bad partition {a!r}")
    return t


def partition_is_clique(a: Sequence[int]) -> bool:
    """K_{1,...,1} = complete graph."""
    return all(x == 1 for x in a)


class ObjectiveSpec:
    """gamma: canonical key of a k-vertex graph -> exact rational."""

    __slots__ = ("k", "gamma", "gamma_max", "provenance", "eligible", "label",
                 "_code_table")

    def __init__(self, k: int, gamma: Mapping[bytes, Fraction],
                 provenance: tuple, eligible: bool, label: str):
        if k < 3:
            raise ValueError("objective arity k must be >= 3")
        self.k = k
        self.gamma = dict(gamma)
        if set(self.gamma) != set(class_keys(k)):
            raise ValueError("gamma must cover every isomorphism class on k vertices")
        self.gamma_max = max(abs(v) for v in self.gamma.values())
        self.provenance = provenance
        self.eligible = eligible
        self.label = label
        self._code_table: Optional[list[Fraction]] = None

    def __repr__(self) -> str:
        return f"ObjectiveSpec({self.label!r}, k={self.k})"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_table(cls, k: int, table: Mapping[Graph, Rat], label: str = "table") -> "ObjectiveSpec":
        if any(g.n != k for g in table):
            raise ValueError(f"gamma table graphs must have k = {k} vertices")
        gamma = {class_key(g): _frac(v) for g, v in table.items()}
        if len(gamma) != len(table):
            raise ValueError("gamma table lists an isomorphism class twice")
        return cls(k, gamma, ("table",), eligible=False, label=label)

    @classmethod
    def combination(cls, terms: Iterable[tuple[Rat, Sequence[int]]],
                    k: int | None = None, label: str | None = None) -> "ObjectiveSpec":
        """Sum_F c_F * p(K_F, .) over complete partite F given as partitions."""
        tl = [(_frac(c), _norm_partition(a)) for c, a in terms]
        if not tl:
            raise ValueError("empty combination")
        kk = k if k is not None else max(sum(a) for _, a in tl)
        if any(sum(a) > kk for _, a in tl):
            raise ValueError("combination term larger than k")
        pats = [(c, Graph.complete_partite(a)) for c, a in tl]
        gamma = {}
        for key, f in zip(class_keys(kk), iso_classes(kk)):
            gamma[key] = sum((c * Fraction(induced_count(pat, f), comb(kk, pat.n))
                              for c, pat in pats), Fraction(0))
        eligible = all(c >= 0 or partition_is_clique(a) for c, a in tl)
        if label is None:
            label = " + ".join(f"{c}*KP {','.join(map(str, a))}" for c, a in tl)
        return cls(kk, gamma, ("combination", tuple(tl)), eligible, label)

    @classmethod
    def partite_density(cls, a: Sequence[int]) -> "ObjectiveSpec":
        """p(K_{a_1,...,a_l}, .) as an objective."""
        a = _norm_partition(a)
        return cls.combination([(1, a)], label="KP " + ",".join(map(str, a)))

    # -- evaluation ------------------------------------------------------------

    def gamma_of(self, g: Graph) -> Fraction:
        if g.n != self.k:
            raise ValueError("gamma defined on k-vertex graphs only")
        return self.gamma[class_key(g)]

    def code_table(self) -> list[Fraction]:
        """gamma indexed by raw upper-triangle code of a k-vertex graph (k <= 7)."""
        if self._code_table is None:
            keys, class_of_code = class_index(self.k)
            values = [self.gamma[key] for key in keys]
            self._code_table = [values[c] for c in class_of_code]
        return self._code_table

    def on_complete_partite(self, a: Sequence[int]) -> Fraction:
        """gamma(K_{a_1,...,a_l}) for a partition of k."""
        a = _norm_partition(a)
        if sum(a) != self.k:
            raise ValueError("partition must sum to k")
        return self.gamma_of(Graph.complete_partite(a))

    def partition_values(self) -> dict[tuple[int, ...], Fraction]:
        """gamma on every complete partite class, keyed by partition of k."""
        return {a: self.on_complete_partite(a) for a in partitions_of(self.k)}


def partitions_of(n: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n in non-increasing order."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        if max_parts is not None and len(acc) == max_parts:
            return
        for x in range(min(cap, remaining), 0, -1):
            acc.append(x)
            rec(remaining - x, x, acc)
            acc.pop()

    rec(n, n, [])
    return out


# ---------------------------------------------------------------------------
# Lambda / big-Lambda on finite graphs
# ---------------------------------------------------------------------------

def big_lambda(spec: ObjectiveSpec, g: Graph) -> Fraction:
    """Lambda(G) = sum over k-subsets X of gamma(G[X])."""
    if g.n < spec.k:
        raise ValueError("graph smaller than objective arity")
    table = spec.code_table()
    total = Fraction(0)
    for verts in itertools.combinations(range(g.n), spec.k):
        total += table[g.subset_code(verts)]
    return total


def lambda_graph(spec: ObjectiveSpec, g: Graph) -> Fraction:
    """lambda(G) = C(n,k)^{-1} Lambda(G): the mean of gamma over k-subsets."""
    return big_lambda(spec, g) / comb(g.n, spec.k)


def big_lambda_vertex(spec: ObjectiveSpec, g: Graph, v: int) -> Fraction:
    """Lambda(G, v) = sum over k-subsets containing v (= Lambda(G) - Lambda(G-v))."""
    if not 0 <= v < g.n:
        raise ValueError("vertex out of range")
    if g.n < spec.k:
        raise ValueError("graph smaller than objective arity")
    table = spec.code_table()
    others = [u for u in range(g.n) if u != v]
    total = Fraction(0)
    for rest in itertools.combinations(others, spec.k - 1):
        verts = tuple(sorted(rest + (v,)))
        total += table[g.subset_code(verts)]
    return total


def lambda_vertex(spec: ObjectiveSpec, g: Graph, v: int) -> Fraction:
    """lambda(G, v): mean of gamma over k-subsets conditioned on containing v."""
    return big_lambda_vertex(spec, g, v) / comb(g.n - 1, spec.k - 1)


def brute_lambda_max(spec: ObjectiveSpec, n: int) -> tuple[Fraction, list[Graph]]:
    """Exact max of lambda over all n-vertex graphs with all extremal classes.

    Enumerates isomorphism classes (equivalent to scanning all labeled graphs,
    since lambda is isomorphism-invariant); n <= 7.
    """
    if n > 7:
        raise ValueError("brute force limited to n <= 7")
    if n < spec.k:
        raise ValueError("need n >= k")
    best: Fraction | None = None
    witnesses: list[Graph] = []
    for g in iso_classes(n):
        val = lambda_graph(spec, g)
        if best is None or val > best:
            best = val
            witnesses = [g]
        elif val == best:
            witnesses.append(g)
    assert best is not None
    return best, witnesses
