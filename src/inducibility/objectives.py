"""Objective specifications: a subset size k and an exact rational isomorphism
invariant gamma of k-vertex graphs, with the lambda / Lambda averages it
induces on finite graphs.

Objectives are built from a raw table over isomorphism classes, or from a
linear combination of complete partite densities p(K_{a_1,...,a_l}, .),
counted by complete partite shape without classes (the symmetrisable family:
non-clique coefficients must be >= 0 for monotone symmetrisation, ``eligible``).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Iterable, Mapping, Sequence

from .graphs import (CANON_MAX, CLASS_COUNTS, CompletePartiteShape, Graph, canonical_key,
                     class_key, code_of_key, extension_codes, extension_masks, graph_from_code,
                     iso_classes, key_of_code, new_vertex_maximal, shape_of_code, subset_codes)
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
    """gamma: an exact rational isomorphism invariant of k-vertex graphs, by upper-triangle
    code (the code table) or canonical key (``gamma``, which a combination fills key by key
    on reads); scale: a common denominator of its values. Only a table spec keeps classes."""

    __slots__ = ("k", "gamma", "scale", "eligible", "label", "_code_table", "_partition_values")

    def __init__(self, k: int, gamma: Mapping[bytes, Fraction] | None, scale: int,
                 scaled: Callable[[int], int], eligible: bool, label: str):
        if k < 3:
            raise ValueError("objective arity k must be >= 3")
        self.k = k
        self.scale = scale
        self.eligible = eligible
        self.label = label
        self._code_table = _Filled(scaled)
        self.gamma = _Filled(self._decoded_gamma) if gamma is None else gamma
        self._partition_values: dict[tuple[int, ...], Fraction] | None = None

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
        # the keys are classes on k vertices, so covering all of them is a count
        if k > CANON_MAX or len(gamma) != CLASS_COUNTS[k]:
            raise ValueError("gamma must cover every isomorphism class on k vertices")
        scale = lcm(*(v.denominator for v in gamma.values()))
        return cls(k, gamma, scale, lambda code: int(gamma[key_of_code(k, code)] * scale),
                   eligible=False, label=label)

    @classmethod
    def combination(cls, terms: Iterable[tuple[Rat, Sequence[int]]],
                    label: str | None = None) -> "ObjectiveSpec":
        """Sum_F c_F * p(K_F, .) over complete partite F given as partitions:
        gamma(G) is Sum_F c_F #(|F|-subsets of G inducing K_F) / C(k, |F|),
        counted by complete partite shape, with scale lcm_F(den(c_F) C(k, |F|)).
        The arity k is the largest |F|; a term 0 * KP 1,...,1 on k vertices
        raises it to k and changes neither gamma nor scale."""
        tl = [(_frac(c), _norm_partition(a)) for c, a in terms]
        if not tl:
            raise ValueError("empty combination")
        kk = max(sum(a) for _, a in tl)
        if kk > CANON_MAX:
            raise ValueError(f"objective arity k = {kk} exceeds the {CANON_MAX}-vertex limit "
                             "of the isomorphism-class tables")
        scale = lcm(*(c.denominator * comb(kk, sum(a)) for c, a in tl))
        weights: Counter = Counter()  # gamma * scale per copy of K_F, an int
        for c, a in tl:
            weights[CompletePartiteShape(a)] += int(c * scale / comb(kk, sum(a)))
        sizes = tuple(sorted({sum(a) for _, a in tl}))
        value_of = lru_cache(maxsize=None)(lambda sig: sum(weights[s] * n for s, n in sig))
        eligible = all(c >= 0 or partition_is_clique(a) for c, a in tl)
        if label is None:
            label = " + ".join(f"{c}*KP {','.join(map(str, a))}" for c, a in tl)
        return cls(kk, None, scale, lambda code: value_of(_shape_signature(kk, sizes, code)),
                   eligible, label)

    @classmethod
    def partite_density(cls, a: Sequence[int]) -> "ObjectiveSpec":
        """p(K_{a_1,...,a_l}, .) as an objective."""
        a = _norm_partition(a)
        return cls.combination([(1, a)], label="KP " + ",".join(map(str, a)))

    # -- evaluation ------------------------------------------------------------

    def gamma_of(self, g: Graph) -> Fraction:
        if g.n != self.k:
            raise ValueError("gamma defined on k-vertex graphs only")
        return Fraction(self._code_table[g.subset_code(range(self.k))], self.scale)

    def _decoded_gamma(self, key: bytes) -> Fraction:
        """gamma at a canonical key, decoded to a code (``code_of_key``), not labelled."""
        k, code = self.k, code_of_key(key)
        if key[:1] != bytes([k]) or len(key) != 1 + (comb(k, 2) + 7) // 8 or code >> comb(k, 2):
            raise KeyError(key)
        return Fraction(self._code_table[code], self.scale)

    def code_table(self) -> dict[int, int]:
        """gamma * scale by raw upper-triangle code of a k-vertex graph, as ints,
        filled on first read.

        gamma * scale is integral, so every sum of gamma over subsets or draws
        is an integer sum over this table; its reader makes the one Fraction
        of its result by dividing by scale once.
        """
        return self._code_table

    def on_complete_partite(self, a: Sequence[int]) -> Fraction:
        """gamma(K_{a_1,...,a_l}) for a partition of k."""
        a = _norm_partition(a)
        if sum(a) != self.k:
            raise ValueError("partition must sum to k")
        return self.gamma_of(Graph.complete_partite(a))

    def partition_values(self) -> dict[tuple[int, ...], Fraction]:
        """gamma on every complete partite class, keyed by partition of k.

        Built on the first call and shared by every later one, so callers
        must not mutate it.
        """
        if self._partition_values is None:
            self._partition_values = {a: self.on_complete_partite(a)
                                      for a in partitions_of(self.k)}
        return self._partition_values

    def partition_weights(self) -> dict[tuple[int, ...], int]:
        """gamma * scale on the complete partite classes where gamma is
        nonzero, as ints, keyed by partition of k in partitions_of order."""
        scale = self.scale
        return {a: v.numerator * (scale // v.denominator)
                for a, v in self.partition_values().items() if v}


class _Filled(dict):
    """A dict that fills each key from a function of it on the key's first read."""

    def __init__(self, fill: Callable):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


@lru_cache(maxsize=None)
def _shape_signature(k: int, sizes: tuple[int, ...], code: int) -> tuple:
    """(shape, count) of each complete partite shape among the subsets, of a
    size in ``sizes``, of the k-vertex graph with upper-triangle code ``code``."""
    g = graph_from_code(k, code) if sizes[0] < k else None
    found = Counter(shape_of_code(m, c) for m in sizes
                    for c in (subset_codes(g, m) if m < k else (code,)))
    found.pop(None, None)
    return tuple(found.items())


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
    return Fraction(sum(table[code] for code in subset_codes(g, spec.k)), spec.scale)


def lambda_graph(spec: ObjectiveSpec, g: Graph) -> Fraction:
    """lambda(G) = C(n,k)^{-1} Lambda(G): the mean of gamma over k-subsets."""
    return big_lambda(spec, g) / comb(g.n, spec.k)


def brute_lambda_max(spec: ObjectiveSpec, n: int) -> tuple[Fraction, list[Graph]]:
    """Exact max of lambda over all n-vertex graphs with all extremal classes;
    n <= 7.

    Scans the canonical-deletion candidates (``graphs.extension_candidates``),
    which contain every class, so their maximum is the maximum over all
    graphs. A candidate h extends a class g by a vertex v joined to ``mask``,
    and Lambda(h) = Lambda(g) + Lambda(h, v): Lambda(g) is taken once per g,
    and Lambda(h, v) from ``extension_codes``, which walks g once for all its
    masks. Values are compared as integer sums over the spec's code table
    (gamma * scale); only the maximum becomes a Fraction. Only the
    maximising candidates are canonically labelled; the first one per key is
    kept, in key order, which is the member and the order ``iso_classes(n)``
    holds.

    The scan is a branch and bound over the masks of the degree prefilter
    (``graphs.extension_masks``): each is scored first, and h is built and
    tested for candidacy (``graphs.new_vertex_maximal``) only when its total
    is at least the best candidate's so far. Any extension is some n-vertex
    graph, so a mask below the running best cannot be a maximiser; the cut
    is strict, so every candidate that ties the final maximum is tested and
    kept, in scan order.

    At n = 7, with iso_classes(6) built, the scan takes 0.02-0.07 s in
    process for the k = 4 and 5 objectives of the benchmark, against
    0.05-0.10 s when every mask was tested first (2-vCPU VM). The worst
    case is a constant gamma: every mask ties, every extension is tested,
    and every candidate is a maximiser and is labelled, as many graphs as
    building ``iso_classes(7)`` labels. A table spec with k >= 6 also labels
    each distinct k-vertex code on its first read (``key_of_code``), the
    codes of masks that fail the candidacy test included.
    """
    if n > 7:
        raise ValueError("brute force limited to n <= 7")
    k = spec.k
    if n < k:
        raise ValueError("need n >= k")
    weight = spec.code_table()
    best: int | None = None
    top: list[Graph] = []
    for g in iso_classes(n - 1):
        through_v = extension_codes(g, k)
        base = sum(weight[code] for code in subset_codes(g, k))
        for mask in extension_masks(g):
            total = base + sum(weight[code] for code in through_v(mask))
            if best is not None and total < best:
                continue
            h = g.add_vertex(mask)
            if not new_vertex_maximal(h):
                continue
            if best is None or total > best:
                best, top = total, [h]
            else:
                top.append(h)
    assert best is not None
    first: dict[bytes, Graph] = {}
    for h in top:
        first.setdefault(canonical_key(h), h)
    return Fraction(best, spec.scale * comb(n, k)), [first[key] for key in sorted(first)]
