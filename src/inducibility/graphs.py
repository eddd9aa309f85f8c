"""Finite graphs on up to 64 vertices as immutable bitset adjacency rows.

Provides canonical forms for n <= 8 and one class lookup, ``class_key``
(keying gamma tables by isomorphism class), exhaustive isomorphism-class
generation with a per-arity code-to-class index, induced-subgraph counting,
pair flips, exact edit distance by bijection search, complete-partite
detection, realised partite structures and the plain-text graph format.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Optional, Sequence

MAX_VERTICES = 64
CANON_MAX = 8
# class_index covers up to INDEX_MAX vertices (2^21 codes); class_key reads it
# only up to LOOKUP_MAX, because building the 7-vertex index costs far more
# than the canonical searches a 7-vertex spec build needs.
INDEX_MAX = 7
LOOKUP_MAX = 6


@dataclass(frozen=True)
class Graph:
    n: int
    rows: tuple[int, ...]  # rows[i] bit j set iff ij is an edge

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} out of range 0..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count mismatch")
        mask = (1 << self.n) - 1
        for i, r in enumerate(self.rows):
            if r & ~mask:
                raise ValueError("adjacency bit outside vertex range")
            if r >> i & 1:
                raise ValueError(f"self-loop at {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"asymmetric adjacency at ({i},{j})")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, tuple(0 for _ in range(n)))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        mask = (1 << n) - 1
        return cls(n, tuple(mask ^ (1 << i) for i in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def complete_partite(cls, sizes: Sequence[int]) -> "Graph":
        n = sum(sizes)
        rows = []
        start = 0
        full = (1 << n) - 1
        for s in sizes:
            part_mask = ((1 << s) - 1) << start
            for i in range(start, start + s):
                rows.append(full & ~part_mask)
            start += s
        return cls(n, tuple(rows))

    # -- basic queries --------------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.rows[i] >> j & 1]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbours(self, v: int) -> int:
        return self.rows[v]

    # -- transformations -------------------------------------------------------

    def flip(self, x: int, y: int) -> "Graph":
        """Toggle the adjacency of the pair {x, y}; an involution."""
        if x == y:
            raise ValueError("flip needs two distinct vertices")
        rows = list(self.rows)
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
        return Graph(self.n, tuple(rows))

    def delete_vertex(self, v: int) -> "Graph":
        keep = [i for i in range(self.n) if i != v]
        return self.induced(keep)

    def induced(self, verts: Sequence[int]) -> "Graph":
        pos = {u: i for i, u in enumerate(verts)}
        rows = []
        for u in verts:
            r = 0
            row = self.rows[u]
            for w, i in pos.items():
                if row >> w & 1:
                    r |= 1 << i
            rows.append(r)
        return Graph(len(verts), tuple(rows))

    def complement(self) -> "Graph":
        mask = (1 << self.n) - 1
        return Graph(self.n, tuple((mask ^ r) & ~(1 << i) for i, r in enumerate(self.rows)))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """perm[i] is the new label of old vertex i."""
        rows = [0] * self.n
        for i, r in enumerate(self.rows):
            ri = 0
            rr = r
            while rr:
                j = (rr & -rr).bit_length() - 1
                ri |= 1 << perm[j]
                rr &= rr - 1
            rows[perm[i]] = ri
        return Graph(self.n, tuple(rows))

    def add_vertex(self, neighbours_mask: int) -> "Graph":
        n = self.n
        rows = [r | ((neighbours_mask >> i & 1) << n) for i, r in enumerate(self.rows)]
        rows.append(neighbours_mask)
        return Graph(n + 1, tuple(rows))

    # -- induced subgraph codes -------------------------------------------------

    def subset_code(self, verts: Sequence[int]) -> int:
        """Upper-triangle adjacency bits of the induced subgraph, row-major."""
        code = 0
        bit = 0
        for a in range(len(verts)):
            ra = self.rows[verts[a]]
            for b in range(a + 1, len(verts)):
                if ra >> verts[b] & 1:
                    code |= 1 << bit
                bit += 1
        return code


def graph_from_code(k: int, code: int) -> Graph:
    rows = [0] * k
    bit = 0
    for a in range(k):
        for b in range(a + 1, k):
            if code >> bit & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
            bit += 1
    return Graph(k, tuple(rows))


# ---------------------------------------------------------------------------
# Canonical form (n <= 8)
# ---------------------------------------------------------------------------

def _refine_colours(g: Graph, colours: list[int]) -> list[int]:
    n = g.n
    while True:
        sigs = []
        for v in range(n):
            nb = []
            r = g.rows[v]
            while r:
                w = (r & -r).bit_length() - 1
                nb.append(colours[w])
                r &= r - 1
            sigs.append((colours[v], tuple(sorted(nb))))
        order = sorted(set(sigs))
        new = [order.index(s) for s in sigs]
        if new == colours:
            return colours
        colours = new


def canonical_key(g: Graph) -> bytes:
    """Canonical label of a graph on at most 8 vertices.

    Two graphs receive the same key iff they are isomorphic: the key is the
    lexicographically minimal upper-triangle code over all vertex orderings
    consistent with iterated colour refinement (with individualisation), which
    ranges over all orderings whenever refinement fails to split.
    """
    n = g.n
    if n > CANON_MAX:
        raise ValueError(f"canonical_key limited to n <= {CANON_MAX}")
    if n == 0:
        return bytes([0])
    base = _refine_colours(g, [0] * n)
    best: Optional[int] = None

    def rec(prefix: list[int], colours: list[int], partial_code: int, bit: int) -> None:
        nonlocal best
        if best is not None and partial_code > _mask_to(best, bit):
            return
        if len(prefix) == n:
            if best is None or partial_code < best:
                best = partial_code
            return
        placed = set(prefix)
        remaining = [v for v in range(n) if v not in placed]
        cand_colour = min(colours[v] for v in remaining)
        for v in remaining:
            if colours[v] != cand_colour:
                continue
            new_prefix = prefix + [v]
            code = partial_code
            b = bit
            ok = True
            for u in new_prefix[:-1]:
                code = code << 1 | (g.rows[u] >> v & 1)
                b += 1
            if best is not None and code > _mask_to(best, b):
                ok = False
            if ok:
                forced = [n + len(new_prefix) if w == v else colours[w] for w in range(n)]
                rec(new_prefix, _refine_colours(g, forced), code, b)

    def _mask_to(full: int, bits: int) -> int:
        total = n * (n - 1) // 2
        return full >> (total - bits)

    rec([], base, 0, 0)
    assert best is not None
    total = n * (n - 1) // 2
    return bytes([n]) + best.to_bytes((total + 7) // 8 or 1, "big")


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[bytes, ...], tuple[Graph, ...]]:
    """Canonical keys and representatives of the classes on n <= 8 vertices,
    in key order, by extending every class on n - 1 vertices."""
    if not 0 <= n <= CANON_MAX:
        raise ValueError("iso_classes limited to 0 <= n <= 8")
    if n == 0:
        return (canonical_key(Graph.empty(0)),), (Graph.empty(0),)
    out: dict[bytes, Graph] = {}
    for g in iso_classes(n - 1):
        for mask in range(1 << (n - 1)):
            h = g.add_vertex(mask)
            out.setdefault(canonical_key(h), h)
    keys = tuple(sorted(out))
    return keys, tuple(out[key] for key in keys)


def iso_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n <= 8 vertices, in canonical-key order."""
    return _classes(n)[1]


def class_keys(n: int) -> tuple[bytes, ...]:
    """The canonical key of each graph in iso_classes(n), in the same order."""
    return _classes(n)[0]


@lru_cache(maxsize=None)
def class_index(k: int) -> tuple[tuple[bytes, ...], tuple[int, ...]]:
    """``(keys, class_of_code)`` for k <= INDEX_MAX vertices.

    ``keys[c]`` is the canonical key of ``iso_classes(k)[c]`` and
    ``class_of_code[code]`` the class of the k-vertex graph with that
    upper-triangle code (``Graph.subset_code`` order). Filled by reading every
    class in all k! vertex orders, far cheaper than canonicalising each code.
    """
    if not 0 <= k <= INDEX_MAX:
        raise ValueError(f"class_index limited to k <= {INDEX_MAX}")
    class_of_code = [-1] * (1 << (k * (k - 1) // 2))
    for c, g in enumerate(iso_classes(k)):
        for order in itertools.permutations(range(k)):
            class_of_code[g.subset_code(order)] = c
    assert -1 not in class_of_code
    return class_keys(k), tuple(class_of_code)


def class_key(g: Graph) -> bytes:
    """The canonical key of g's class: read from class_index up to
    LOOKUP_MAX vertices, searched by canonical_key above that."""
    if g.n > LOOKUP_MAX:
        return canonical_key(g)
    keys, class_of_code = class_index(g.n)
    return keys[class_of_code[g.subset_code(range(g.n))]]


# ---------------------------------------------------------------------------
# Induced subgraph counting / edit distance
# ---------------------------------------------------------------------------

def induced_count(f: Graph, g: Graph) -> int:
    """P(F, G): number of v(F)-subsets of V(G) inducing a copy of F."""
    k, n = f.n, g.n
    if k > n:
        raise ValueError("pattern larger than host")
    if k > CANON_MAX:
        raise ValueError("pattern too large for canonical matching")
    if comb(n, k) > 10**8:
        raise ValueError("subset enumeration bound exceeded")
    target = class_key(f)
    return sum(class_key(g.induced(verts)) == target
               for verts in itertools.combinations(range(n), k))


def edit_distance_exact(g: Graph, h: Graph) -> Fraction:
    """Normalised edit distance 2/n^2 * min_sigma |E(H) xor E(sigma(G))|.

    Branch-and-bound over bijections sigma: V(G) -> V(H); exact for n <= 9.
    """
    if g.n != h.n:
        raise ValueError("edit distance needs equal orders")
    n = g.n
    if n > 9:
        raise ValueError("bijection enumeration limited to n <= 9")
    if n == 0:
        return Fraction(0)
    best = n * (n - 1) // 2 + 1

    rows_g, rows_h = g.rows, h.rows

    def rec(i: int, image: list[int], used: int, mismatches: int) -> None:
        nonlocal best
        if mismatches >= best:
            return
        if i == n:
            best = mismatches
            return
        for t in range(n):
            if used >> t & 1:
                continue
            mm = mismatches
            for j in range(i):
                if (rows_g[i] >> j & 1) != (rows_h[t] >> image[j] & 1):
                    mm += 1
                    if mm >= best:
                        break
            else:
                image.append(t)
                rec(i + 1, image, used | 1 << t, mm)
                image.pop()

    rec(0, [], 0, 0)
    return Fraction(2 * best, n * n)


# ---------------------------------------------------------------------------
# Complete partite shapes and structures
# ---------------------------------------------------------------------------

class CompletePartiteShape:
    """A complete partite graph up to isomorphism: multiset of part sizes.

    Stored run-length encoded so realisations with millions of singleton
    (clique) parts stay cheap; size-1 parts collectively form the clique set.
    """

    __slots__ = ("counts",)

    def __init__(self, sizes: Iterable[int] = (), counts: Iterable[tuple[int, int]] = ()):
        agg: dict[int, int] = {}
        for s in sizes:
            if s <= 0:
                raise ValueError("part sizes must be positive")
            agg[s] = agg.get(s, 0) + 1
        for s, c in counts:
            if s <= 0 or c < 0:
                raise ValueError("bad size multiplicity")
            if c:
                agg[s] = agg.get(s, 0) + c
        self.counts: tuple[tuple[int, int], ...] = tuple(sorted(agg.items(), reverse=True))

    @property
    def n(self) -> int:
        return sum(s * c for s, c in self.counts)

    @property
    def part_sizes(self) -> list[int]:
        out = []
        for s, c in self.counts:
            out.extend([s] * c)
        return out

    def clique_size(self) -> int:
        """Number of size-1 parts (the universal clique V0)."""
        for s, c in self.counts:
            if s == 1:
                return c
        return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, CompletePartiteShape) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        return f"CompletePartiteShape({self.part_sizes})"

    def graph(self) -> Graph:
        if self.n > MAX_VERTICES:
            raise ValueError("shape too large to realise as a Graph")
        return Graph.complete_partite(self.part_sizes)


def complete_partite_parts(g: Graph, within: int) -> Optional[list[int]]:
    """Part masks of the subgraph induced on the vertex mask ``within`` iff it
    is complete partite (non-adjacency is transitive), in order of lowest vertex."""
    parts: list[int] = []
    rest = within
    while rest:
        v = (rest & -rest).bit_length() - 1
        part = within & ~g.rows[v]  # v plus its non-neighbours
        # every member must have exactly this non-neighbourhood
        m = part
        while m:
            w = (m & -m).bit_length() - 1
            if (within & ~g.rows[w]) != part:
                return None
            m &= m - 1
        parts.append(part)
        rest &= ~part
    return parts


def complete_partite_shape_of(g: Graph) -> Optional[CompletePartiteShape]:
    """The shape of g iff g is complete partite."""
    parts = complete_partite_parts(g, (1 << g.n) - 1)
    return None if parts is None else CompletePartiteShape(p.bit_count() for p in parts)


@dataclass(frozen=True)
class PartiteStructure:
    """Vertex sets of a realised complete partite graph.

    ``parts[i]`` are the independent parts indexed like the defining vector
    (1-based part i is parts[i-1]); v0 lists the universal clique vertices.
    """

    parts: tuple[tuple[int, ...], ...]
    v0: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts) + len(self.v0)

    def part_of(self, v: int) -> int:
        """0 for clique vertices, i >= 1 for part i."""
        for i, p in enumerate(self.parts):
            if v in p:
                return i + 1
        if v in self.v0:
            return 0
        raise ValueError(f"vertex {v} not in structure")

    def shape(self) -> CompletePartiteShape:
        return CompletePartiteShape(sizes=[len(p) for p in self.parts],
                                    counts=[(1, len(self.v0))])

    def graph(self) -> Graph:
        n = self.n
        full = (1 << n) - 1
        rows = [0] * n
        for p in self.parts:
            mask = 0
            for v in p:
                mask |= 1 << v
            for v in p:
                rows[v] = full & ~mask
        for v in self.v0:
            rows[v] = full & ~(1 << v)
        return Graph(n, tuple(rows))

    def validate_against(self, g: Graph) -> None:
        if g != self.graph():
            raise ValueError("partition inconsistent with graph")


def attach(g: Graph, structure: PartiteStructure, b: dict[int, int],
           alpha: Fraction) -> Graph:
    """G +_{b,alpha} u: a new last vertex joined to part i when b(i)=1 and to
    the floor(alpha*|V0|) lowest-indexed clique vertices."""
    structure.validate_against(g)
    if not 0 <= alpha <= 1:
        raise ValueError("alpha outside [0,1]")
    mask = 0
    for i, bit in b.items():
        if not 1 <= i <= len(structure.parts):
            raise ValueError(f"pattern index {i} outside structure")
        if bit:
            for v in structure.parts[i - 1]:
                mask |= 1 << v
    v0_sorted = sorted(structure.v0)
    take = int(alpha * len(v0_sorted))  # floor
    for v in v0_sorted[:take]:
        mask |= 1 << v
    return g.add_vertex(mask)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_graph_text(text: str) -> Graph:
    """Format: first line "n <count>", then one "u v" edge per line.

    Blank lines and lines starting with '#' are ignored.
    """
    n: Optional[int] = None
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError("graph text must start with 'n <count>'")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("empty graph text")
    return Graph.from_edges(n, edges)


def write_graph_text(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges()))
    return "\n".join(lines) + "\n"
