"""Finite graphs on up to 64 vertices as immutable bitset adjacency rows.

Provides the one k-subset walk (``subset_codes``), canonical forms for
n <= 8, one class lookup (``key_of_code``, a code-to-class map filled on
demand, and ``class_key`` over it; it keys gamma tables by isomorphism
class), isomorphism-class generation by canonical deletion, induced-subgraph
counting, exact edit distance by bijection search, complete-partite detection
(by code, memoised: ``shape_of_code``), partite structures and a text format.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence

MAX_VERTICES = 64
CANON_MAX = 8
CLASS_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)  # classes on n <= 8 vertices, A000088
LOOKUP_MAX = 5  # key_of_code files a class under all k! codes up to this k


class Graph:
    """A graph on n vertices; rows[i] has bit j set iff ij is an edge.
    Compared and hashed by value (gamma tables key on graphs), so treat it
    as immutable."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} out of range 0..{MAX_VERTICES}")
        if len(rows) != n:
            raise ValueError("row count mismatch")
        mask = (1 << n) - 1
        for i, r in enumerate(rows):
            if r & ~mask:
                raise ValueError("adjacency bit outside vertex range")
            if r >> i & 1:
                raise ValueError(f"self-loop at {i}")
        for i in range(n):
            for j in range(i + 1, n):
                if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                    raise ValueError(f"asymmetric adjacency at ({i},{j})")
        self.n = n
        self.rows = rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, tuple(0 for _ in range(n)))

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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    # -- transformations -------------------------------------------------------

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


def subset_codes(g: Graph, k: int, through: Optional[int] = None) -> Iterator[int]:
    """The ``Graph.subset_code`` of every k-subset of g's vertices, in
    ``itertools.combinations`` order; with ``through``, of those subsets
    that contain that vertex only. The one subset walk of the package.

    A subset is a (k-1)-prefix plus a last vertex. The prefix's code is kept
    level by level and redone only from the first vertex that changed since
    the previous prefix; a subset adds the k - 1 bits of its last vertex.
    """
    if through is not None and not 0 <= through < g.n:
        raise ValueError("vertex out of range")
    if k == 0:
        if through is None:
            yield 0  # the empty subset
        return
    n, rows = g.n, g.rows
    bits = _pair_bits(k)
    codes = [0] * k  # codes[d]: the code of the first d vertices of prev
    prev: tuple[int, ...] = ()
    for prefix in itertools.combinations(range(n - 1), k - 1):
        last = prefix[-1] if prefix else -1
        if through is None or through in prefix:
            ends: Iterable[int] = range(last + 1, n)
        elif last < through:
            ends = (through,)
        elif prefix[0] > through:
            return  # every later prefix lies above `through` too
        else:
            continue
        same = 0  # prefix[:same] = prev[:same], so codes[:same + 1] still hold
        while same < len(prev) and prev[same] == prefix[same]:
            same += 1
        for d in range(same, k - 1):
            row = rows[prefix[d]]
            code = codes[d]
            for v, bit in zip(prefix, bits[d]):
                if row >> v & 1:
                    code |= bit
            codes[d + 1] = code
        prev = prefix
        for w in ends:
            row = rows[w]
            code = codes[k - 1]
            for v, bit in zip(prefix, bits[k - 1]):
                if row >> v & 1:
                    code |= bit
            yield code


@lru_cache(maxsize=None)
def _pair_bits(k: int) -> tuple[tuple[int, ...], ...]:
    """[d][a]: the bit of the pair (a, d) in the row-major code of k vertices."""
    return tuple(tuple(1 << a * (2 * k - a - 1) // 2 + d - a - 1 for a in range(d))
                 for d in range(k))


def _permuted_codes(g: Graph) -> Iterator[int]:
    """``g.subset_code(order)`` for every order of g's vertices, the prefix codes
    redone only from the first position that changed, as in ``subset_codes``."""
    n, rows, bits = g.n, g.rows, _pair_bits(g.n)
    codes = [0] * (n + 1)  # codes[d]: the code of the first d vertices of prev
    prev: tuple[int, ...] = ()
    for order in itertools.permutations(range(n)):
        same = 0
        while same < len(prev) and prev[same] == order[same]:
            same += 1
        for d in range(same, n):
            row = rows[order[d]]
            code = codes[d]
            for v, bit in zip(order, bits[d]):
                if row >> v & 1:
                    code |= bit
            codes[d + 1] = code
        prev = order
        yield codes[n]


def extension_codes(g: Graph, k: int) -> Callable[[int], Iterator[int]]:
    """The map mask -> ``subset_codes(g.add_vertex(mask), k, through=g.n)``:
    the same codes in the same order, with g's adjacency walked once rather
    than once per mask. A subset's code is the OR of its code with the new
    vertex isolated and its code in the star joining the new vertex to
    ``mask``, and the star's codes depend on g.n and k alone."""
    apart = tuple(subset_codes(g.add_vertex(0), k, through=g.n))
    stars = _star_codes(g.n, k)
    return lambda mask: map(operator.or_, stars[mask], apart)


@lru_cache(maxsize=None)
def _star_codes(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """By mask < 2**m, the codes of the k-subsets through vertex m of the
    graph on m + 1 vertices whose only edges join m to ``mask``."""
    return tuple(tuple(subset_codes(Graph.empty(m).add_vertex(mask), k, through=m))
                 for mask in range(1 << m))


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

def _refine_colours(nbrs: Sequence[Sequence[int]], colours: list[int]) -> list[int]:
    """Iterated colour refinement: recolour each vertex by the rank of
    (its colour, its sorted neighbour colours) until nothing changes.

    A round that splits no colour class only renumbers the colours by rank,
    and every later round repeats it, so that round's ranks are the result.
    """
    count = len(set(colours))
    while True:
        sigs = [(colours[v], tuple(sorted([colours[w] for w in nb])))
                for v, nb in enumerate(nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colours = [rank[s] for s in sigs]
        if len(rank) == count:
            return colours
        count = len(rank)


def canonical_key(g: Graph) -> bytes:
    """Canonical label of a graph on at most 8 vertices.

    Two graphs receive the same key iff they are isomorphic: the key is the
    lexicographically minimal upper-triangle code over all vertex orderings
    consistent with iterated colour refinement (with individualisation), which
    ranges over all orderings whenever refinement fails to split.

    Two prunings skip only subtrees whose codes another branch already yields,
    so the minimum, and hence the key, is unchanged:

    * twins: in the target cell a candidate v is skipped when an already tried
      w has the same neighbours apart from v and w. Swapping v and w is an
      automorphism that fixes every placed vertex and the colouring, so it
      maps the subtree under w onto the subtree under v code for code;
    * discrete leaf: once every colour is distinct, individualising the
      lowest-coloured unplaced vertex only moves it to the top of the order,
      so the search would place the rest in ascending colour; that leaf is
      scored directly.
    """
    n = g.n
    if n > CANON_MAX:
        raise ValueError(f"canonical_key limited to n <= {CANON_MAX}")
    if n == 0:
        return bytes([0])
    rows = g.rows
    nbrs = [[w for w in range(n) if r >> w & 1] for r in rows]
    total = n * (n - 1) // 2
    best: Optional[int] = None

    def extend(prefix: list[int], code: int, v: int) -> int:
        for u in prefix:
            code = code << 1 | (rows[u] >> v & 1)
        return code

    def rec(prefix: list[int], colours: list[int], code: int, bit: int) -> None:
        nonlocal best
        if best is not None and code > best >> (total - bit):
            return
        placed = set(prefix)
        remaining = [v for v in range(n) if v not in placed]
        if len(set(colours)) == n:
            for v in sorted(remaining, key=colours.__getitem__):
                code = extend(prefix, code, v)
                prefix = prefix + [v]
            if best is None or code < best:
                best = code
            return
        cell_colour = min(colours[v] for v in remaining)
        b = bit + len(prefix)
        tried: list[int] = []
        for v in remaining:
            if colours[v] != cell_colour or any(
                    rows[v] & ~(1 << w) == rows[w] & ~(1 << v) for w in tried):
                continue
            tried.append(v)
            c = extend(prefix, code, v)
            if best is not None and c > best >> (total - b):
                continue
            forced = list(colours)
            forced[v] = n + len(prefix) + 1
            rec(prefix + [v], _refine_colours(nbrs, forced), c, b)

    rec([], _refine_colours(nbrs, [0] * n), 0, 0)
    assert best is not None
    return bytes([n]) + best.to_bytes((total + 7) // 8 or 1, "big")


def code_of_key(key: bytes) -> int:
    """An upper-triangle code of the class ``key`` names: the key's code, column-major
    with (0, 1) in the top bit, is the code of its form with the vertex order reversed."""
    return int.from_bytes(key[1:], "big")


def _invariant(g: Graph, v: int) -> tuple[int, int]:
    """(degree, sum of neighbour degrees) of v: an isomorphism invariant."""
    row = g.rows[v]
    return row.bit_count(), sum(g.rows[w].bit_count() for w in range(g.n) if row >> w & 1)


def extension_candidates(n: int) -> Iterator[tuple[Graph, int, Graph]]:
    """The canonical-deletion candidates on 1 <= n <= 8 vertices (McKay,
    J. Algorithms 26, 1998): (g, mask, h) for each class g in
    iso_classes(n - 1), in that order, and each ``mask`` in increasing order
    whose extension h = g.add_vertex(mask) has its new vertex n - 1
    maximising ``_invariant`` among h's vertices.

    Every class on n vertices is among the h: any H has a vertex u of
    maximum invariant, H - u is isomorphic to some g, and the isomorphism
    carries H onto an extension of g whose new vertex has u's (maximum)
    value. A class may appear more than once.
    """
    if not 1 <= n <= CANON_MAX:
        raise ValueError("extension candidates limited to 1 <= n <= 8")
    for g in iso_classes(n - 1):
        deg = [r.bit_count() for r in g.rows]
        top = max(deg, default=0)
        # v's degree is at least every other degree in h iff
        # popcount(mask) >= deg[u] + bit u of mask for every u, that is iff
        # popcount(mask) >= top and mask avoids every u with deg[u] = popcount
        at_degree = [sum(1 << u for u in range(n - 1) if deg[u] == d) for d in range(n)]
        for mask in range(1 << (n - 1)):
            d = mask.bit_count()
            if d < top or mask & at_degree[d]:
                continue
            h = g.add_vertex(mask)
            mine = _invariant(h, n - 1)
            if any(_invariant(h, u) > mine for u in range(n - 1)):
                continue
            yield g, mask, h


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[bytes, ...], tuple[Graph, ...]]:
    """Canonical keys and representatives of the classes on n <= 8 vertices,
    in key order: the ``extension_candidates`` canonically labelled, the
    first one per key kept. A representative is whichever member of its
    class is found first, so only the keys are canonical.
    """
    if not 0 <= n <= CANON_MAX:
        raise ValueError("iso_classes limited to 0 <= n <= 8")
    if n == 0:
        return (canonical_key(Graph.empty(0)),), (Graph.empty(0),)
    out: dict[bytes, Graph] = {}
    for _, _, h in extension_candidates(n):
        out.setdefault(canonical_key(h), h)
    keys = tuple(sorted(out))
    return keys, tuple(out[key] for key in keys)


def iso_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on n <= 8 vertices, in canonical-key order.

    None is missed: every class extends a class on n - 1 vertices by a vertex
    of maximum (degree, sum of neighbour degrees), the only extensions
    ``extension_candidates`` yields. Each graph is any one member of its
    class, not a canonical form; its key is ``class_keys(n)`` at the same
    index."""
    return _classes(n)[1]


def class_keys(n: int) -> tuple[bytes, ...]:
    """The canonical key of each graph in iso_classes(n), in the same order."""
    return _classes(n)[0]


_KEY_OF_CODE: dict[int, dict[int, bytes]] = {}


def key_of_code(k: int, code: int) -> bytes:
    """The canonical key of the k-vertex graph with upper-triangle code
    ``code`` (``Graph.subset_code`` order), memoised. A miss runs one canonical
    search and files its key under all k! codes of the class up to LOOKUP_MAX
    vertices, under ``code`` alone above that: a 6-vertex class has up to 720
    codes, and filing them all costs more than the searches it saves."""
    codes = _KEY_OF_CODE.setdefault(k, {})
    key = codes.get(code)
    if key is None:
        g = graph_from_code(k, code)
        key = canonical_key(g)
        for other in _permuted_codes(g) if k <= LOOKUP_MAX else [code]:
            codes[other] = key
    return key


def class_key(g: Graph) -> bytes:
    """The canonical key of g's class."""
    return key_of_code(g.n, g.subset_code(range(g.n)))


# ---------------------------------------------------------------------------
# Induced subgraph counting / edit distance
# ---------------------------------------------------------------------------

def induced_count(f: Graph, g: Graph) -> int:
    """P(F, G): number of v(F)-subsets of V(G) inducing a copy of F."""
    k, n = f.n, g.n
    if k > n:
        raise ValueError("pattern larger than host")
    if comb(n, k) > 10**8:
        raise ValueError("subset enumeration bound exceeded")
    target = class_key(f)
    return sum(key_of_code(k, code) == target for code in subset_codes(g, k))


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

    Stored run-length encoded as counts = ((size, multiplicity), ...), sizes
    descending; size-1 parts collectively form the clique set. Pattern counts
    (partite.count_partite) multiply one generating-function factor
    (1 + sum_j C(size, d_j) z_j)^multiplicity per group, so realisations with
    millions of singleton (clique) parts stay cheap.
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

    def __eq__(self, other) -> bool:
        return isinstance(other, CompletePartiteShape) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        return f"CompletePartiteShape({self.part_sizes})"


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


@lru_cache(maxsize=None)
def shape_of_code(m: int, code: int) -> Optional[CompletePartiteShape]:
    """``complete_partite_shape_of`` the m-vertex graph of ``code``, memoised."""
    return complete_partite_shape_of(graph_from_code(m, code))


class PartiteStructure:
    """Vertex sets of a realised complete partite graph, compared by value.

    ``parts[i]`` are the independent parts indexed like the defining vector
    (1-based part i is parts[i-1]); v0 lists the universal clique vertices.
    """

    __slots__ = ("parts", "v0")

    def __init__(self, parts: tuple[tuple[int, ...], ...], v0: tuple[int, ...]):
        self.parts = parts
        self.v0 = v0

    def __eq__(self, other) -> bool:
        return (isinstance(other, PartiteStructure)
                and self.parts == other.parts and self.v0 == other.v0)

    def __hash__(self) -> int:
        return hash((self.parts, self.v0))

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts) + len(self.v0)

    def group_sizes(self) -> dict[int, int]:
        """Vertex count of each nonempty group: i >= 1 for part i, 0 for the clique."""
        sizes = {i: len(p) for i, p in enumerate(self.parts, start=1) if p}
        if self.v0:
            sizes[0] = len(self.v0)
        return sizes

    def part_of(self, v: int) -> int:
        """0 for clique vertices, i >= 1 for part i."""
        for i, p in enumerate(self.parts):
            if v in p:
                return i + 1
        if v in self.v0:
            return 0
        raise ValueError(f"vertex {v} not in structure")

    def shape(self) -> CompletePartiteShape:
        return CompletePartiteShape(sizes=[len(p) for p in self.parts if p],
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
