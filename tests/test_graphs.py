import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

from inducibility import graphs
from inducibility.graphs import (CompletePartiteShape, Graph, PartiteStructure,
                                 canonical_key, class_key, class_keys, code_of_key,
                                 complete_partite_shape_of, edit_distance_exact,
                                 graph_from_code, induced_count, iso_classes, key_of_code,
                                 parse_graph_text, write_graph_text)

from helpers import attach, complement, flip


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or len(g.edges()) != len(h.edges()):
        return False
    for perm in itertools.permutations(range(g.n)):
        if g.induced(perm) == h:
            return True
    return False


def naive_induced_count(f: Graph, g: Graph) -> int:
    return sum(1 for verts in itertools.combinations(range(g.n), f.n)
               if naive_isomorphic(g.induced(verts), f))


def test_canonical_key_isomorphism_invariance():
    rng = random.Random(5)
    k3 = Graph.complete_partite([1] * 3)
    for _ in range(20):
        perm = list(range(3))
        rng.shuffle(perm)
        assert canonical_key(k3.induced(perm)) == canonical_key(k3)
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert canonical_key(p3) != canonical_key(k3)


def test_canonical_key_separates_all_classes_on_4():
    # oracle: enumerate all 2^6 labeled graphs and bucket by key
    buckets = {}
    for code in range(64):
        g = graph_from_code(4, code)
        buckets.setdefault(canonical_key(g), []).append(g)
    assert len(buckets) == 11
    for group in buckets.values():
        base = group[0]
        for other in group[1:]:
            assert naive_isomorphic(base, other)


def test_canonical_key_rejects_large():
    with pytest.raises(ValueError):
        canonical_key(Graph.empty(9))


def test_iso_class_counts():
    """graphs.CLASS_COUNTS, which a table spec's coverage check reads, is the
    number of classes iso_classes finds."""
    assert graphs.CLASS_COUNTS == (1, 1, 2, 4, 11, 34, 156, 1044, 12346)  # A000088
    assert [len(iso_classes(n)) for n in range(9)] == list(graphs.CLASS_COUNTS)
    with pytest.raises(ValueError):
        iso_classes(-1)


# sha256 of b"".join(class_keys(n)): the keys and their order are pinned
CLASS_KEYS_SHA256 = [
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
    "e14b77bb203317724ad98b20cf058c977a65f1fbb20c40b5b71b9f063f68c64a",
    "4baf3bbd7d9d9c85b869d826c8d834a5c0f4f20f80dd1e5743a3b195210fa833",
    "36aae959a2f5d52433edea3c64bf7dd30283d8441398217ad4577344c745680f",
    "fc6171ef305363b8f7ad37e3d0da9d7efaaa5b990751e7256404e286306856a3",
    "e5ee78d998c2cfd04b9ae9fe8235f2e052664bf5e140c7045112fba9c6e5ae7d",
    "1c6980c42dfec83fd60003bd1534ca08ca342fdf1d073ae1e016726d9a08ca43",
    "2249f5281c3f7c1844d5628751a4a95c35c9945d23721b3898a1ca0c0ea2ad5b",
]


@pytest.mark.parametrize("n", range(9))
def test_class_keys_pinned(n):
    assert hashlib.sha256(b"".join(class_keys(n))).hexdigest() == CLASS_KEYS_SHA256[n]


def _symmetric_8():
    """Highly symmetric 8-vertex graphs, where the search prunes the most."""
    cube = Graph.from_edges(8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                                if (a ^ b).bit_count() == 1])
    named = {
        "K8": Graph.complete_partite([1] * 8), "E8": Graph.empty(8),
        "K44": Graph.complete_partite([4, 4]), "K2222": Graph.complete_partite([2, 2, 2, 2]),
        "K431": Graph.complete_partite([4, 3, 1]),
        "C8": Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]),
        "Q3": cube, "4K2": Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    }
    # complements not already listed (that of K8 is E8, that of 4K2 is K2222)
    for name in ("K44", "K431", "C8", "Q3"):
        named["co-" + name] = complement(named[name])
    return named


def _triangles(g: Graph) -> int:
    return sum(1 for a, b, c in itertools.combinations(range(g.n), 3)
               if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c))


def test_canonical_key_symmetric_8():
    named = _symmetric_8()
    rng = random.Random(8)
    for g in named.values():
        key = canonical_key(g)
        for _ in range(6):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_key(g.induced(perm)) == key
    # edge count, degrees and triangles already tell all twelve apart
    invariants = {(len(g.edges()), tuple(sorted(r.bit_count() for r in g.rows)), _triangles(g))
                  for g in named.values()}
    assert len(invariants) == len(named)
    assert len({canonical_key(g) for g in named.values()}) == len(named)


def _plain_refinement(g: Graph, colours: list[int]) -> list[int]:
    """Colour refinement run until a round returns its own input."""
    while True:
        sigs = [(colours[v], tuple(sorted(colours[w] for w in range(g.n) if g.has_edge(v, w))))
                for v in range(g.n)]
        order = sorted(set(sigs))
        new = [order.index(s) for s in sigs]
        if new == colours:
            return colours
        colours = new


def test_refine_colours_matches_plain_refinement():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 8)
        g = graph_from_code(n, rng.randrange(1 << (n * (n - 1) // 2)))
        nbrs = [[w for w in range(n) if g.has_edge(v, w)] for v in range(n)]
        colours = [rng.randrange(3) for _ in range(n)]
        colours[rng.randrange(n)] = n + 1  # an individualised vertex
        assert graphs._refine_colours(nbrs, colours) == _plain_refinement(g, colours)
        assert graphs._refine_colours(nbrs, [0] * n) == _plain_refinement(g, [0] * n)


def test_canonical_key_refinement_work(monkeypatch):
    """Twin pruning and discrete leaves bound the work on symmetric graphs
    (the unpruned search refined 109,601 times on K_8)."""
    calls = 0
    refine = graphs._refine_colours

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(graphs, "_refine_colours", counting)

    def work(g: Graph) -> int:
        nonlocal calls
        calls = 0
        canonical_key(g)
        return calls

    for n in range(9):
        assert work(Graph.complete_partite([1] * n)) <= n and work(Graph.empty(n)) <= n
    for a in range(1, 8):
        for b in range(1, 9 - a):
            g = Graph.complete_partite([a, b])
            assert work(g) <= 2 * g.n and work(complement(g)) <= 2 * g.n


def test_iso_classes_labelling_work(monkeypatch):
    """Canonical deletion labels only the extensions whose new vertex
    maximises the invariant: 2,106 of the 9,984 seven-vertex extensions."""
    iso_classes(6)
    calls = 0
    label = graphs.canonical_key

    def counting(g):
        nonlocal calls
        calls += 1
        return label(g)

    monkeypatch.setattr(graphs, "canonical_key", counting)
    keys, _ = graphs._classes.__wrapped__(7)
    assert calls <= 2500
    assert hashlib.sha256(b"".join(keys)).hexdigest() == CLASS_KEYS_SHA256[7]


@pytest.mark.parametrize("k", range(9))
def test_class_key_matches_canonical_key(k):
    """Every code for k <= 5, a seeded sample for k = 6, 7 and 8."""
    pairs = k * (k - 1) // 2
    codes = range(1 << pairs) if k <= 5 else random.Random(k).sample(range(1 << pairs), 300)
    for code in codes:
        g = graph_from_code(k, code)
        assert class_key(g) == key_of_code(k, code) == canonical_key(g)
    assert class_keys(k) == tuple(canonical_key(g) for g in iso_classes(k))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_key_of_code_files_every_permutation(k, monkeypatch):
    """One read per class files it under the codes of all k! vertex orders,
    built with shared prefixes; the filled map equals the map of one
    subset_code per order, and covers every code."""
    monkeypatch.setattr(graphs, "_KEY_OF_CODE", {})
    want = {}
    for key, f in zip(class_keys(k), iso_classes(k)):
        assert key_of_code(k, f.subset_code(range(k))) == key
        want.update((f.subset_code(order), key) for order in itertools.permutations(range(k)))
    assert graphs._KEY_OF_CODE[k] == want
    assert len(want) == 1 << k * (k - 1) // 2


def test_code_of_key_decodes_the_class():
    """The code decoded from a canonical key is one of its class: every class
    for k <= 7, a seeded sample of codes for k = 8."""
    for k in range(1, 8):
        for key in class_keys(k):
            assert canonical_key(graph_from_code(k, code_of_key(key))) == key
    for code in random.Random(8).sample(range(1 << 28), 100):
        key = canonical_key(graph_from_code(8, code))
        assert canonical_key(graph_from_code(8, code_of_key(key))) == key


@pytest.mark.parametrize("k", [-1, 9])
def test_key_of_code_rejects_out_of_range(k):
    with pytest.raises(ValueError):
        key_of_code(k, 0)


def test_flip():
    g = Graph.empty(2)
    assert flip(g, 0, 1) == Graph.complete_partite([1] * 2)
    assert flip(flip(g, 0, 1), 0, 1) == g
    k3 = Graph.complete_partite([1] * 3)
    assert naive_isomorphic(flip(k3, 0, 1), Graph.from_edges(3, [(0, 2), (1, 2)]))
    with pytest.raises(ValueError):
        flip(g, 1, 1)


def test_subset_codes_follow_combinations():
    """The walk yields subset_code of every k-subset in combinations order,
    and with `through` those subsets that contain the vertex, in order."""
    rng = random.Random(20)
    for n in range(10):
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.5])
        for k in range(n + 2):
            subsets = list(itertools.combinations(range(n), k))
            assert list(graphs.subset_codes(g, k)) == [g.subset_code(s) for s in subsets]
            for v in range(n):
                assert list(graphs.subset_codes(g, k, through=v)) == \
                    [g.subset_code(s) for s in subsets if v in s]
        with pytest.raises(ValueError):
            list(graphs.subset_codes(g, 1, through=n))


def test_extension_codes_follow_subset_codes():
    """For every mask, the codes through the new vertex equal the walk over
    the extended graph, in the same order."""
    rng = random.Random(21)
    for m in range(7):
        g = Graph.from_edges(m, [e for e in itertools.combinations(range(m), 2)
                                 if rng.random() < 0.5])
        for k in range(1, m + 2):
            through_v = graphs.extension_codes(g, k)
            for mask in range(1 << m):
                assert list(through_v(mask)) == \
                    list(graphs.subset_codes(g.add_vertex(mask), k, through=m))


def test_induced_count_examples():
    assert induced_count(Graph.complete_partite([1] * 3), Graph.complete_partite([1] * 6)) == 20
    assert induced_count(Graph.complete_partite([1] * 3), Graph.complete_partite([2, 2, 2])) == 8
    c4 = Graph.complete_partite([2, 2])
    k33 = Graph.complete_partite([3, 3])
    assert induced_count(c4, k33) == 9
    assert naive_induced_count(c4, k33) == 9
    # 7 and 8 vertices take the canonical search instead of the class index
    p7, p8 = (Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in (7, 8))
    assert induced_count(p7, p8) == 2
    assert induced_count(p8, p8) == 1
    assert induced_count(p7, Graph.complete_partite([1] * 8)) == 0


def test_complement_count_symmetry():
    rng = random.Random(6)
    for _ in range(25):
        nf, ng = rng.randint(2, 5), rng.randint(5, 8)
        f = graph_from_code(nf, rng.randrange(1 << (nf * (nf - 1) // 2)))
        g = graph_from_code(ng, rng.randrange(1 << (ng * (ng - 1) // 2)))
        assert induced_count(f, g) == induced_count(complement(f), complement(g))


def test_complete_partite_detection():
    assert complete_partite_shape_of(Graph.complete_partite([3, 2])).part_sizes == [3, 2]
    assert complete_partite_shape_of(Graph.complete_partite([1] * 5)).part_sizes == [1] * 5
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert complete_partite_shape_of(c5) is None


def test_edit_distance_examples():
    g = Graph.complete_partite([2, 2])
    assert edit_distance_exact(g, g) == 0
    assert edit_distance_exact(Graph.empty(4), Graph.complete_partite([1] * 4)) == F(3, 4)


def test_edit_distance_metric_small():
    """Metric axioms over isomorphism classes at n = 4, exhaustively."""
    classes = iso_classes(4)
    dist = {}
    for i, g in enumerate(classes):
        for j, h in enumerate(classes):
            dist[i, j] = edit_distance_exact(g, h)
    for i in range(len(classes)):
        for j in range(len(classes)):
            assert dist[i, j] == dist[j, i]
            assert (dist[i, j] == 0) == (i == j)
            for k in range(len(classes)):
                assert dist[i, j] <= dist[i, k] + dist[k, j]


def test_edit_distance_triangle_random():
    rng = random.Random(8)
    for n in (5, 6):
        for _ in range(8):
            gs = [graph_from_code(n, rng.randrange(1 << (n * (n - 1) // 2)))
                  for _ in range(3)]
            d01 = edit_distance_exact(gs[0], gs[1])
            d12 = edit_distance_exact(gs[1], gs[2])
            d02 = edit_distance_exact(gs[0], gs[2])
            assert d02 <= d01 + d12


def test_attach():
    shape = [2, 2]
    g = Graph.complete_partite(shape)
    structure = PartiteStructure(((0, 1), (2, 3)), ())
    clone = attach(g, structure, {1: 0, 2: 1}, F(1))
    assert complete_partite_shape_of(clone).part_sizes == [3, 2]
    isolated = attach(g, structure, {1: 0, 2: 0}, F(0))
    assert isolated.rows[4].bit_count() == 0
    g8 = Graph.complete_partite([2] * 8)
    parts8 = tuple(tuple(range(2 * i, 2 * i + 2)) for i in range(8))
    s8 = PartiteStructure(parts8, ())
    u = attach(g8, s8, {i: 1 if i <= 7 else 0 for i in range(1, 9)}, F(1))
    assert u.rows[16].bit_count() == 14
    with pytest.raises(ValueError):
        attach(g, PartiteStructure(((0, 1), (2,)), (3,)), {1: 1}, F(1))


def test_attach_clique_fraction_floor():
    g = Graph.complete_partite([2, 1, 1, 1])
    structure = PartiteStructure(((0, 1),), (2, 3, 4))
    h = attach(g, structure, {1: 0}, F(1, 2))
    # floor(1/2 * 3) = 1 clique edge, to the lowest-indexed clique vertex
    assert h.rows[5].bit_count() == 1 and h.has_edge(5, 2)


def test_graph_and_structure_compare_by_value():
    """Graphs key gamma tables and structures are compared, so both have
    value equality and a matching hash, never identity."""
    g, h = Graph.from_edges(3, [(0, 1), (1, 2)]), Graph(3, (0b010, 0b101, 0b010))
    assert g is not h and g == h and hash(g) == hash(h)
    assert {g: 1}[h] == 1 and len({g, h}) == 1
    assert g != Graph.from_edges(3, [(0, 1)]) and g != Graph.empty(3) and g != g.rows
    assert Graph.empty(2) != Graph.empty(3)
    s, t = PartiteStructure(((0, 1), (2,)), (3,)), PartiteStructure(((0, 1), (2,)), (3,))
    assert s is not t and s == t and hash(s) == hash(t) and len({s, t}) == 1
    assert s != PartiteStructure(((0, 1),), (2, 3)) and s != PartiteStructure(((0, 1), (2, 3)), ())
    assert s != s.parts
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b00))  # self-loop


def test_text_format_roundtrip():
    g = Graph.complete_partite([3, 2])
    text = write_graph_text(g)
    assert parse_graph_text(text) == g
    commented = "# a graph\n\nn 3\n0 1\n# done\n1 2\n"
    assert parse_graph_text(commented) == Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        parse_graph_text("0 1\n")


def test_shape_runlength():
    s = CompletePartiteShape(sizes=[3, 1, 2], counts=[(1, 4)])
    assert s.part_sizes == [3, 2, 1, 1, 1, 1, 1]
    assert s.n == 10
    assert s.part_sizes.count(1) == 5
