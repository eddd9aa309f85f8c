import itertools
import random
from fractions import Fraction as F

import pytest

from inducibility.graphs import (CompletePartiteShape, Graph, PartiteStructure,
                                 attach, canonical_key, class_index, class_key, class_keys,
                                 complete_partite_shape_of, edit_distance_exact,
                                 graph_from_code, induced_count, iso_classes,
                                 parse_graph_text, write_graph_text)


def naive_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    for perm in itertools.permutations(range(g.n)):
        if g.relabel(perm) == h:
            return True
    return False


def naive_induced_count(f: Graph, g: Graph) -> int:
    return sum(1 for verts in itertools.combinations(range(g.n), f.n)
               if naive_isomorphic(g.induced(verts), f))


def test_canonical_key_isomorphism_invariance():
    rng = random.Random(5)
    k3 = Graph.complete(3)
    for _ in range(20):
        perm = list(range(3))
        rng.shuffle(perm)
        assert canonical_key(k3.relabel(perm)) == canonical_key(k3)
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
    assert [len(iso_classes(n)) for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    with pytest.raises(ValueError):
        iso_classes(-1)


@pytest.mark.parametrize("k", range(7))
def test_class_key_matches_canonical_key(k):
    """Every code for k <= 5, a seeded sample for k = 6."""
    pairs = k * (k - 1) // 2
    codes = range(1 << pairs) if k <= 5 else random.Random(k).sample(range(1 << pairs), 300)
    for code in codes:
        g = graph_from_code(k, code)
        assert class_key(g) == canonical_key(g)
    keys, class_of_code = class_index(k)
    assert keys == class_keys(k) == tuple(canonical_key(g) for g in iso_classes(k))
    assert len(class_of_code) == 1 << pairs


@pytest.mark.parametrize("k", [-1, 8])
def test_class_index_rejects_out_of_range(k):
    with pytest.raises(ValueError):
        class_index(k)


def test_flip():
    g = Graph.empty(2)
    assert g.flip(0, 1) == Graph.complete(2)
    assert g.flip(0, 1).flip(0, 1) == g
    k3 = Graph.complete(3)
    assert naive_isomorphic(k3.flip(0, 1), Graph.from_edges(3, [(0, 2), (1, 2)]))
    with pytest.raises(ValueError):
        g.flip(1, 1)


def test_induced_count_examples():
    assert induced_count(Graph.complete(3), Graph.complete(6)) == 20
    assert induced_count(Graph.complete(3), Graph.complete_partite([2, 2, 2])) == 8
    c4 = Graph.complete_partite([2, 2])
    k33 = Graph.complete_partite([3, 3])
    assert induced_count(c4, k33) == 9
    assert naive_induced_count(c4, k33) == 9
    # 7 and 8 vertices take the canonical search instead of the class index
    p7, p8 = (Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]) for n in (7, 8))
    assert induced_count(p7, p8) == 2
    assert induced_count(p8, p8) == 1
    assert induced_count(p7, Graph.complete(8)) == 0


def test_complement_count_symmetry():
    rng = random.Random(6)
    for _ in range(25):
        nf, ng = rng.randint(2, 5), rng.randint(5, 8)
        f = graph_from_code(nf, rng.randrange(1 << (nf * (nf - 1) // 2)))
        g = graph_from_code(ng, rng.randrange(1 << (ng * (ng - 1) // 2)))
        assert induced_count(f, g) == induced_count(f.complement(), g.complement())


def test_complete_partite_detection():
    assert complete_partite_shape_of(Graph.complete_partite([3, 2])).part_sizes == [3, 2]
    assert complete_partite_shape_of(Graph.complete(5)).part_sizes == [1] * 5
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert complete_partite_shape_of(c5) is None


def test_edit_distance_examples():
    g = Graph.complete_partite([2, 2])
    assert edit_distance_exact(g, g) == 0
    assert edit_distance_exact(Graph.empty(4), Graph.complete(4)) == F(3, 4)


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
    assert isolated.degree(4) == 0
    g8 = Graph.complete_partite([2] * 8)
    parts8 = tuple(tuple(range(2 * i, 2 * i + 2)) for i in range(8))
    s8 = PartiteStructure(parts8, ())
    u = attach(g8, s8, {i: 1 if i <= 7 else 0 for i in range(1, 9)}, F(1))
    assert u.degree(16) == 14
    with pytest.raises(ValueError):
        attach(g, PartiteStructure(((0, 1), (2,)), (3,)), {1: 1}, F(1))


def test_attach_clique_fraction_floor():
    g = Graph.complete_partite([2, 1, 1, 1])
    structure = PartiteStructure(((0, 1),), (2, 3, 4))
    h = attach(g, structure, {1: 0}, F(1, 2))
    # floor(1/2 * 3) = 1 clique edge, to the lowest-indexed clique vertex
    assert h.degree(5) == 1 and h.has_edge(5, 2)


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
    assert s.clique_size() == 5
