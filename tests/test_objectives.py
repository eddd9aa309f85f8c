import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from inducibility.graphs import (Graph, canonical_key, complete_partite_shape_of, graph_from_code,
                                 iso_classes)
from inducibility.objectives import (ObjectiveSpec, big_lambda, big_lambda_vertex,
                                     brute_lambda_max, lambda_graph, lambda_vertex,
                                     partitions_of)


def test_partitions_of():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(10)) == 42
    assert partitions_of(4, max_parts=2) == [(4,), (3, 1), (2, 2)]


def test_gamma_table_covers_all_classes(spec_c4):
    assert len(spec_c4.gamma) == len(iso_classes(4))
    assert spec_c4.gamma_max == 1
    assert spec_c4.eligible


def test_gamma_expansion_matches_definition():
    """gamma(F) = sum c_F' p(F', F) for the combination provenance."""
    from inducibility.graphs import induced_count
    spec = ObjectiveSpec.combination([(F(2), [2, 1]), (F(-1, 3), [1, 1, 1])], k=4)
    for f in iso_classes(4):
        want = (F(2) * F(induced_count(Graph.complete_partite([2, 1]), f), comb(4, 3))
                - F(1, 3) * F(induced_count(Graph.complete(3), f), comb(4, 3)))
        assert spec.gamma_of(f) == want
    assert spec.eligible  # the negative weight sits on the clique K_3


@pytest.mark.parametrize("name", ["spec_k12", "spec_c4", "spec_k2111", "spec_k33"])
def test_code_table_matches_gamma(name, request):
    spec = request.getfixturevalue(name)
    k = spec.k
    table = spec.code_table()
    assert len(table) == 1 << (k * (k - 1) // 2)
    for code in random.Random(k).sample(range(len(table)), min(len(table), 200)):
        assert table[code] == spec.gamma[canonical_key(graph_from_code(k, code))]


def test_eligibility_flag():
    assert ObjectiveSpec.combination([(1, [3]), (1, [2, 1]), (-2, [1, 1, 1])]).eligible
    assert not ObjectiveSpec.combination([(-1, [3])]).eligible
    assert not ObjectiveSpec.combination([(1, [3]), (-1, [2, 1])]).eligible


def test_lambda_graph_examples(spec_c4, spec_k2111):
    k33 = Graph.complete_partite([3, 3])
    assert lambda_graph(spec_c4, k33) == F(9, comb(6, 4))
    empty_spec = ObjectiveSpec.partite_density([4])   # independent 4-sets
    assert lambda_graph(empty_spec, Graph.empty(7)) == 1
    g16 = Graph.complete_partite([2] * 8)
    assert lambda_graph(spec_k2111, g16) == F(2240, 4368)


def test_lambda_graph_naive_oracle(spec_c4):
    """Independent subset-enumeration oracle on a random graph."""
    rng = random.Random(2)
    g = graph_from_code(7, rng.randrange(1 << 21))
    c4 = Graph.complete_partite([2, 2])
    count = 0
    for verts in itertools.combinations(range(7), 4):
        sub = g.induced(verts)
        for perm in itertools.permutations(range(4)):
            if sub.relabel(perm) == c4:
                count += 1
                break
    assert lambda_graph(spec_c4, g) == F(count, comb(7, 4))


def test_lambda_vertex_identity(spec_c4):
    rng = random.Random(4)
    for _ in range(10):
        g = graph_from_code(6, rng.randrange(1 << 15))
        for v in range(g.n):
            assert big_lambda(spec_c4, g) - big_lambda(spec_c4, g.delete_vertex(v)) \
                == big_lambda_vertex(spec_c4, g, v)


def test_lambda_vertex_transitive(spec_k2111):
    g16 = Graph.complete_partite([2] * 8)
    lam = lambda_graph(spec_k2111, g16)
    assert lambda_vertex(spec_k2111, g16, 0) == lam
    assert lambda_vertex(spec_k2111, g16, 15) == lam


def test_lambda_flip_lipschitz(spec_c4):
    """|lambda(G) - lambda(G+xy)| <= 2 C(k,2) gamma_max / C(n,2)."""
    rng = random.Random(12)
    k = spec_c4.k
    bound = F(2 * comb(k, 2), comb(7, 2)) * spec_c4.gamma_max
    for _ in range(15):
        g = graph_from_code(7, rng.randrange(1 << 21))
        x, y = rng.sample(range(7), 2)
        assert abs(lambda_graph(spec_c4, g) - lambda_graph(spec_c4, g.flip(x, y))) <= bound


def test_brute_lambda_max_examples(spec_c4, spec_k12):
    empty3 = ObjectiveSpec.partite_density([3])
    val, wit = brute_lambda_max(empty3, 5)
    assert val == 1
    assert any(w == Graph.empty(5) or complete_partite_shape_of(w) == complete_partite_shape_of(Graph.empty(5))
               for w in wit)
    val, wit = brute_lambda_max(spec_k12, 6)
    assert any(complete_partite_shape_of(w) is not None for w in wit)
    val, wit = brute_lambda_max(spec_c4, 6)
    shapes = [complete_partite_shape_of(w) for w in wit]
    assert any(s is not None and s.part_sizes == [3, 3] for s in shapes)


def test_brute_partite_witness_for_eligible():
    """Eligible combinations always keep a complete partite witness."""
    rng = random.Random(3)
    for _ in range(5):
        terms = [(F(rng.randint(0, 3)), a) for a in partitions_of(3)]
        if all(c == 0 for c, _ in terms):
            terms[0] = (F(1), terms[0][1])
        spec = ObjectiveSpec.combination(terms)
        _, wit = brute_lambda_max(spec, 5)
        assert any(complete_partite_shape_of(w) is not None for w in wit)


def test_from_table_round_trip(spec_c4):
    table = {g: spec_c4.gamma_of(g) for g in iso_classes(4)}
    spec2 = ObjectiveSpec.from_table(4, table, label="copy")
    assert spec2.gamma == spec_c4.gamma
    with pytest.raises(ValueError):
        ObjectiveSpec.from_table(4, {Graph.empty(4): F(1)})
    relabelled = Graph.from_edges(4, [(2, 3)])  # the one-edge class again
    assert relabelled not in table
    with pytest.raises(ValueError, match="twice"):
        ObjectiveSpec.from_table(4, {**table, relabelled: F(7)})
    with pytest.raises(ValueError, match="vertices"):
        ObjectiveSpec.from_table(4, {**table, Graph.empty(3): F(0)})
