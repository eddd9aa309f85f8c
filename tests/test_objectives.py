import functools
import itertools
import random
from fractions import Fraction as F
from math import comb, lcm

import pytest

from inducibility import graphs, objectives
from inducibility.graphs import (Graph, canonical_key, class_keys, complete_partite_shape_of,
                                 graph_from_code, iso_classes)
from inducibility.objectives import (ObjectiveSpec, big_lambda, big_lambda_vertex,
                                     brute_lambda_max, lambda_graph, lambda_vertex,
                                     partitions_of)
from inducibility.partite import PartiteVector, lambda_of_vector
from inducibility.perturbation import AttachmentPattern, attach_value, flip_gradient
from inducibility.strictness import strictness_certificate

from helpers import flip, integer_route_specs, reference_combination, reference_gamma


def test_partitions_of():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(10)) == 42
    assert partitions_of(4, max_parts=2) == [(4,), (3, 1), (2, 2)]


def test_gamma_table_covers_all_classes(spec_c4):
    """gamma answers at every class key (a combination spec fills its gamma
    key by key, so it is read at each one)."""
    values = [spec_c4.gamma[key] for key in class_keys(4)]
    assert len(values) == 11  # the classes on 4 vertices
    assert max(abs(v) for v in values) == 1
    assert spec_c4.eligible


def test_gamma_expansion_matches_definition():
    """gamma(F) = sum c_F' p(F', F) for the combination provenance."""
    from inducibility.graphs import induced_count
    spec = ObjectiveSpec.combination([(F(2), [2, 1]), (F(-1, 3), [1, 1, 1])], k=4)
    for f in iso_classes(4):
        want = (F(2) * F(induced_count(Graph.complete_partite([2, 1]), f), comb(4, 3))
                - F(1, 3) * F(induced_count(Graph.complete_partite([1, 1, 1]), f), comb(4, 3)))
        assert spec.gamma_of(f) == want
    assert spec.eligible  # the negative weight sits on the clique K_3


@pytest.mark.parametrize("name", ["spec_k12", "spec_c4", "spec_k2111", "spec_k33", "spec_k43",
                                  "signed SUM"])
def test_code_table_matches_gamma(name, request):
    """The code table holds gamma * scale as ints; a combination's scale is
    lcm_F(den(c_F) * C(k, |F|)), 12 for the signed SUM."""
    if name == "signed SUM":
        spec = ObjectiveSpec.combination([(F(3, 4), [2, 1, 1]), (F(-5, 6), [1, 1, 1, 1])])
        assert spec.scale == 12
    else:
        spec = request.getfixturevalue(name)
    k = spec.k
    table = spec.code_table()
    codes = 1 << (k * (k - 1) // 2)
    for code in random.Random(k).sample(range(codes), min(codes, 200)):
        value = table[code]
        assert type(value) is int
        assert value == spec.gamma[canonical_key(graph_from_code(k, code))] * spec.scale


@pytest.mark.parametrize("a", [a for m in range(1, 7) for a in partitions_of(m)],
                         ids=lambda a: ",".join(map(str, a)))
def test_structural_gamma_matches_induced_count(a):
    """The structural counts behind combination agree with class matching:
    as p(K_a, .) itself and inside a 6-vertex objective."""
    from inducibility.graphs import induced_count
    pattern = Graph.complete_partite(a)
    specs = [ObjectiveSpec.combination([(1, a)], k=6)]
    if sum(a) >= 3:
        specs.append(ObjectiveSpec.partite_density(a))
    for spec in specs:
        for f in iso_classes(spec.k):
            assert spec.gamma_of(f) == F(induced_count(pattern, f), comb(spec.k, sum(a)))


COMBINATION_CASES = [([(1, a)], max(3, sum(a))) for m in range(1, 8) for a in partitions_of(m)] + [
    ([(F(3, 4), [2, 1, 1]), (F(-5, 6), [1, 1, 1, 1]), (F(1, 3), [2, 2])], 4),
    ([(F(2), [2, 1]), (F(-1, 3), [1, 1, 1])], 4),
    ([(F(-2, 5), [3, 2]), (F(1, 7), [1, 1]), (F(3), [2, 1, 1])], 5),
    ([(F(1), [3, 3]), (F(-1, 2), [2, 2]), (F(5, 3), [1, 1, 1])], 6),
    ([(F(1), [4, 3]), (F(-3, 4), [2, 2, 1]), (F(2, 9), [1, 1, 1, 1])], 7),
    ([(F(1), [4, 4]), (F(-2, 3), [3, 3]), (F(1, 5), [2, 1]), (F(-1), [1] * 8)], 8),
]


@functools.lru_cache(maxsize=None)
def _key_by_code(k):
    """The canonical key of every code on k vertices, filed per class under
    the subset_code of each vertex order."""
    return {f.subset_code(order): key for key, f in zip(class_keys(k), iso_classes(k))
            for order in itertools.permutations(range(k))}


@pytest.mark.parametrize("terms, k", COMBINATION_CASES,
                         ids=lambda c: str(c) if isinstance(c, int) else " + ".join(
                             f"{t[0]}*KP {','.join(map(str, t[1]))}" for t in c))
def test_combination_equals_class_walk_reference(terms, k):
    """Every partition of at most 7 vertices and signed SUMs with terms
    smaller than k: gamma on every class (k <= 7), the code table (every code
    for k <= 6, a seeded sample for k = 7 and 8) and partition_values equal
    the class-walk reference, and gamma * scale is integral."""
    spec = ObjectiveSpec.combination(terms, k=k)
    assert spec.scale == lcm(*(F(c).denominator * comb(k, sum(a)) for c, a in terms))
    table = spec.code_table()
    if k <= 7:
        want = reference_combination(terms, k)
        assert {key: spec.gamma[key] for key in class_keys(k)} == want
        assert all((v * spec.scale).denominator == 1 for v in want.values())
    if k <= 6:
        codes = _key_by_code(k)
        assert len(codes) == 1 << comb(k, 2)
        assert all(table[code] == want[key] * spec.scale for code, key in codes.items())
    else:
        for code in random.Random(k).sample(range(1 << comb(k, 2)), 100):
            assert table[code] == reference_gamma(terms, graph_from_code(k, code)) * spec.scale
    assert all(type(v) is int for v in table.values())
    assert spec.partition_values() == {a: reference_gamma(terms, Graph.complete_partite(a))
                                       for a in partitions_of(k)}


def test_combination_labels_nothing(monkeypatch):
    """Building a combination spec and reading it in the limit (lambda, a
    flip gradient, an attachment value, strictness) and on a finite graph
    runs no canonical search. The class tables and the code-to-class map
    start empty, so no memo filled earlier in the process hides a label."""
    monkeypatch.setattr(graphs, "_classes",
                        functools.lru_cache(maxsize=None)(graphs._classes.__wrapped__))
    monkeypatch.setattr(graphs, "_KEY_OF_CODE", {})
    calls = []
    label = graphs.canonical_key

    def counting(g):
        calls.append(g)
        return label(g)

    monkeypatch.setattr(graphs, "canonical_key", counting)
    monkeypatch.setattr(objectives, "canonical_key", counting)
    x = PartiteVector([F(2, 5), F(1, 3)])  # with clique mass 4/15
    g = graph_from_code(9, random.Random(6).randrange(1 << 36))
    for spec in (ObjectiveSpec.partite_density([3, 1, 1]),
                 ObjectiveSpec.combination([(1, [2, 2, 1]), (F(-1, 2), [2, 1]), (3, [1] * 5)]),
                 ObjectiveSpec.partite_density([3, 3])):
        lambda_of_vector(spec, x)
        flip_gradient(spec, x, 1, 2)
        attach_value(spec, x, AttachmentPattern({1: 1}, F(1, 3)))
        strictness_certificate(spec, [x, PartiteVector([F(1, 2), F(1, 2)])])
        lambda_graph(spec, g)
    assert calls == []


def test_from_table_builds_no_class_table(monkeypatch):
    """A table spec checks its coverage by counting its distinct classes
    against graphs.CLASS_COUNTS, so at k = 5 it builds no class table; a
    table that misses a class is still refused."""
    table = {g: F(i, 7) for i, g in enumerate(iso_classes(5))}
    calls = []
    classes = graphs._classes
    monkeypatch.setattr(graphs, "_classes", lambda n: calls.append(n) or classes(n))
    spec = ObjectiveSpec.from_table(5, table)
    assert all(spec.gamma_of(g) == v for g, v in table.items())
    with pytest.raises(ValueError, match="cover every isomorphism class"):
        ObjectiveSpec.from_table(5, dict(list(table.items())[1:]))
    assert calls == []


def test_decoded_gamma_rejects_other_keys(spec_c4):
    """gamma of a combination takes only keys of k-vertex graphs."""
    key = canonical_key(Graph.complete_partite([2, 2]))
    assert spec_c4.gamma[key] == 1
    for bad in (canonical_key(Graph.complete_partite([3, 2])), key + b"\0", bytes([4, 0x40])):
        with pytest.raises(KeyError):
            spec_c4.gamma[bad]


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


def test_lambda_graph_beyond_six_vertices(spec_k43):
    """A 7-vertex objective on a 9-vertex graph: every subset is classified
    by its own canonical search."""
    from inducibility.graphs import induced_count
    rng = random.Random(9)
    g = Graph.complete_partite([5, 4])
    for _ in range(3):
        g = flip(g, *rng.sample(range(9), 2))
    count = induced_count(Graph.complete_partite([4, 3]), g)
    assert count > 0
    assert lambda_graph(spec_k43, g) == F(count, comb(9, 7))


def test_lambda_graph_naive_oracle(spec_c4):
    """Independent subset-enumeration oracle on a random graph."""
    rng = random.Random(2)
    g = graph_from_code(7, rng.randrange(1 << 21))
    c4 = Graph.complete_partite([2, 2])
    count = 0
    for verts in itertools.combinations(range(7), 4):
        sub = g.induced(verts)
        for perm in itertools.permutations(range(4)):
            if sub.induced(perm) == c4:
                count += 1
                break
    assert lambda_graph(spec_c4, g) == F(count, comb(7, 4))


def test_big_lambda_integer_sums_equal_fraction_sums():
    """big_lambda and big_lambda_vertex, integer sums over the code table
    divided by scale once, equal Fraction sums of gamma_of over the induced
    k-subsets (all, and those through v) on seeded graphs."""
    rng = random.Random(5)
    for spec in integer_route_specs():
        n = rng.randint(spec.k, 9)
        g = graph_from_code(n, rng.randrange(1 << (n * (n - 1) // 2)))
        subsets = list(itertools.combinations(range(n), spec.k))
        assert big_lambda(spec, g) == sum((spec.gamma_of(g.induced(s)) for s in subsets), F(0))
        v = rng.randrange(n)
        assert big_lambda_vertex(spec, g, v) == sum(
            (spec.gamma_of(g.induced(s)) for s in subsets if v in s), F(0))


def test_lambda_vertex_identity(spec_c4):
    rng = random.Random(4)
    for _ in range(10):
        g = graph_from_code(6, rng.randrange(1 << 15))
        for v in range(g.n):
            assert big_lambda(spec_c4, g) - big_lambda(spec_c4, g.induced([u for u in range(g.n) if u != v])) \
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
    bound = F(2 * comb(k, 2), comb(7, 2)) * max(abs(spec_c4.gamma[key]) for key in class_keys(k))
    for _ in range(15):
        g = graph_from_code(7, rng.randrange(1 << 21))
        x, y = rng.sample(range(7), 2)
        assert abs(lambda_graph(spec_c4, g) - lambda_graph(spec_c4, flip(g, x, y))) <= bound


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


def _class_scan(spec, n):
    """max of lambda over iso_classes(n), and every class reaching it in class order."""
    values = [lambda_graph(spec, g) for g in iso_classes(n)]
    best = max(values)
    return best, [g for g, v in zip(iso_classes(n), values) if v == best]


def _seeded_table(k):
    rng = random.Random(k)
    return ObjectiveSpec.from_table(k, {g: F(rng.randint(-6, 6), rng.randint(1, 5))
                                        for g in iso_classes(k)})


BRUTE_SPECS = {
    "KP 2,1,1": lambda: ObjectiveSpec.partite_density([2, 1, 1]),
    "KP 3,2": lambda: ObjectiveSpec.partite_density([3, 2]),
    "SUM 1*KP 2,2 + -1/2*KP 3,1": lambda: ObjectiveSpec.combination([(1, [2, 2]),
                                                                     (F(-1, 2), [3, 1])]),
    "table k=3": lambda: _seeded_table(3),
    "table k=4": lambda: _seeded_table(4),
    "table k=5": lambda: _seeded_table(5),
    "constant": lambda: ObjectiveSpec.from_table(4, {g: F(1, 2) for g in iso_classes(4)}),
}


@pytest.mark.parametrize("name", BRUTE_SPECS)
def test_brute_lambda_max_equals_class_scan(name):
    """The candidate scan gives the class scan's value and its witness list,
    the same representatives in the same order."""
    spec = BRUTE_SPECS[name]()
    for n in range(spec.k, 8):
        val, wit = brute_lambda_max(spec, n)
        assert (val, wit) == _class_scan(spec, n), n
    if name == "constant":
        assert wit == list(iso_classes(7)) and len(wit) == 1044


def test_brute_lambda_max_labels_only_maximisers(monkeypatch):
    """With iso_classes(6) warm, the brute force at n = 7 labels at most one
    graph per maximising candidate and adds no class table; building
    iso_classes(7) labels all 2,106 candidates."""
    monkeypatch.setattr(graphs, "_classes",
                        functools.lru_cache(maxsize=None)(graphs._classes.__wrapped__))
    iso_classes(6)
    spec = ObjectiveSpec.partite_density([2, 1, 1])
    for code in range(1 << 6):
        spec.code_table()[code]
    calls = 0
    label = graphs.canonical_key

    def counting(g):
        nonlocal calls
        calls += 1
        return label(g)

    monkeypatch.setattr(graphs, "canonical_key", counting)
    monkeypatch.setattr(objectives, "canonical_key", counting, raising=False)
    tables = graphs._classes.cache_info().currsize
    val, wit = brute_lambda_max(spec, 7)
    assert graphs._classes.cache_info().currsize == tables
    maximisers = sum(lambda_graph(spec, h) == val for _, _, h in graphs.extension_candidates(7))
    assert len(wit) <= calls <= maximisers


def test_from_table_round_trip(spec_c4):
    table = {g: spec_c4.gamma_of(g) for g in iso_classes(4)}
    spec2 = ObjectiveSpec.from_table(4, table, label="copy")
    assert spec2.gamma == {key: spec_c4.gamma[key] for key in class_keys(4)}
    with pytest.raises(ValueError):
        ObjectiveSpec.from_table(4, {Graph.empty(4): F(1)})
    relabelled = Graph.from_edges(4, [(2, 3)])  # the one-edge class again
    assert relabelled not in table
    with pytest.raises(ValueError, match="twice"):
        ObjectiveSpec.from_table(4, {**table, relabelled: F(7)})
    with pytest.raises(ValueError, match="vertices"):
        ObjectiveSpec.from_table(4, {**table, Graph.empty(3): F(0)})
