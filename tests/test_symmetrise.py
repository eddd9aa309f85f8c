import itertools
import json
import random
from fractions import Fraction as F

import pytest

from inducibility.graphs import Graph, complete_partite_shape_of, graph_from_code
from inducibility.objectives import ObjectiveSpec, big_lambda, lambda_graph
from inducibility.optsearch import finite_opt
from inducibility.symmetrise import (SymmetrisationError, symmetrise_full,
                                     symmetrise_vertex)


def test_complete_partite_input_is_fixed(spec_c4):
    g = Graph.complete_partite([3, 2, 1])
    trace = symmetrise_full(spec_c4, g)
    assert len(trace.steps) == 0
    assert trace.final_graph == g


def test_c5_symmetrises_to_partite_optimum(spec_c4):
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    trace = symmetrise_full(spec_c4, c5)
    assert trace.monotone
    lam_out = lambda_graph(spec_c4, trace.final_graph)
    assert lam_out >= lambda_graph(spec_c4, c5)
    best, shapes = finite_opt(spec_c4, 5)
    assert lam_out == best
    assert trace.final_shape in shapes


def test_random_traces_monotone_bounded(spec_c4):
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(4, 10)
        g = graph_from_code(n, rng.randrange(1 << (n * (n - 1) // 2)))
        trace = symmetrise_full(spec_c4, g)
        assert trace.monotone
        assert len(trace.steps) <= n * (n - 1) // 2
        assert complete_partite_shape_of(trace.final_graph) is not None
        assert all(s.pairs_edited <= n - 1 for s in trace.steps)


def test_exhaustive_n5(spec_c4):
    from inducibility.graphs import iso_classes
    for g in iso_classes(5):
        trace = symmetrise_full(spec_c4, g)
        assert trace.monotone
        assert complete_partite_shape_of(trace.final_graph) is not None


def test_consistency_with_brute_force(spec_k12):
    from inducibility.objectives import brute_lambda_max
    for n in (5, 6):
        val, wit = brute_lambda_max(spec_k12, n)
        trace = symmetrise_full(spec_k12, wit[0])
        assert lambda_graph(spec_k12, trace.final_graph) == val


def test_vertex_mode_single_pair_edits(spec_c4):
    rng = random.Random(43)
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        base = Graph.complete_partite(sizes)
        n = base.n
        if n + 1 < spec_c4.k:
            continue
        g = base.add_vertex(rng.randrange(1 << n))
        trace = symmetrise_vertex(spec_c4, g, n)
        assert trace.monotone
        assert all(s.pairs_edited == 1 for s in trace.steps)
        final = trace.final_graph
        # z ends complete or empty to every part of g - z
        from inducibility.symmetrise import partite_parts_without
        for part in partite_parts_without(final, n):
            flags = [final.has_edge(v, n) for v in part]
            assert all(flags) or not any(flags)


def test_vertex_mode_example(spec_c4):
    base = Graph.complete_partite([2, 2])
    g = base.add_vertex(0b0101)   # one neighbour in each part
    trace = symmetrise_vertex(spec_c4, g, 4)
    assert trace.monotone
    lam_end = lambda_graph(spec_c4, trace.final_graph)
    # exact evaluation of all four candidate end states
    cands = []
    for mask_bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mask = (0b0011 if mask_bits[0] else 0) | (0b1100 if mask_bits[1] else 0)
        cands.append(lambda_graph(spec_c4, base.add_vertex(mask)))
    assert lam_end in cands
    assert lam_end >= lambda_graph(spec_c4, g)


def test_vertex_mode_rejects_non_partite(spec_c4):
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.raises(ValueError):
        symmetrise_vertex(spec_c4, c5.add_vertex(0), 5)


def test_general_spec_abort_is_clean():
    """A clique-heavy non-eligible objective can refuse to symmetrise."""
    spec = ObjectiveSpec.combination([(F(-1), [3]), (F(-1), [1, 1, 1])])
    assert not spec.eligible
    rng = random.Random(44)
    saw_abort = False
    for _ in range(60):
        g = graph_from_code(6, rng.randrange(1 << 15))
        try:
            trace = symmetrise_full(spec, g)
            assert trace.monotone
        except SymmetrisationError:
            saw_abort = True
    assert saw_abort


def test_four_kind_decomposition_k3():
    """Lambda splits into pair-type counts, and cloning realises 2f(X)+g+C.

    For a non-adjacent pair (x, y): type-1 subsets meet x not y, type-2 meet
    y not x, type-3 both, type-4 neither; cloning y from x replaces the
    type-2 and type-3 counts by mirrored type-1 and widened type-3 counts.
    """
    spec = ObjectiveSpec.combination([(1, [2, 1])])
    rng = random.Random(45)
    for _ in range(20):
        g = graph_from_code(6, rng.randrange(1 << 15))
        pairs = [(x, y) for x in range(6) for y in range(x + 1, 6) if not g.has_edge(x, y)]
        if not pairs:
            continue
        x, y = pairs[0]
        parts = {1: F(0), 2: F(0), 3: F(0), 4: F(0)}
        for verts in itertools.combinations(range(6), 3):
            kind = 1 if (x in verts and y not in verts) else \
                   2 if (y in verts and x not in verts) else \
                   3 if (x in verts and y in verts) else 4
            parts[kind] += spec.gamma_of(g.induced(verts))
        assert sum(parts.values()) == big_lambda(spec, g)
        from inducibility.symmetrise import _clone
        gc = _clone(g, x, y)
        parts_c = {1: F(0), 3: F(0), 4: F(0)}
        for verts in itertools.combinations(range(6), 3):
            if x in verts and y not in verts:
                parts_c[1] += spec.gamma_of(gc.induced(verts))
            elif x in verts and y in verts:
                parts_c[3] += spec.gamma_of(gc.induced(verts))
            elif x not in verts and y not in verts:
                parts_c[4] += spec.gamma_of(gc.induced(verts))
        # f(X) is a function of N(x) only: type-1 count survives the clone,
        # the clone's type-2 count mirrors it, and C is untouched
        mirrored = F(0)
        for verts in itertools.combinations(range(6), 3):
            if y in verts and x not in verts:
                mirrored += spec.gamma_of(gc.induced(verts))
        assert parts_c[1] == parts[1]
        assert mirrored == parts[1]
        assert parts_c[4] == parts[4]


def test_trace_json(spec_c4):
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    trace = symmetrise_full(spec_c4, c5)
    obj = json.loads(trace.to_json())
    assert obj["final_part_sizes"] == trace.final_shape.part_sizes
    assert len(obj["steps"]) == len(trace.steps)
    for step in obj["steps"]:
        F(step["lambda_before"]), F(step["lambda_after"])


def test_vertex_mode_final_shape_is_the_final_graph(spec_c4):
    # the final shape is None unless the final graph itself is complete partite
    from inducibility.partite import lambda_of_shape

    specs = [spec_c4, ObjectiveSpec.combination([(1, [3]), (1, [2, 1])])]
    rng = random.Random(44)
    nones = 0
    for i in range(40):
        spec = specs[i % 2]
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(3, 4))]
        base = Graph.complete_partite(sizes)
        n = base.n
        trace = symmetrise_vertex(spec, base.add_vertex(rng.randrange(1 << n)), n)
        shape = trace.final_shape
        if shape is None:
            nones += 1
            assert complete_partite_shape_of(trace.final_graph) is None
        else:
            assert shape.n == n + 1
            assert lambda_of_shape(spec, shape) == lambda_graph(spec, trace.final_graph)
    assert 0 < nones < 40
