import random
from fractions import Fraction as F
from math import comb

import pytest

from inducibility.graphs import Graph, complete_partite_shape_of
from inducibility.objectives import ObjectiveSpec, partitions_of
from inducibility.graphs import edit_distance_exact
from inducibility.partite import (PartiteVector, SymmetricIndex, count_partite,
                                  density_formula, draw_sum, edit_distance_vectors,
                                  elementary_symmetric, lambda_free, lambda_of_shape,
                                  lambda_of_vector, realisation_shape, realise,
                                  sampling_density)
from inducibility.polynomials import MPoly


def rand_vector(rng, max_support=4, max_denom=12, allow_clique=True):
    d = rng.randint(2, max_denom)
    m = rng.randint(1, min(max_support, d))
    raw = sorted(rng.sample(range(1, d + 1), m), reverse=True)
    parts = [F(v, d) for v in raw]
    # rescale until the entries fit under the simplex
    while sum(parts) > 1:
        parts = [p / 2 for p in parts]
    if not allow_clique and sum(parts) != 1:
        scale = 1 / sum(parts)
        parts = [p * scale for p in parts]
    return PartiteVector(sorted(parts, reverse=True))


def test_vector_invariants():
    x = PartiteVector([F(3, 5)])
    assert x.x0 == F(2, 5)
    assert x.supp_star == (0, 1)
    assert x.min_entry() == F(2, 5)
    assert PartiteVector.zero().supp_star == (0,)
    with pytest.raises(ValueError):
        PartiteVector([F(1, 3), F(1, 2)])    # not sorted
    with pytest.raises(ValueError):
        PartiteVector([F(2, 3), F(2, 3)])    # sum > 1


def test_vector_json():
    x = PartiteVector([F(3, 5)])
    assert PartiteVector.from_json(x.to_json()) == x
    assert PartiteVector.from_json('{"x0":"0","parts":["1/2","1/2"]}').parts == (F(1, 2),) * 2
    with pytest.raises(ValueError):
        PartiteVector.from_json('{"x0":"0","parts":["1/3","1/2"]}')
    with pytest.raises(ValueError):
        PartiteVector.from_json('{"x0":"1/2","parts":["1/3"]}')


def test_realisation_examples():
    assert realisation_shape(5, PartiteVector.zero()).part_sizes == [1] * 5
    assert realisation_shape(7, PartiteVector([F(1, 2), F(1, 2)])).part_sizes == [4, 3]
    assert realisation_shape(10, PartiteVector([F(3, 5)])).part_sizes == [6, 1, 1, 1, 1]


def test_realisation_error_bound():
    rng = random.Random(21)
    for _ in range(30):
        x = rand_vector(rng, allow_clique=False)
        if x.x0 != 0:
            continue
        n = rng.randint(5, 40)
        sizes = realise(n, x).structure.parts
        for i, part in enumerate(sizes):
            assert abs(len(part) - x.parts[i] * n) < 1


def test_elementary_symmetric():
    half = PartiteVector([F(1, 2), F(1, 2)])
    assert elementary_symmetric(half, SymmetricIndex((2,))) == F(1, 2)
    assert elementary_symmetric(half, SymmetricIndex((2, 1))) == F(1, 4)
    assert elementary_symmetric(half, SymmetricIndex((2,), frozenset({1}))) == F(1, 4)
    rng = random.Random(13)
    for _ in range(30):
        x = rand_vector(rng)
        d = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        assert elementary_symmetric(x, SymmetricIndex(d)) <= 1


def test_lambda_of_vector_headline_values(spec_k2111, spec_k311):
    assert lambda_of_vector(spec_k2111, PartiteVector.uniform(8)) == F(525, 1024)
    assert lambda_of_vector(spec_k311, PartiteVector([F(3, 5)])) == F(216, 625)
    empty4 = ObjectiveSpec.partite_density([4])
    assert lambda_of_vector(empty4, PartiteVector([F(1)])) == 1


def test_density_formula_examples():
    assert density_formula([2, 2], PartiteVector([F(1, 2), F(1, 2)])) == F(3, 8)
    assert density_formula([2, 1], PartiteVector([F(1, 2), F(1, 2)])) == F(3, 4)
    assert density_formula([2, 1, 1], PartiteVector.uniform(5)) == F(72, 125)
    # several singleton parts meeting clique mass exercise the C(l-t, s) factor
    x = PartiteVector([F(1, 6)] * 4)
    assert density_formula([1, 1, 1], x) == F(19, 27)


def test_density_equals_enumeration():
    rng = random.Random(14)
    specs = {a: ObjectiveSpec.partite_density(a)
             for k in (3, 4, 5) for a in partitions_of(k)}
    for _ in range(25):
        x = rand_vector(rng)
        for a, spec in specs.items():
            assert lambda_of_vector(spec, x) == density_formula(a, x) \
                == sampling_density(a, x), (a, x)


def test_lambda_free_rings_match_lambda_of_vector(spec_c4):
    """Fraction and MPoly weights give the same value as lambda_of_vector."""
    from inducibility.graphs import iso_classes
    rng = random.Random(22)
    table = ObjectiveSpec.from_table(4, {g: F(rng.randint(-3, 5), rng.randint(1, 4))
                                         for g in iso_classes(4)})
    names = ["x%d" % i for i in range(5)]
    for _ in range(12):
        x = rand_vector(rng, allow_clique=rng.random() < 0.5)
        point = dict(zip(names, (x.x0,) + x.parts))
        xs = [MPoly.var(v) for v in names[:len(x.parts) + 1]]
        for spec in (spec_c4, table):
            lam = lambda_of_vector(spec, x)
            assert lam == sum(v * density_formula(a, x)
                              for a, v in spec.partition_values().items())
            assert lambda_free(spec, x.x0, x.parts) == lam
            poly = MPoly.const(0) + lambda_free(spec, xs[0], xs[1:])
            assert poly.evaluate(point) == lam, (spec, x)


def test_draw_sum_multinomial_theorem_and_size_guard(spec_c4):
    xs = {i: MPoly.var("x%d" % i) for i in range(3)}
    assert draw_sum(4, xs, lambda counts: 1) == (xs[0] + xs[1] + xs[2]) ** 4
    assert draw_sum(3, {0: F(1, 2)}, lambda counts: 0) == 0
    with pytest.raises(ValueError, match="support too large"):
        draw_sum(8, {i: F(1, 8) for i in range(8)}, lambda counts: 1)
    with pytest.raises(ValueError, match="support too large"):
        lambda_of_vector(spec_c4, PartiteVector.uniform(57))


def test_count_partite_examples():
    assert count_partite([2, 1, 1, 1], realisation_shape(16, PartiteVector.uniform(8))) == 2240
    assert count_partite([4], realisation_shape(9, PartiteVector([F(1)]))) == comb(9, 4)
    assert count_partite([1, 1, 1], complete_partite_shape_of(Graph.complete_partite([2, 2, 2]))) == 8


def test_count_partite_matches_induced_count():
    from inducibility.graphs import induced_count
    rng = random.Random(15)
    for _ in range(10):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        g = Graph.complete_partite(sizes)
        if g.n < 4:
            continue
        shape = complete_partite_shape_of(g)
        for a in partitions_of(4):
            assert count_partite(a, shape) == induced_count(Graph.complete_partite(a), g)


def test_finite_density_converges():
    """count/C(n,k) approaches the closed form at O(1/n), n in {60,120,240}."""
    x = PartiteVector([F(5, 12), F(1, 3)])
    for a in ((2, 2), (3, 1, 1), (2, 1, 1, 1)):
        dv = density_formula(a, x)
        errs = []
        for n in (60, 120, 240):
            fin = F(count_partite(a, realisation_shape(n, x)), comb(n, sum(a)))
            errs.append(abs(fin - dv))
        c_fit = 60 * errs[0]
        assert errs[1] <= 2 * c_fit / 120 + F(1, 10**9)
        assert errs[2] <= 2 * c_fit / 240 + F(1, 10**9)


def test_lambda_of_shape_matches_graph(spec_c4):
    from inducibility.objectives import lambda_graph
    g = Graph.complete_partite([3, 2, 2])
    assert lambda_of_shape(spec_c4, complete_partite_shape_of(g)) == lambda_graph(spec_c4, g)


# -- edit distance ----------------------------------------------------------

def test_edit_vectors_examples():
    half = PartiteVector([F(1, 2), F(1, 2)])
    assert edit_distance_vectors(half, PartiteVector.zero()) == F(1, 2)
    assert edit_distance_vectors(half, half) == 0
    assert edit_distance_vectors(PartiteVector([F(1)]), half) == F(1, 2)


def test_edit_vectors_norm_identity():
    rng = random.Random(16)
    for _ in range(25):
        x = rand_vector(rng)
        want = sum((p * p for p in x.parts), F(0))
        assert edit_distance_vectors(x, PartiteVector.zero()) == want


def test_edit_vectors_tail_bound():
    rng = random.Random(17)
    for _ in range(15):
        x = rand_vector(rng, max_support=4)
        for m in range(len(x.parts)):
            trunc = PartiteVector(x.parts[:m])
            tail = sum((p * p for p in x.parts[m:]), F(0))
            assert edit_distance_vectors(x, trunc) <= tail


def test_edit_vectors_l1_bound():
    rng = random.Random(18)
    for _ in range(20):
        x = rand_vector(rng, max_support=3)
        y = rand_vector(rng, max_support=3)
        m = max(len(x.parts), len(y.parts))
        l1 = sum(abs((x.parts[i] if i < len(x.parts) else F(0))
                     - (y.parts[i] if i < len(y.parts) else F(0))) for i in range(m))
        assert edit_distance_vectors(x, y) <= 2 * l1


def test_edit_vectors_metric_axioms():
    rng = random.Random(19)
    for _ in range(30):
        xs = [rand_vector(rng, max_support=3) for _ in range(3)]
        d01 = edit_distance_vectors(xs[0], xs[1])
        d10 = edit_distance_vectors(xs[1], xs[0])
        assert d01 == d10
        assert (d01 == 0) == (xs[0] == xs[1])
        d12 = edit_distance_vectors(xs[1], xs[2])
        d02 = edit_distance_vectors(xs[0], xs[2])
        assert d02 <= d01 + d12


def test_edit_vectors_vs_finite_realisations():
    """Limit distance vs the exact n = 8 bijection search, within 2*(n+1)/n^2."""
    rng = random.Random(20)
    slack = F(2 * 9, 64)
    for _ in range(10):
        x = rand_vector(rng, max_support=3)
        y = rand_vector(rng, max_support=3)
        gx = realise(8, x).graph
        gy = realise(8, y).graph
        d_exact = edit_distance_exact(gx, gy)
        d_lim = edit_distance_vectors(x, y)
        assert abs(d_exact - d_lim) <= slack, (x, y, d_exact, d_lim)
