import itertools
import random
from fractions import Fraction as F
from math import comb, factorial, perm, prod

import pytest

from inducibility.graphs import CompletePartiteShape, Graph, complete_partite_shape_of
from inducibility.objectives import ObjectiveSpec, partitions_of
from inducibility.graphs import edit_distance_exact
from inducibility.partite import (PartiteVector, SymmetricIndex, count_partite,
                                  density_formula, density_polynomial, draw_sum,
                                  edit_distance_vectors,
                                  elementary_symmetric, lambda_free, lambda_gradient,
                                  lambda_of_shape, lambda_of_vector, partition_counts,
                                  pick_sum, realise, sampling_density)
from inducibility.perturbation import attach_value, clone_values, lagrange_residual, pattern_e
from inducibility.polynomials import MPoly

from helpers import integer_route_specs, integer_route_vectors


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
    assert min(x.draw_weights().values()) == F(2, 5)
    assert PartiteVector().supp_star == (0,)
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
    assert realise(5, PartiteVector()).shape().part_sizes == [1] * 5
    assert realise(7, PartiteVector([F(1, 2), F(1, 2)])).shape().part_sizes == [4, 3]
    assert realise(10, PartiteVector([F(3, 5)])).shape().part_sizes == [6, 1, 1, 1, 1]


def test_realised_shape_skips_empty_parts():
    """With clique mass a part with x_i n < 2 is realised empty; shape() skips
    it and agrees with the realised graph."""
    x = PartiteVector([F(3, 5), F(1, 20)])
    assert realise(10, x).parts[1] == ()
    assert realise(10, x).shape().part_sizes == [6, 1, 1, 1, 1]
    rng = random.Random(22)
    vectors = [x] + [rand_vector(rng, max_support=5, max_denom=40) for _ in range(40)]
    for v in vectors:
        for n in (3, 10, 20, 40):
            r = realise(n, v)
            assert r.shape() == complete_partite_shape_of(r.graph())


def test_realisation_error_bound():
    rng = random.Random(21)
    for _ in range(30):
        x = rand_vector(rng, allow_clique=False)
        if x.x0 != 0:
            continue
        n = rng.randint(5, 40)
        sizes = realise(n, x).parts
        for i, part in enumerate(sizes):
            assert abs(len(part) - x.parts[i] * n) < 1


def _permutation_sum(values, exponents):
    """S_d by definition: prod v^d over ordered tuples of distinct positions."""
    return sum((prod(values[i] ** d for i, d in zip(tup, exponents))
                for tup in itertools.permutations(range(len(values)), len(exponents))), F(0))


def test_elementary_symmetric():
    half = PartiteVector([F(1, 2), F(1, 2)])
    assert elementary_symmetric(half, SymmetricIndex((2,))) == F(1, 2)
    assert elementary_symmetric(half, SymmetricIndex((2, 1))) == F(1, 4)
    assert elementary_symmetric(half, SymmetricIndex((2,), frozenset({1}))) == F(1, 4)
    assert elementary_symmetric(PartiteVector(), SymmetricIndex(())) == 1
    assert elementary_symmetric(PartiteVector.uniform(2), SymmetricIndex((1, 1, 1))) == 0
    rng = random.Random(13)
    for _ in range(30):
        x = rand_vector(rng)
        d = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        assert elementary_symmetric(x, SymmetricIndex(d)) <= 1
    # against the definition: exponents with repeats, exclusions (some outside
    # the support), the empty index, equal parts and supports shorter than d
    rng = random.Random(47)
    for _ in range(150):
        m = rng.randint(0, 7)
        pool = [F(rng.randint(1, 6), 7 * 8) for _ in range(3)]
        x = PartiteVector(sorted((rng.choice(pool) for _ in range(m)), reverse=True))
        d = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(0, 5)))
        excluded = frozenset(rng.sample(range(1, 10), rng.randint(0, 3)))
        allowed = [p for i, p in enumerate(x.parts, start=1) if i not in excluded]
        assert elementary_symmetric(x, SymmetricIndex(d, excluded)) == \
            _permutation_sum(allowed, d), (x, d, excluded)


def test_symmetric_index_compares_by_value():
    i, j = SymmetricIndex((2, 1), frozenset({3})), SymmetricIndex((2, 1), frozenset([3]))
    assert i is not j and i == j and hash(i) == hash(j) and {i: 1}[j] == 1
    assert i != SymmetricIndex((2, 1)) and i != SymmetricIndex((1, 2), frozenset({3}))
    assert SymmetricIndex(()) == SymmetricIndex((), frozenset()) and i != i.exponents
    with pytest.raises(ValueError):
        SymmetricIndex((1, 0))


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


@pytest.mark.parametrize("r", [1, 2, 8, 40])
def test_density_formula_on_uniform_vectors(r):
    """p(K_a, uniform(r)) = k! perm(r, l) / (prod a_i! prod c_j! r^k)."""
    x = PartiteVector.uniform(r)
    for k in range(1, 7):
        for a in partitions_of(k):
            denom = prod(factorial(v) for v in a) * \
                prod(factorial(a.count(v)) for v in set(a)) * r**k
            assert density_formula(a, x) == F(factorial(k) * perm(r, len(a)), denom), a


def test_density_formula_matches_sampling_on_many_parts():
    """The generating function agrees with the sampling model on vectors with
    8 to 10 parts, with and without clique mass."""
    rng = random.Random(48)
    for _ in range(6):
        m = rng.randint(8, 10)
        d = rng.randint(m, 3 * m)
        parts = [F(rng.randint(1, 4), 4 * d) for _ in range(m)]
        if rng.random() < 0.5:
            parts = [p / sum(parts) for p in parts]
        x = PartiteVector(sorted(parts, reverse=True))
        for a in rng.sample(partitions_of(3) + partitions_of(4) + partitions_of(5), 5):
            assert density_formula(a, x) == sampling_density(a, x), (a, x)


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
    # the guard counts multisets: C(15, 8) = 6,435 here
    assert draw_sum(8, {i: F(1, 8) for i in range(8)}, lambda counts: 1) == 1
    with pytest.raises(ValueError, match="support too large"):  # C(51, 12) multisets
        draw_sum(12, {i: F(1, 40) for i in range(40)}, lambda counts: 1)
    # lambda has no support limit: C(57, 2) pairs of parts, 4!/(2! 2!)
    # orders of the draws, (1/57)^4 each
    assert lambda_of_vector(spec_c4, PartiteVector.uniform(57)) == F(56, 61731)


def test_pick_sum_calls_term_only_on_possible_picks():
    sizes = {0: 2, 1: 1, 2: 3}

    def picked_from_2(counts):
        if any(c > sizes[g] for g, c in counts.items()):
            raise AssertionError(f"impossible pick {counts}")
        return counts.get(2, 0)

    # over the C(6, 3) = 20 subsets, the 3 items of group 2 are each picked
    # in C(5, 2) = 10 of them
    assert pick_sum(3, sizes, picked_from_2) == 30
    assert pick_sum(3, sizes, lambda counts: 1) == comb(6, 3)


def _lambda_by_draws(spec, x0, parts):
    """lambda's free form by enumerating draw multisets: each multiset's
    pattern is complete partite, one part per nonzero index of its repeat
    count and one singleton per clique draw."""
    weights = {i: w for i, w in enumerate([x0, *parts]) if w != 0}
    values = spec.partition_values()

    def gamma(counts):
        a = [c for i, c in counts.items() if i] + [1] * counts.get(0, 0)
        return values[tuple(sorted(a, reverse=True))]

    return draw_sum(spec.k, weights, gamma)


def _kernel_cases(seed, count):
    """Seeded (spec, vector) pairs: KP, signed SUM and table specs at k = 4
    to 6, vectors with up to 6 parts drawn from a small pool (so equal parts
    are common), half of them with clique mass."""
    from inducibility.graphs import iso_classes
    rng = random.Random(seed)
    specs = [ObjectiveSpec.partite_density(a) for a in ([2, 2], [3, 1, 1], [2, 2, 1],
                                                         [2, 1, 1, 1], [2, 1, 1, 1, 1, 1])]
    specs.append(ObjectiveSpec.combination([(1, [2, 2, 1]), (F(-1, 2), [1, 1, 1, 1, 1]),
                                            (F(3), [3, 1])]))
    specs.append(ObjectiveSpec.combination([(F(2, 3), [3, 3]), (F(-1), [2, 1, 1, 1, 1])]))
    for k in (4, 5):
        specs.append(ObjectiveSpec.from_table(
            k, {g: F(rng.randint(-3, 5), rng.randint(1, 4)) for g in iso_classes(k)}))
    for _ in range(count):
        spec = rng.choice(specs)
        pool = [F(rng.randint(1, 6), 40) for _ in range(3)]
        parts = sorted((rng.choice(pool) for _ in range(rng.randint(0, 6))), reverse=True)
        if parts and rng.random() < 0.5:
            parts = [p / sum(parts) for p in parts]
        yield spec, PartiteVector(parts)


def _check_kernel_against_draws(spec, x):
    """lambda, every partial and the Lagrange residual against draw_sum and
    the attachment route; lambda in the Fraction and MPoly rings."""
    lam = _lambda_by_draws(spec, x.x0, x.parts)
    assert lambda_of_vector(spec, x) == lam, (spec, x)
    clones = {i: attach_value(spec, x, pattern_e(i, x)).value for i in x.supp_star}
    assert lambda_gradient(spec, x) == {i: spec.k * v for i, v in clones.items()}, (spec, x)
    assert lagrange_residual(spec, x) == max(abs(v - lam) for v in clones.values())
    if len(x.parts) <= 3:
        xs = [MPoly.var("x%d" % i) for i in range(len(x.parts) + 1)]
        assert lambda_free(spec, xs[0], xs[1:]) == _lambda_by_draws(spec, xs[0], xs[1:])


def test_lambda_and_gradient_match_draw_references():
    """The closed-form lambda and lambda_gradient agree exactly with the
    draw-multiset sum and with k * lambda(x, (e_i, 1)) from attach_value."""
    cases = list(_kernel_cases(61, 60))
    assert any(x.x0 and len(set(x.parts)) < len(x.parts) for _, x in cases)
    assert any(x.x0 == 0 and len(set(x.parts)) < len(x.parts) for _, x in cases)
    for spec, x in cases:
        _check_kernel_against_draws(spec, x)


def test_lambda_is_the_euler_sum_of_clone_values():
    """The free form is homogeneous of degree k, so lambda(x) = sum_i x_i
    lambda(x, (e_i, 1)) over supp* exactly; lagrange_residual reads lambda
    this way. Seeded KP, SUM and table specs, with and without clique mass,
    with tied parts and with a single part."""
    cases = list(_kernel_cases(20, 150))
    cases += [(spec, PartiteVector(parts)) for spec, _ in cases[:7]
              for parts in ([F(3, 5)], [F(1)], [])]
    assert any(x.x0 and len(set(x.parts)) < len(x.parts) for _, x in cases)
    assert any(x.x0 == 0 and len(set(x.parts)) < len(x.parts) for _, x in cases)
    assert {spec.provenance[0] for spec, _ in cases} == {"combination", "table"}
    for spec, x in cases:
        clones = clone_values(spec, x)
        assert lambda_of_vector(spec, x) == sum(x.entry(i) * v for i, v in clones.items()), \
            (spec, x)


def test_lambda_gradient_clique_and_run_cases(spec_c4, spec_k311):
    """No part of size 1 gives clique partial 0; the zero vector has only the
    clique index; members of a run of equal parts share one partial."""
    x = PartiteVector([F(1, 4), F(1, 4)])
    assert lambda_gradient(spec_c4, x)[0] == 0
    assert lambda_gradient(spec_k311, PartiteVector()) == {0: 0}
    grad = lambda_gradient(spec_k311, PartiteVector([F(1, 5)] * 3 + [F(1, 10)]))
    assert set(grad) == {0, 1, 2, 3, 4}
    assert grad[1] == grad[2] == grad[3] != grad[4]


def test_lambda_and_gradient_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from inducibility.graphs import iso_classes
    specs = [ObjectiveSpec.partite_density([2, 1, 1]), ObjectiveSpec.partite_density([2, 2, 1]),
             ObjectiveSpec.combination([(F(1, 2), [2, 2]), (F(-2), [1, 1, 1, 1])]),
             ObjectiveSpec.from_table(4, {g: F(i % 5 - 2, 1 + i % 3)
                                          for i, g in enumerate(iso_classes(4))})]

    @hyp.settings(max_examples=40, deadline=None, derandomize=True)
    @hyp.given(spec=st.sampled_from(specs),
               raw=st.lists(st.integers(1, 4), max_size=5),
               scale=st.integers(0, 6))
    def check(spec, raw, scale):
        # entries j/(4 * len + scale): equal parts whenever raw repeats, and
        # clique mass 1 - sum unless scale is 0 and raw is all 4s
        parts = sorted((F(j, 4 * len(raw) + scale) for j in raw), reverse=True)
        _check_kernel_against_draws(spec, PartiteVector(parts))

    check()


def test_count_partite_examples():
    assert count_partite([2, 1, 1, 1], realise(16, PartiteVector.uniform(8)).shape()) == 2240
    assert count_partite([4], realise(9, PartiteVector([F(1)])).shape()) == comb(9, 4)
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


def test_count_partite_many_singletons():
    """A million singleton parts cost one group factor, not a million-term loop."""
    m = 10**6
    shape = CompletePartiteShape(sizes=[50] * 5, counts=[(1, m)])
    closed = 5 * comb(50, 2) * (comb(4, 2) * 50**2 + 4 * 50 * m + comb(m, 2))
    assert count_partite([2, 1, 1], shape) == closed


def test_partition_counts_order_and_counts():
    """The scan lists partitions_of(n) in order, with count_partite's counts."""
    patterns = [(2, 1), (3,), (2, 2, 1), (1, 1, 1)]
    seen = []
    for groups, counts in partition_counts(patterns, 11):
        shape = CompletePartiteShape(counts=groups)
        seen.append(tuple(shape.part_sizes))
        assert counts == [count_partite(a, shape) for a in patterns]
    assert seen == partitions_of(11)


def test_finite_density_converges():
    """count/C(n,k) approaches the closed form at O(1/n), n in {60,120,240}."""
    x = PartiteVector([F(5, 12), F(1, 3)])
    for a in ((2, 2), (3, 1, 1), (2, 1, 1, 1)):
        dv = density_formula(a, x)
        errs = []
        for n in (60, 120, 240):
            fin = F(count_partite(a, realise(n, x).shape()), comb(n, sum(a)))
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
    assert edit_distance_vectors(half, PartiteVector()) == F(1, 2)
    assert edit_distance_vectors(half, half) == 0
    assert edit_distance_vectors(PartiteVector([F(1)]), half) == F(1, 2)


def test_edit_vectors_norm_identity():
    rng = random.Random(16)
    for _ in range(25):
        x = rand_vector(rng)
        want = sum((p * p for p in x.parts), F(0))
        assert edit_distance_vectors(x, PartiteVector()) == want


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


def _four_block_overlay(x, y):
    """The earlier edit_distance_vectors search, kept as the reference: the
    same leaf-peeling rule written out as four mirrored blocks (part row,
    part column, clique row, clique column)."""
    memo = {}

    def reduce_line(lines, idx, delta):
        v = lines[idx] - delta
        rest = lines[:idx] + lines[idx + 1:]
        if v == 0:
            return rest
        return tuple(sorted(rest + (v,), reverse=True))

    def rec(rows, x0r, cols, y0r):
        if not rows or not cols:
            return F(0)
        key = (rows, x0r, cols, y0r)
        if key in memo:
            return memo[key]
        best = F(0)
        seen_moves = set()
        for ri in range(len(rows)):
            r = rows[ri]
            if ("r", r) in seen_moves:
                continue
            seen_moves.add(("r", r))
            rrest = rows[:ri] + rows[ri + 1:]
            tried_cols = set()
            for ci in range(len(cols)):
                c = cols[ci]
                if c < r or c in tried_cols:
                    continue
                tried_cols.add(c)
                best = max(best, r * r + rec(rrest, x0r, reduce_line(cols, ci, r), y0r))
            if y0r >= r:
                best = max(best, rec(rrest, x0r, cols, y0r - r))
        for ci in range(len(cols)):
            c = cols[ci]
            if ("c", c) in seen_moves:
                continue
            seen_moves.add(("c", c))
            crest = cols[:ci] + cols[ci + 1:]
            tried_rows = set()
            for ri in range(len(rows)):
                r = rows[ri]
                if r < c or r in tried_rows:
                    continue
                tried_rows.add(r)
                best = max(best, c * c + rec(reduce_line(rows, ri, c), x0r, crest, y0r))
            if x0r >= c:
                best = max(best, rec(rows, x0r - c, crest, y0r))
        if x0r > 0:
            for ci in range(len(cols)):
                if cols[ci] >= x0r:
                    best = max(best, rec(rows, F(0), reduce_line(cols, ci, x0r), y0r))
            if y0r >= x0r:
                best = max(best, rec(rows, F(0), cols, y0r - x0r))
        if y0r > 0:
            for ri in range(len(rows)):
                if rows[ri] >= y0r:
                    best = max(best, rec(reduce_line(rows, ri, y0r), x0r, cols, F(0)))
            if x0r >= y0r:
                best = max(best, rec(rows, x0r - y0r, cols, F(0)))
        memo[key] = best
        return best

    base = sum((p * p for p in x.parts), F(0)) + sum((q * q for q in y.parts), F(0))
    return base - 2 * rec(x.parts, x.x0, y.parts, y.x0)


def test_edit_vectors_match_four_block_reference():
    """One peel rule from both sides gives the four-block search's values
    exactly: seeded pairs with at most 3 parts, with and without clique
    mass, with equal parts, and every equal-part pair up to 3 parts."""
    rng = random.Random(21)
    pairs = []
    for _ in range(180):
        xy = []
        for _ in range(2):
            if rng.random() < 0.25:
                m, d = rng.randint(1, 3), rng.randint(1, 4)
                xy.append(PartiteVector([F(1, m + rng.choice((0, d)))] * m))
            else:
                xy.append(rand_vector(rng, max_support=3, allow_clique=rng.random() < 0.6))
        pairs.append(tuple(xy))
    equal = [PartiteVector([F(1, m + c)] * m) for m in (1, 2, 3) for c in (0, 1)]
    pairs += list(itertools.product(equal, repeat=2))
    assert any(x.x0 > 0 and y.x0 > 0 for x, y in pairs)
    assert any(x.x0 == 0 and y.x0 == 0 for x, y in pairs)
    for x, y in pairs:
        assert edit_distance_vectors(x, y) == _four_block_overlay(x, y), (x, y)


def test_edit_vectors_vs_finite_realisations():
    """Limit distance vs the exact n = 8 bijection search, within 2*(n+1)/n^2."""
    rng = random.Random(20)
    slack = F(2 * 9, 64)
    for _ in range(10):
        x = rand_vector(rng, max_support=3)
        y = rand_vector(rng, max_support=3)
        gx = realise(8, x).graph()
        gy = realise(8, y).graph()
        d_exact = edit_distance_exact(gx, gy)
        d_lim = edit_distance_vectors(x, y)
        assert abs(d_exact - d_lim) <= slack, (x, y, d_exact, d_lim)


def test_integer_route_vectors_cover_the_cases():
    vectors = integer_route_vectors(7)
    assert {len(x.parts) for x in vectors} >= set(range(9)) | {30}
    assert any(x.x0 == 0 and len(set(x.parts)) < len(x.parts) for x in vectors)
    assert any(x.x0 and len(set(x.parts)) < len(x.parts) for x in vectors)
    assert max(p.denominator for x in vectors for p in x.parts) > 10**39
    assert PartiteVector().x0 == 1 and PartiteVector() in vectors


def test_lambda_of_vector_integer_route_equals_density_formula():
    """lambda_of_vector, evaluated at the integer weights D x_i, equals the
    Fraction route sum_b gamma(K_b) density_formula(b, x)."""
    specs = integer_route_specs()
    for x in integer_route_vectors(7):
        for spec in specs:
            want = sum((spec.on_complete_partite(b) * density_formula(b, x)
                        for b in partitions_of(spec.k)), F(0))
            assert lambda_of_vector(spec, x) == want, (spec, x)


def test_lambda_gradient_integer_route_equals_polynomial_partials():
    """lambda_gradient at the integer weights equals the partials of
    sum_b gamma(K_b) density_polynomial(b, m) evaluated at x, over supp*
    (up to 8 parts; k = 6 up to 5 parts, to bound the polynomial sizes)."""
    specs = integer_route_specs()
    free: dict = {}
    for x in integer_route_vectors(7):
        m = len(x.parts)
        if m > 8:
            continue
        point = {f"x{i}": x.entry(i) for i in range(m + 1)}
        for spec in (specs if m <= 5 else [s for s in specs if s.k <= 5]):
            if (spec, m) not in free:
                free[spec, m] = sum((spec.on_complete_partite(b) * density_polynomial(b, m)
                                     for b in partitions_of(spec.k)), MPoly.const(0))
            want = {i: free[spec, m].partial(f"x{i}").evaluate(point) for i in x.supp_star}
            assert lambda_gradient(spec, x) == want, (spec, x)
