import itertools
import random
from fractions import Fraction as F
from math import comb

import pytest

from inducibility import partite, perturbation
from inducibility.graphs import Graph, complete_partite_shape_of, iso_classes
from inducibility.objectives import ObjectiveSpec, big_lambda, lambda_graph, partitions_of
from inducibility.partite import (PartiteVector, density_polynomial, draw_sum, lambda_gradient,
                                  lambda_of_vector)
from inducibility.polynomials import MPoly, UPoly
from inducibility.perturbation import (AttachmentPattern, attach_value,
                                       attach_value_generic, flip_gradient, flip_gradient_generic,
                                       lagrange_residual, pair_density, vertex_gradient)

import helpers
from helpers import (attach, big_lambda_vertex, compare_bounds, count_calls,
                     finite_attach_lambda_vertex, finite_flip_delta, flip, integer_route_specs,
                     integer_route_vectors, partial_derivative_fd, pattern_e, realise,
                     realised_graph, realised_shape, vertex_groups)

A8 = PartiteVector.uniform(8)
A311 = PartiteVector([F(3, 5)])
HALF = PartiteVector([F(1, 2), F(1, 2)])


def test_flip_gradient_headline(spec_k2111):
    assert flip_gradient(spec_k2111, A8, 1, 2) == F(150, 512)
    assert flip_gradient(spec_k2111, A8, 1, 1) == F(84, 512)


def test_flip_gradient_small_example():
    empty3 = ObjectiveSpec.partite_density([3])
    half = PartiteVector([F(1, 2), F(1, 2)])
    assert flip_gradient(empty3, half, 1, 1) == F(1, 2)


def test_flip_gradient_errors(spec_c4):
    with pytest.raises(ValueError):
        flip_gradient(spec_c4, PartiteVector([F(1)]), 1, 2)


def test_attach_value_headline(spec_k2111, spec_k311):
    b7 = {i: 1 if i <= 7 else 0 for i in range(1, 9)}
    got = attach_value(spec_k2111, A8, AttachmentPattern(b7, F(1)))
    assert got.value == F(525, 1024)
    att1 = attach_value(spec_k311, A311, AttachmentPattern({1: 1}, F(1, 3)))
    assert [str(c) for c in att1.poly.coeffs] == ["0", "216/625"]
    assert att1.value == F(216, 625) / 3
    att0 = attach_value(spec_k311, A311, AttachmentPattern({1: 0}, F(1, 3)))
    assert [str(c) for c in att0.poly.coeffs] == ["0", "0", "216/625"]


def test_attach_alpha_poly_matches_direct_eval(spec_k311):
    """The alpha polynomial evaluated at rational alpha equals direct expectation."""
    rng = random.Random(31)
    for _ in range(6):
        alpha = F(rng.randint(0, 8), 8)
        p = AttachmentPattern({1: rng.randint(0, 1)}, alpha)
        av = attach_value(spec_k311, A311, p)
        assert av.value == av.poly(alpha)


def test_attach_ignores_alpha_without_clique(spec_k2111):
    """Without clique mass the attachment polynomial is constant, so any
    alpha gives the alpha = 1 value."""
    half = attach_value(spec_k2111, A8, AttachmentPattern({1: 1}, F(1, 2)))
    one = attach_value(spec_k2111, A8, AttachmentPattern({1: 1}, F(1)))
    assert half == one and half.poly.degree <= 0


def test_vertex_gradient(spec_k2111):
    assert vertex_gradient(spec_k2111, A8, pattern_e(1, A8)).value == 0
    b8 = {i: 1 for i in range(1, 9)}
    vg = vertex_gradient(spec_k2111, A8, AttachmentPattern(b8, F(1)))
    assert vg.value == F(525, 1024) - F(63, 128)
    assert vg.value == F(21, 1024)


def test_partial_derivative_identity_random():
    """(1/k) dlambda/dx_i = lambda(x,(e_i,1)) against the symbolic free form."""
    rng = random.Random(32)
    pool = [a for k in (3, 4) for a in partitions_of(k)]
    for _ in range(12):
        a = rng.choice(pool)
        spec = ObjectiveSpec.partite_density(a)
        parts = sorted([F(rng.randint(1, 4), 12) for _ in range(rng.randint(1, 3))],
                       reverse=True)
        while sum(parts) > 1:
            parts = [p / 2 for p in parts]
        x = PartiteVector(parts)
        poly = density_polynomial(a, len(x.parts))
        point = {"x0": x.x0}
        point.update({f"x{i}": p for i, p in enumerate(x.parts, start=1)})
        for i in x.supp_star:
            sym = poly.partial(f"x{i}").evaluate(point)
            assert lambda_gradient(spec, x)[i] == sym, (a, x, i)


def test_partial_derivative_fd_crosscheck(spec_k311):
    for i in (0, 1):
        exact = float(lambda_gradient(spec_k311, A311)[i])
        fd = partial_derivative_fd(spec_k311, A311, i, step=1e-6)
        assert abs(exact - fd) < 1e-9


def test_lagrange_residual(spec_k2111, spec_k311, spec_c4):
    assert lagrange_residual(spec_k2111, A8) == 0
    assert lagrange_residual(spec_k311, A311) == 0
    # symmetric points are always stationary (Euler relation), so a
    # positive residual needs an asymmetric non-maximiser
    assert lagrange_residual(spec_c4, PartiteVector([F(1, 2), F(1, 4), F(1, 4)])) > 0
    assert lagrange_residual(spec_k2111, PartiteVector([F(1, 2), F(1, 2)])) == 0


def test_lagrange_residual_makes_no_lambda_pass(monkeypatch, spec_k2111, spec_c4):
    """lambda comes from the clone values (Euler's identity), so the
    residual costs one gradient pass and no lambda_of_vector call."""
    calls = count_calls(monkeypatch, "lambda_of_vector")
    assert lagrange_residual(spec_k2111, A8) == 0
    assert lagrange_residual(spec_c4, PartiteVector([F(1, 2), F(1, 4), F(1, 8)])) > 0
    assert calls == []


def test_partial_at_maximiser(spec_k2111):
    assert lambda_gradient(spec_k2111, A8)[1] == 5 * F(525, 1024)


def _sample_graph(types, joined=None):
    """The pattern of draws with these types (joined iff the types differ or
    both are 0), plus a last vertex joined to draw a iff joined[a]."""
    m = len(types)
    edges = [(a, b) for a, b in itertools.combinations(range(m), 2)
             if types[a] != types[b] or types[a] == 0]
    if joined is not None:
        edges += [(a, m) for a in range(m) if joined[a]]
        m += 1
    return Graph.from_edges(m, edges)


def _ordered_flip(spec, x, i1, i2):
    """Flip gradient by enumerating ordered (k-2)-tuples of further draws."""
    total = F(0)
    for tup in itertools.product(x.supp_star, repeat=spec.k - 2):
        weight = F(1)
        for i in tup:
            weight *= x.entry(i)
        g = _sample_graph((i1, i2) + tup)
        total += weight * (spec.gamma_of(g) - spec.gamma_of(flip(g, 0, 1)))
    return total


def test_generic_flip_and_attach_match_exact(spec_c4):
    """MPoly entries evaluated at x reproduce flip_gradient (and the ordered
    enumeration), and without clique mass attach_value_generic reproduces
    attach_value at alpha = 1."""
    import itertools
    from inducibility.graphs import iso_classes
    rng = random.Random(33)
    table = ObjectiveSpec.from_table(4, {g: F(rng.randint(-3, 5), rng.randint(1, 4))
                                         for g in iso_classes(4)})
    for trial in range(8):
        parts = sorted([F(rng.randint(1, 6), 12) for _ in range(rng.randint(1, 3))],
                       reverse=True)
        while sum(parts) > 1:
            parts = [p / 2 for p in parts]
        if trial % 2:
            parts = [p / sum(parts) for p in parts]
        x = PartiteVector(parts)
        point = {"x%d" % i: x.entry(i) for i in range(len(x.parts) + 1)}
        entries = {i: MPoly.var("x%d" % i) for i in x.supp_star}
        for spec in (spec_c4, table):
            for i1, i2 in itertools.combinations_with_replacement(x.supp_star, 2):
                want = flip_gradient(spec, x, i1, i2)
                assert want == _ordered_flip(spec, x, i1, i2)
                poly = MPoly.const(0) + flip_gradient_generic(spec, entries, i1, i2)
                assert poly.evaluate(point) == want, (x, i1, i2)
            if x.x0:
                continue
            for bits in itertools.product((0, 1), repeat=len(x.parts)):
                b = dict(zip(x.support, bits))
                want = attach_value(spec, x, AttachmentPattern(b, F(1))).value
                assert attach_value_generic(spec, x.draw_weights(), b) == want
                poly = MPoly.const(0) + attach_value_generic(spec, entries, b)
                assert poly.evaluate(point) == want, (x, b)


def test_pair_density_vs_flip(spec_k311):
    for pair in ((0, 0), (0, 1), (1, 1)):
        assert flip_gradient(spec_k311, A311, *pair) == pair_density(spec_k311, A311, *pair)


def test_finite_limit_consistency_flip(spec_k2111, spec_c4):
    """Finite flip quotients approach the limit gradient at O(1/n)."""
    for spec, x, pair in ((spec_k2111, A8, (1, 2)), (spec_c4, PartiteVector([F(1, 2), F(1, 2)]), (1, 1))):
        lim = flip_gradient(spec, x, *pair)
        errs = {}
        for n in (80, 160):
            fin = finite_flip_delta(spec, realise(n, x), *pair)
            errs[n] = abs(fin - lim)
        c_fit = 80 * errs[80]
        assert errs[160] <= 2 * c_fit / 160 + F(1, 10**9)


def test_finite_limit_consistency_attach(spec_k311):
    lim = attach_value(spec_k311, A311, AttachmentPattern({1: 1}, F(1, 2))).value
    sizes = realise(160, A311)
    fin = finite_attach_lambda_vertex(spec_k311, sizes, {1: 1}, int(F(1, 2) * sizes[0]))
    assert abs(fin - lim) <= F(4, 160)


def test_compare_bounds_identity(spec_c4):
    rep = compare_bounds(spec_c4, realised_graph(realise(12, HALF)), HALF, F(1, 10))
    assert rep.bounds.wrong_pairs == 0
    assert rep.lam_diff == 0
    assert all(v for v in (rep.concl_general, rep.concl_star, rep.concl_upper)
               if v is not None)


def test_compare_bounds_single_edge(spec_c4):
    h = flip(realised_graph(realise(12, HALF)), 0, 6)     # delete one cross edge
    c = flip_gradient(spec_c4, HALF, 1, 2)
    rep = compare_bounds(spec_c4, h, HALF, c)
    assert rep.bounds.wrong_pairs == 1 and rep.is_star
    assert rep.hyp_all_ge_c and rep.hyp_all_le_c
    assert rep.concl_star is True and rep.concl_general is True and rep.concl_upper is True


def test_compare_bounds_star(spec_c4):
    h = realised_graph(realise(12, HALF))
    for v in (6, 7, 8):               # 3-edge star of wrong pairs at vertex 0
        h = flip(h, 0, v)
    cmin = min(flip_gradient(spec_c4, HALF, 1, 2), flip_gradient(spec_c4, HALF, 1, 1))
    rep = compare_bounds(spec_c4, h, HALF, cmin)
    assert rep.is_star and rep.bounds.max_degree == 3
    assert rep.hyp_all_ge_c
    assert rep.concl_star is True


def test_compare_bounds_gamma_max_on_a_fresh_spec():
    """gamma_max is max |gamma| over every class of k vertices, whatever keys
    of gamma were read before: here on a spec built in the test, whose gamma
    nothing has read. |gamma| peaks at 3 on K_4, which no 8-vertex graph of
    the instance contains."""
    spec = ObjectiveSpec.combination([(F(1), [2, 2]), (F(-3), [1, 1, 1, 1])])
    assert not spec.gamma  # a combination's gamma is filled key by key
    h = flip(realised_graph(realise(8, HALF)), 0, 4)
    rep = compare_bounds(spec, h, HALF, F(1, 10))
    assert rep.bounds.wrong_pairs == 1
    assert rep.bounds.xi1 == 2 * 3 * F(4**4, 8**4)
    assert rep.bounds.xi2 == 2 * 3 * F(4**3, 8**3)


@pytest.mark.parametrize("spec", [ObjectiveSpec.partite_density([2, 1, 1]),
                                  ObjectiveSpec.combination([(1, (2, 2)), (-1, (1, 1, 1, 1))])],
                         ids=["KP 2,1,1", "signed SUM"])
def test_realised_layout_and_compare_bounds(spec):
    """The graph laid out by vertex_groups is complete partite with the shape
    of realise's sizes, parts in index order and the clique last, and
    compare_bounds reads lambda(H') - lambda(H) and the wrong pairs off that
    layout. Vectors with clique mass, parts that round to no vertices, and
    H' with 0 to 3 random flips, n from k to 14."""
    rng = random.Random(31)
    vectors = [PartiteVector([F(3, 5), F(1, 20)]), PartiteVector([F(1, 2), F(1, 3), F(1, 6)]),
               PartiteVector([F(1, 3), F(1, 4), F(1, 30)]), PartiteVector()]
    for n in range(spec.k, 15):
        for x in vectors:
            sizes = realise(n, x)
            layout = vertex_groups(sizes)
            assert layout == sorted(layout, key=lambda i: (i == 0, i))
            hp = realised_graph(sizes)
            assert complete_partite_shape_of(hp) == realised_shape(sizes)
            h = hp
            for _ in range(rng.randint(0, 3)):
                h = flip(h, *rng.sample(range(n), 2))
            rep = compare_bounds(spec, h, x, F(1, 10))
            assert rep.lam_diff == lambda_graph(spec, hp) - lambda_graph(spec, h), (n, x)
            assert rep.bounds.wrong_pairs == sum(h.has_edge(u, v) != hp.has_edge(u, v)
                                                 for u in range(n) for v in range(u + 1, n))
    assert realise(10, vectors[0]) == {1: 6, 0: 4}  # part 2 has no vertices


def _ordered_attach(spec, x, b, alpha):
    """lambda(x, (b, alpha)) by ordered-tuple enumeration over a split-clique
    alphabet: part indices with weights x_i, and the clique split into a
    joined share (alpha x0) and an unjoined share ((1 - alpha) x0)."""
    letters = []
    for i in x.support:
        letters.append((i, x.entry(i), bool(b.get(i, 0))))
    if x.x0 > 0:
        letters.append((0, alpha * x.x0, True))
        letters.append((0, (1 - alpha) * x.x0, False))
    total = F(0)
    for tup in itertools.product(range(len(letters)), repeat=spec.k - 1):
        weight = F(1)
        types = []
        adj = []
        for idx in tup:
            typ, w, joined = letters[idx]
            weight *= w
            types.append(typ)
            adj.append(joined)
        total += weight * spec.gamma_of(_sample_graph(types, adj))
    return total


def test_attach_alpha_poly_independent_oracle(spec_k311, spec_c4):
    """Ordered-tuple enumeration over a split-clique alphabet reproduces the
    attachment polynomial at rational alpha."""
    for spec, x in ((spec_k311, A311), (spec_c4, HALF)):
        for bits in ((0,), (1,)) if len(x.parts) == 1 else ((0, 0), (1, 0), (1, 1)):
            b = {i + 1: v for i, v in enumerate(bits)}
            for alpha in (F(0), F(1, 3), F(1)):
                if x.x0 == 0 and alpha != 1:
                    continue
                got = attach_value(spec, x, AttachmentPattern(b, alpha))
                assert got.poly(alpha) == _ordered_attach(spec, x, b, alpha), (b, alpha)


def test_split_attach_sums_match_ordered_oracle_with_clique_mass():
    """The attachment polynomial from the split integer sums equals the
    ordered-tuple oracle at alpha = 0, 1/4 and 1 on seeded KP, signed SUM
    and gamma-table specs (k = 3 to 5) at points with clique mass, and its
    degree is below k."""
    rng = random.Random(52)
    specs = [s for s in integer_route_specs() if s.k <= 5]  # 3 KP, the SUM, 3 tables
    for spec in specs:
        for _ in range(2):
            parts = sorted((F(rng.randint(1, 5), 24) for _ in range(rng.randint(1, 3))),
                           reverse=True)
            x = PartiteVector(parts)
            assert x.x0 > 0
            b = {i: rng.randint(0, 1) for i in x.support}
            poly = attach_value(spec, x, AttachmentPattern(b, F(1, 2))).poly
            assert poly.degree < spec.k
            for alpha in (F(0), F(1, 4), F(1)):
                assert poly(alpha) == _ordered_attach(spec, x, b, alpha), (spec, x, b, alpha)


def _finite_spec(name):
    if name == "KP 3,1,1":
        return ObjectiveSpec.partite_density([3, 1, 1])
    if name == "signed SUM":
        return ObjectiveSpec.combination([(F(1), (2, 1, 1)), (F(-1, 2), (2, 2))])
    rng = random.Random(34)
    return ObjectiveSpec.from_table(4, {g: F(rng.randint(-3, 5), rng.randint(1, 4))
                                        for g in iso_classes(4)})


# one vector without clique mass, one with (at n = 9 its second part is empty)
FINITE_VECTORS = (PartiteVector([F(1, 2), F(1, 3), F(1, 6)]),
                  PartiteVector([F(2, 5), F(1, 5)]))


@pytest.mark.parametrize("n", [9, 11])
@pytest.mark.parametrize("name", ["KP 3,1,1", "signed SUM", "table"])
def test_finite_flip_delta_exact(name, n):
    """finite_flip_delta is the Lambda change of flipping one pair u in part
    i1, v in part i2 of the realisation, over C(n-2, k-2)."""
    spec = _finite_spec(name)
    for x in FINITE_VECTORS:
        sizes = realise(n, x)
        g = realised_graph(sizes)
        layout = vertex_groups(sizes)
        groups = [(i, [v for v, j in enumerate(layout) if j == i]) for i in sizes]
        base = big_lambda(spec, g)
        for (i1, p1), (i2, p2) in itertools.combinations_with_replacement(groups, 2):
            if p1 == p2 and len(p1) < 2:
                continue
            u, v = p1[0], p2[1] if p1 == p2 else p2[0]
            want = (base - big_lambda(spec, flip(g, u, v))) / comb(n - 2, spec.k - 2)
            assert finite_flip_delta(spec, sizes, i1, i2) == want, (x, i1, i2)


@pytest.mark.parametrize("n", [9, 11])
@pytest.mark.parametrize("name", ["KP 3,1,1", "signed SUM", "table"])
def test_finite_attach_lambda_vertex_exact(name, n):
    """finite_attach_lambda_vertex is Lambda(G + u, u) over C(n, k-1) for the
    vertex u attached by b and j clique neighbours."""
    spec = _finite_spec(name)
    for x in FINITE_VECTORS:
        sizes = realise(n, x)
        v0 = sizes.get(0, 0)
        parts = [i for i in sizes if i]
        for bits in itertools.product((0, 1), repeat=len(parts)):
            b = dict(zip(parts, bits))
            for j in range(v0 + 1):
                h = attach(realised_graph(sizes), sizes, b, F(j, v0) if v0 else F(0))
                want = big_lambda_vertex(spec, h, n) / comb(n, spec.k - 1)
                assert finite_attach_lambda_vertex(spec, sizes, b, j) == want, (x, b, j)


def _pattern_graph(types):
    """The sampled pattern of draws with these types: two draws are joined
    iff their types differ or both are the clique (0)."""
    k = len(types)
    return Graph.from_edges(k, [(a, b) for a in range(k) for b in range(a + 1, k)
                                if types[a] != types[b] or types[a] == 0])


def test_flip_pair_attach_integer_route_equal_fraction_route():
    """flip_gradient, pair_density and attach_value, whose draws weigh the
    integer weights D x_i, equal the Fraction route: the _generic functions
    on x.draw_weights(), and for pair_density a draw sum of gamma_of. Four
    seeded specs per vector; the 30-part vector runs with the k = 3 specs
    only (31 draw keys)."""
    rng = random.Random(41)
    specs = integer_route_specs()
    for x in integer_route_vectors(7):
        weights = x.draw_weights()
        eligible = specs if len(x.parts) <= 8 else [s for s in specs if s.k == 3]
        for spec in rng.sample(eligible, min(4, len(eligible))):
            k = spec.k
            for i1, i2 in rng.sample(list(itertools.combinations_with_replacement(x.supp_star, 2)),
                                     min(3, len(x.supp_star))):
                assert flip_gradient(spec, x, i1, i2) == \
                    flip_gradient_generic(spec, weights, i1, i2), (spec, x, i1, i2)
                want = draw_sum(k - 2, weights, lambda counts: spec.gamma_of(_pattern_graph(
                    [i1, i2] + [i for i, c in counts.items() for _ in range(c)])))
                assert pair_density(spec, x, i1, i2) == want, (spec, x, i1, i2)
            b = {i: rng.randint(0, 1) for i in x.support}
            alpha = F(rng.randint(0, 7), 7) if x.x0 else F(1)
            got = attach_value(spec, x, AttachmentPattern(b, alpha))
            want = UPoly() + attach_value_generic(spec, weights, b)
            assert got.poly == want and got.value == want(alpha), (spec, x, b)


def test_rational_point_kernels_see_only_ints(monkeypatch):
    """At a rational point every truncated product of the pattern kernel,
    every draw-sum weight and term, and every split sum of the attachment
    walk is an int, and on a realisation every pick-sum term of the finite-n
    flip and attachment values is an int: the values become Fractions only
    at the end."""
    seen = {"times": set(), "draw_sum": set(), "draw_term": set(), "split_sum": set(),
            "pick_sum": set()}
    times, draw, pick = partite.CompiledPattern.times, perturbation.draw_sum, helpers.pick_sum

    def spy_times(self, poly, factor):
        seen["times"].update(map(type, poly + factor))
        return times(self, poly, factor)

    def spy_draw(k, weights, term, group=None):
        def seen_term(counts):
            value = term(counts)
            seen["draw_term"].add(type(value))
            return value
        seen["draw_sum"].update(map(type, weights.values()))
        total = draw(k, weights, seen_term, group)
        if group is not None:
            seen["split_sum"].update(map(type, total.values()))
        return total

    def spy_pick(k, sizes, term):
        def seen_term(counts):
            value = term(counts)
            seen["pick_sum"].add(type(value))
            return value
        return pick(k, sizes, seen_term)

    monkeypatch.setattr(partite.CompiledPattern, "times", spy_times)
    monkeypatch.setattr(perturbation, "draw_sum", spy_draw)
    monkeypatch.setattr(helpers, "pick_sum", spy_pick)
    x = PartiteVector([F(1, 3), F(1, 5), F(1, 5), F(1, 7)])
    realised = realise(20, x)
    for spec in integer_route_specs()[3:6]:  # KP 2,2,1,1, the signed SUM, the k = 3 table
        lambda_of_vector(spec, x)
        lagrange_residual(spec, x)
        flip_gradient(spec, x, 0, 2)
        pair_density(spec, x, 1, 2)
        attach_value(spec, x, AttachmentPattern({1: 1, 3: 1}, F(1, 2)))
        finite_flip_delta(spec, realised, 0, 2)
        for j in (0, 1, realised[0]):
            finite_attach_lambda_vertex(spec, realised, {1: 1, 3: 1}, j)
    assert seen == {"times": {int}, "draw_sum": {int}, "draw_term": {int}, "split_sum": {int},
                    "pick_sum": {int}}
