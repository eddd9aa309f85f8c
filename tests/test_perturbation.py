import random
from fractions import Fraction as F

import pytest

from inducibility.objectives import ObjectiveSpec, partitions_of
from inducibility.partite import PartiteVector, density_polynomial, realise
from inducibility.polynomials import MPoly
from inducibility.perturbation import (AttachmentPattern, attach_value,
                                       attach_value_generic, compare_bounds,
                                       finite_attach_lambda_vertex, finite_flip_delta,
                                       flip_gradient, flip_gradient_generic,
                                       lagrange_residual, pair_density,
                                       partial_derivative, partial_derivative_fd,
                                       pattern_e, vertex_gradient)

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


def test_attach_requires_alpha_one_without_clique(spec_k2111):
    with pytest.raises(ValueError):
        attach_value(spec_k2111, A8, AttachmentPattern({1: 1}, F(1, 2)))


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
            assert partial_derivative(spec, x, i) == sym, (a, x, i)


def test_partial_derivative_fd_crosscheck(spec_k311):
    for i in (0, 1):
        exact = float(partial_derivative(spec_k311, A311, i))
        fd = partial_derivative_fd(spec_k311, A311, i, step=1e-6)
        assert abs(exact - fd) < 1e-9


def test_lagrange_residual(spec_k2111, spec_k311, spec_c4):
    assert lagrange_residual(spec_k2111, A8) == 0
    assert lagrange_residual(spec_k311, A311) == 0
    # symmetric points are always stationary (Euler relation), so a
    # positive residual needs an asymmetric non-maximiser
    assert lagrange_residual(spec_c4, PartiteVector([F(1, 2), F(1, 4), F(1, 4)])) > 0
    assert lagrange_residual(spec_k2111, PartiteVector([F(1, 2), F(1, 2)])) == 0


def test_partial_at_maximiser(spec_k2111):
    assert partial_derivative(spec_k2111, A8, 1) == 5 * F(525, 1024)


def _ordered_flip(spec, x, i1, i2):
    """Flip gradient by enumerating ordered (k-2)-tuples of further draws."""
    import itertools
    from inducibility.perturbation import _pair_codes
    table = spec.code_table()
    total = F(0)
    for tup in itertools.product(x.supp_star, repeat=spec.k - 2):
        weight = F(1)
        for i in tup:
            weight *= x.entry(i)
        code, fcode = _pair_codes((i1, i2) + tup)
        total += weight * (table[code] - table[fcode])
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
    realised = realise(160, A311)
    v0 = len(realised.structure.v0)
    fin = finite_attach_lambda_vertex(spec_k311, realised, {1: 1}, int(F(1, 2) * v0))
    assert abs(fin - lim) <= F(4, 160)


def test_compare_bounds_identity(spec_c4):
    realised = realise(12, PartiteVector([F(1, 2), F(1, 2)]))
    rep = compare_bounds(spec_c4, realised.graph, realised, F(1, 10))
    assert rep.bounds.wrong_pairs == 0
    assert rep.lam_diff == 0
    assert rep.all_applicable_hold


def test_compare_bounds_single_edge(spec_c4):
    realised = realise(12, PartiteVector([F(1, 2), F(1, 2)]))
    h = realised.graph.flip(0, 6)     # delete one cross edge
    c = flip_gradient(spec_c4, realised.vector, 1, 2)
    rep = compare_bounds(spec_c4, h, realised, c)
    assert rep.bounds.wrong_pairs == 1 and rep.is_star
    assert rep.hyp_all_ge_c and rep.hyp_all_le_c
    assert rep.concl_star is True and rep.concl_general is True and rep.concl_upper is True


def test_compare_bounds_star(spec_c4):
    realised = realise(12, PartiteVector([F(1, 2), F(1, 2)]))
    h = realised.graph
    for v in (6, 7, 8):               # 3-edge star of wrong pairs at vertex 0
        h = h.flip(0, v)
    cmin = min(flip_gradient(spec_c4, realised.vector, 1, 2),
               flip_gradient(spec_c4, realised.vector, 1, 1))
    rep = compare_bounds(spec_c4, h, realised, cmin)
    assert rep.is_star and rep.bounds.max_degree == 3
    assert rep.hyp_all_ge_c
    assert rep.concl_star is True


def test_attach_alpha_poly_independent_oracle(spec_k311, spec_c4):
    """Ordered-tuple enumeration over a split-clique alphabet reproduces the
    attachment polynomial at rational alpha."""
    import itertools
    from inducibility.perturbation import _attach_code

    def direct(spec, x, b, alpha):
        # alphabet: part indices with weights x_i, clique split into a
        # u-joined share (alpha x0) and an unjoined share ((1-alpha) x0)
        letters = []
        for i in x.support:
            letters.append((i, x.entry(i), bool(b.get(i, 0))))
        if x.x0 > 0:
            letters.append((0, alpha * x.x0, True))
            letters.append((0, (1 - alpha) * x.x0, False))
        table = spec.code_table()
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
            order = sorted(range(len(types)), key=lambda i: (types[i] != 0, types[i], not adj[i]))
            types = [types[i] for i in order]
            adj = [adj[i] for i in order]
            total += weight * table[_attach_code(types, adj)]
        return total

    for spec, x in ((spec_k311, A311), (spec_c4, HALF)):
        for bits in ((0,), (1,)) if len(x.parts) == 1 else ((0, 0), (1, 0), (1, 1)):
            b = {i + 1: v for i, v in enumerate(bits)}
            for alpha in (F(0), F(1, 3), F(1)):
                if x.x0 == 0 and alpha != 1:
                    continue
                got = attach_value(spec, x, AttachmentPattern(b, alpha))
                assert got.poly(alpha) == direct(spec, x, b, alpha), (b, alpha)
