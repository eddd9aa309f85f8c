import itertools
from fractions import Fraction as F
from math import comb

import pytest

from inducibility.objectives import ObjectiveSpec, lambda_graph
from inducibility.partite import PartiteVector, lambda_of_vector
from inducibility.perturbation import AttachmentPattern, clone_values, flip_gradient
from inducibility.polynomials import UPoly
from inducibility import perturbation
from inducibility.strictness import (TERM_BUDGET, _clone_edit_mass, _margin_for_pattern,
                                     attach_terms, check_str1, check_str2, flip_terms,
                                     strictness_certificate)

from helpers import (counterexample_candidates, counterexample_spec, finite_attach_lambda_vertex,
                     finite_flip_delta, finite_strictness_check, flip, pattern_e, realise,
                     realised_graph)

A8 = PartiteVector.uniform(8)
A311 = PartiteVector([F(3, 5)])
HALF = PartiteVector([F(1, 2), F(1, 2)])


def test_check_str1_k2111(spec_k2111):
    val, pairs = check_str1(spec_k2111, A8)
    assert val == F(84, 512)
    assert pairs[(1, 2)] == F(150, 512)
    assert pairs[(1, 1)] == F(84, 512)


def test_check_str1_c4(spec_c4):
    val, _ = check_str1(spec_c4, HALF)
    assert val > 0


def test_compute_w_examples():
    x = HALF
    assert _clone_edit_mass(x.draw_weights(), pattern_e(1, x).b)[1] == 0
    w = _clone_edit_mass(x.draw_weights(), {1: 1, 2: 1})
    assert w[1] == F(1, 2) and w[2] == F(1, 2)
    # clique-mass case: w_0 collects the unjoined parts
    w = _clone_edit_mass(A311.draw_weights(), {1: 0})
    assert w[0] == F(3, 5) and w[1] == 0


def test_w_limit_consistency(spec_k311):
    """W_i / n approaches w_i + (1-alpha) x0 on realisations."""
    a = A311
    p = AttachmentPattern({1: 1}, F(1, 2))
    w = _clone_edit_mass(a.draw_weights(), p.b)
    for n in (40, 80):
        sizes = realise(n, a)
        v0 = sizes[0]
        joined = int(F(1, 2) * v0)
        for i in (0, 1):
            if i == 0:
                w_fin = (1 - p.b.get(1, 0)) * sizes[1] + (v0 - joined)
            else:
                w_fin = p.b.get(1, 0) * sizes[1] + (v0 - joined)
            lim = w[i] + (1 - p.alpha) * a.x0
            assert abs(F(w_fin, n) - lim) <= F(3, n)


def test_check_str2_k311(spec_k311):
    c2, margins = check_str2(spec_k311, A311)
    assert c2 == F(108, 125)
    assert all(m.feasible for m in margins)


def test_check_str2_k22(spec_c4):
    c2, _ = check_str2(spec_c4, HALF)
    assert c2 is not None and c2 > 0


def test_check_str2_certified_margins_sound(spec_k311, spec_c4):
    """phi_c stays nonnegative on [0,1] for the certified constant."""
    for spec, x in ((spec_k311, A311), (spec_c4, HALF)):
        c2, margins = check_str2(spec, x)
        for m in margins:
            grad = UPoly([F(c) for c in m.gradient_poly])
            if x.x0 == 0:
                assert grad(F(1)) >= (0 if m.c_bound is None else m.c_bound * m.min_w)
            else:
                b = UPoly([x.x0 + m.min_w, -x.x0])
                cb = m.c_bound if m.c_bound is not None else c2
                phi = grad - cb * b
                assert phi.nonneg_on(0, 1)
                assert phi(F(0)) >= 0 and phi(F(1)) >= 0


def test_str2_monotone_in_c(spec_k311):
    """Re-verification with any smaller rational constant still passes."""
    c2, margins = check_str2(spec_k311, A311)
    smaller = c2 * F(7, 9)
    for m in margins:
        grad = UPoly([F(c) for c in m.gradient_poly])
        b = UPoly([A311.x0 + m.min_w, -A311.x0])
        assert (grad - smaller * b).nonneg_on(0, 1)


def test_strictness_certificate_positive_cases(spec_c4, spec_k2111, spec_k311):
    for spec, x in ((spec_c4, HALF), (spec_k2111, A8), (spec_k311, A311)):
        rep = strictness_certificate(spec, [x])
        assert rep.passed and rep.c > 0


def test_strictness_certificate_krt_cases(spec_k33, spec_k222):
    for spec, r in ((spec_k33, 2), (spec_k222, 3)):
        rep = strictness_certificate(spec, [PartiteVector.uniform(r)])
        assert rep.passed and rep.c > 0


def test_counterexample_fails_with_zero():
    spec = counterexample_spec()
    rep = strictness_certificate(spec, counterexample_candidates())
    assert not rep.passed
    assert rep.c == 0


def test_counterexample_clique_candidate_zero_margin():
    spec = counterexample_spec()
    zero = PartiteVector()
    c1, pairs = check_str1(spec, zero)
    assert c1 == 0 and pairs[(0, 0)] == 0
    c2, _ = check_str2(spec, zero)
    assert c2 == 0


def test_clone_gradient_vanishes_at_maximisers(spec_k2111, spec_k311):
    from inducibility.perturbation import attach_value
    for spec, x in ((spec_k2111, A8), (spec_k311, A311)):
        lam = lambda_of_vector(spec, x)
        for i in x.supp_star:
            assert attach_value(spec, x, pattern_e(i, x)).value == lam


def test_report_json_roundtrip(spec_c4):
    import json
    rep = strictness_certificate(spec_c4, [HALF])
    obj = json.loads(rep.to_json())
    assert obj["passed"] is True
    assert F(obj["c"]) == rep.c


def test_finite_strictness_k22(spec_c4):
    rep = finite_strictness_check(spec_c4, HALF, 16)
    assert rep.c1 > 0 and rep.c2 is not None and rep.c2 > 0
    # clone attachments need no edits; their deficit is O(1/n), not exactly 0
    assert all(0 <= d <= F(1, 4) for d in rep.clone_deficits)
    small = finite_strictness_check(spec_c4, HALF, 32)
    assert all(d <= F(1, 8) for d in small.clone_deficits)


@pytest.mark.parametrize("a, parts, n, want", [
    ([2, 2], [F(1, 2)] * 2, 16, (F(256, 65), F(56, 65), [F(2, 65)])),
    ([3, 1, 1], [F(3, 5), F(1, 20)], 10, (F(500, 63), F(25, 21), [F(1, 21), F(2, 21)]))])
def test_finite_strictness_pinned(a, parts, n, want):
    """c1, c2 and the sorted clone deficits, pinned; part 2 of (3/5, 1/20) is
    realised empty at n = 10."""
    rep = finite_strictness_check(ObjectiveSpec.partite_density(a), PartiteVector(parts), n)
    assert (rep.c1, rep.c2, sorted(rep.clone_deficits)) == want


def test_finite_strictness_converges(spec_c4):
    """c(n) approaches its limit within a fitted C/n over n = 16, ..., 256."""
    k = spec_c4.k
    c1_lim, _ = check_str1(spec_c4, HALF)
    c2_lim, _ = check_str2(spec_c4, HALF)
    lim = min(k * (k - 1) * c1_lim, c2_lim)
    errs = {}
    for n in (16, 32, 64, 128, 256):
        rep = finite_strictness_check(spec_c4, HALF, n)
        assert rep.c > 0
        errs[n] = abs(rep.c - lim)
    c_fit = 16 * errs[16]
    for n in (32, 64, 128, 256):
        assert errs[n] <= 2 * c_fit / n + F(1, 10**9)


def test_finite_strictness_with_empty_realised_part():
    """x_2 n < 2 leaves part 2 empty in the realisation at n = 10 and 20."""
    spec = ObjectiveSpec.partite_density([3, 1, 1])
    x = PartiteVector([F(3, 5), F(1, 20)])
    for n in (10, 20, 40):
        rep = finite_strictness_check(spec, x, n)
        assert rep.n == n and rep.c2 is not None
    # c1 is the least n^2 (lambda(G) - lambda(G + uv)) over all pairs uv
    g = realised_graph(realise(10, x))
    lam = lambda_graph(spec, g)
    want = min(100 * (lam - lambda_graph(spec, flip(g, u, v)))
               for u in range(10) for v in range(u + 1, 10))
    assert finite_strictness_check(spec, x, 10).c1 == want


@pytest.mark.parametrize("spec", [ObjectiveSpec.partite_density([2, 1, 1]),
                                  ObjectiveSpec.combination([(1, (2, 2)), (-1, (1, 1, 1, 1))])],
                         ids=["KP 2,1,1", "signed SUM"])
def test_attach_terms_counts_the_attachment_walk(monkeypatch, spec):
    """attach_terms and flip_terms are the numbers of draw-sum integrand calls
    of check_str2 and check_str1, with and without clique mass, with tied
    parts, parts equal to the clique mass and the clique alone."""
    calls = []
    draw = perturbation.draw_sum

    def counted(k, weights, term, group=None):
        return draw(k, weights, lambda counts: calls.append(counts) or term(counts), group)

    monkeypatch.setattr(perturbation, "draw_sum", counted)
    for x in (PartiteVector([F(1, 4)] * 4), PartiteVector([F(1, 5), F(1, 5), F(1, 10)]),
              PartiteVector([F(1, 3), F(1, 3), F(1, 6), F(1, 6)]), PartiteVector([F(1, 4)] * 3),
              PartiteVector([F(1, 2), F(1, 3)]), PartiteVector()):
        calls.clear()
        check_str2(spec, x)
        assert len(calls) == attach_terms(spec, x), x
        calls.clear()
        check_str1(spec, x)
        assert len(calls) == flip_terms(spec, x), x


def test_attach_budget_admits_the_certificates_and_eight_parts():
    """The budget refuses 10 distinct parts of KP 2,1,1,1 with clique mass,
    and admits 8 (1/40 ... 8/40) and the certificates' candidates."""
    kp2111 = ObjectiveSpec.partite_density([2, 1, 1, 1])
    assert attach_terms(kp2111, PartiteVector([F(i, 40) for i in range(8, 0, -1)])) == 183_040
    assert attach_terms(kp2111, PartiteVector([F(i, 60) for i in range(10, 0, -1)])) > \
        TERM_BUDGET
    # the k2111 certificate's candidate, the most parts of any certificate
    assert attach_terms(kp2111, A8) == 9 * comb(8 + 3, 4) < TERM_BUDGET // 300


def test_flip_budget_admits_ten_parts_of_kp33():
    """KP 3,3 on m distinct parts m, ..., 1 over their sum walks 39,325 flip
    terms at m = 10, 249,900 at 14 and 1,859,550, over the budget, at 20."""
    kp33 = ObjectiveSpec.partite_density([3, 3])
    for m, terms in ((10, 39_325), (14, 249_900), (20, 1_859_550)):
        x = PartiteVector([F(i, m * (m + 1) // 2) for i in range(m, 0, -1)])
        assert flip_terms(kp33, x) == terms and (terms > TERM_BUDGET) == (m == 20)
    assert flip_terms(ObjectiveSpec.partite_density([2, 1, 1, 1]), A8) < TERM_BUDGET // 300


@pytest.mark.parametrize("a, b, min_w, gradient, c_bound, feasible", [
    ((2, 1), {1: 1, 2: 0}, F(0), ("-1/3",), None, False),
    ((2, 1), {1: 0, 2: 1}, F(0), (), None, True),
    ((2, 1), {1: 0, 2: 0}, F(1, 3), ("5/9",), F(5, 3), True),
    ((2, 1, 1), {1: 1, 2: 1}, F(1, 3), ("-2/3",), F(0), False),
], ids=["min_w 0, gradient < 0", "min_w 0, gradient 0", "min_w > 0", "min_w > 0, gradient < 0"])
def test_pattern_margin_without_clique_mass(a, b, min_w, gradient, c_bound, feasible):
    """At x0 = 0 the bound B = min_w is constant: with min_w = 0 it bounds
    nothing (c_bound None, feasible iff the gradient is >= 0), and otherwise
    c_bound is gradient / min_w, or 0 and infeasible for a negative gradient."""
    spec, x = ObjectiveSpec.partite_density(a), PartiteVector([F(2, 3), F(1, 3)])
    m = _margin_for_pattern(spec, x, b, clone_values(spec, x)[1])
    assert (m.min_w, m.gradient_poly, m.c_bound, m.feasible) == (min_w, gradient, c_bound, feasible)


# -- orbit walks against a reference that evaluates every pair and pattern ---

ORBIT_SPECS = [ObjectiveSpec.partite_density([2, 1, 1]),
               ObjectiveSpec.combination([(1, (2, 2)), (-1, (1, 1, 1, 1)), (2, (3, 1))])]
ORBIT_VECTORS = [PartiteVector([F(1, 4)] * 4),                      # no clique mass
                 PartiteVector([F(1, 3), F(1, 3), F(1, 6), F(1, 6)]),
                 PartiteVector([F(1, 5), F(1, 5)]),                 # x0 = 3/5
                 PartiteVector([F(1, 4)] * 3),                      # parts equal x0 = 1/4
                 PartiteVector([F(3, 10), F(3, 10), F(1, 5)])]      # part 3 equals x0 = 1/5


def _every_pair(spec, x):
    pairs = {(i1, i2): flip_gradient(spec, x, i1, i2)
             for i1 in x.supp_star for i2 in x.supp_star if i1 <= i2}
    return min(pairs.values()), pairs


def _every_pattern(spec, x):
    ref = clone_values(spec, x)[1 if x.parts else 0]
    margins = {}
    for bits in itertools.product((0, 1), repeat=len(x.parts)):
        m = _margin_for_pattern(spec, x, dict(enumerate(bits, start=1)), ref)
        margins[m.b_support] = m
    if any(not m.feasible for m in margins.values()):
        return F(0), margins
    finite = [m.c_bound for m in margins.values() if m.c_bound is not None]
    return (min(finite) if finite else None), margins


def _every_finite_pattern(spec, x, n):
    """c1, c2 and the clone deficits of the finite check with every pair,
    every pattern b and every clique cut j."""
    sizes = realise(n, x)
    k = spec.k
    lam = lambda_graph(spec, realised_graph(sizes))
    scale = F(n * n * comb(n - 2, k - 2), comb(n, k))
    c1 = min(finite_flip_delta(spec, sizes, i1, i2) * scale
             for i1 in sizes for i2 in sizes if i1 < i2 or (i1 == i2 and sizes[i1] > 1))
    parts = sorted(i for i in sizes if i)
    v0 = sizes.get(0, 0)
    vals, deficits = [], set()
    for bits in itertools.product((0, 1), repeat=len(parts)):
        b = dict(zip(parts, bits))
        for j in range(v0 + 1):
            # edits to make the attached vertex a clone of part t, or of the clique
            edits = min(v0 - j + sum(sizes[i] * (b[i] if i == t else 1 - b[i]) for i in parts)
                        for t in parts + ([0] if v0 else []))
            deficit = lam - finite_attach_lambda_vertex(spec, sizes, b, j)
            if edits == 0:
                deficits.add(deficit)
            else:
                vals.append(n * deficit / edits)
    return c1, min(vals, default=None), deficits


@pytest.mark.parametrize("spec", ORBIT_SPECS, ids=["KP 2,1,1", "signed SUM"])
def test_orbit_walks_match_every_pair_and_pattern(spec):
    for x in ORBIT_VECTORS:
        assert check_str1(spec, x) == _every_pair(spec, x), x
        c2, margins = check_str2(spec, x)
        want_c2, every = _every_pattern(spec, x)
        assert c2 == want_c2, x
        assert all(every[m.b_support] == m for m in margins), x
        # one margin per orbit of equal-mass swaps, and no value left out
        orbits = {tuple(sorted(zip(x.parts, bits)))
                  for bits in itertools.product((0, 1), repeat=len(x.parts))}
        assert len(margins) == len(orbits), x
        key = lambda m: (m.min_w, m.gradient_poly, m.c_bound, m.feasible)  # noqa: E731
        assert {key(m) for m in margins} == {key(m) for m in every.values()}, x
        for n in (9, 12):
            rep = finite_strictness_check(spec, x, n)
            c1, c2, deficits = _every_finite_pattern(spec, x, n)
            assert (rep.c1, rep.c2) == (c1, c2), (x, n)
            assert set(rep.clone_deficits) == deficits, (x, n)
