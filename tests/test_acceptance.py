"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import random
from fractions import Fraction as F
from math import comb

from inducibility.graphs import Graph, complete_partite_shape_of, graph_from_code
from inducibility.objectives import ObjectiveSpec, brute_lambda_max, partitions_of
from inducibility.optsearch import continuous_opt, finite_opt, kst_maximiser
from inducibility.partite import (PartiteVector, count_partite, density_formula,
                                  density_polynomial, edit_distance_vectors, lambda_of_vector)
from inducibility.perturbation import (AttachmentPattern, attach_value, flip_gradient,
                                       lagrange_residual)
from inducibility.polynomials import UPoly
from inducibility.strictness import strictness_certificate
from inducibility.symmetrise import symmetrise_full, symmetrise_vertex
from inducibility.graphs import edit_distance_exact

from helpers import (counterexample_candidates, counterexample_spec, pattern_e, realise,
                     realised_graph, realised_shape)

A8 = PartiteVector.uniform(8)
A311 = PartiteVector([F(3, 5)])
HALF = PartiteVector([F(1, 2), F(1, 2)])


def verdict(n, label, ok):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label})"


def random_vector(rng, max_support=4, max_denom=12):
    """Entries share a denominator <= 12 and sum to at most 1."""
    d = rng.randint(2, max_denom)
    m = rng.randint(1, min(max_support, d))
    budget = d if rng.random() < 0.5 else rng.randint(m, d)
    raw = []
    for _ in range(m):
        hi = budget - sum(raw) - 0
        if hi < 1:
            break
        raw.append(rng.randint(1, hi))
    parts = sorted((F(v, d) for v in raw), reverse=True)
    return PartiteVector(parts), d


def test_criterion_1_exact_constants(spec_k2111, spec_k311):
    ok = (lambda_of_vector(spec_k2111, A8) == F(525, 1024)
          and density_formula([2, 1, 1, 1], A8) == F(525, 1024)
          and lambda_of_vector(spec_k311, A311) == F(216, 625)
          and density_formula([3, 1, 1], A311) == F(216, 625))
    verdict(1, "exact constants", ok)


def test_criterion_2_closed_form_triple_agreement():
    rng = random.Random(2024)
    patterns = [a for k in (3, 4, 5) for a in partitions_of(k)]
    specs = {a: ObjectiveSpec.partite_density(a) for a in patterns}
    ok = True
    for _ in range(200):
        x, d = random_vector(rng)
        n = 240 * d
        shape = realised_shape(realise(n, x))
        for a in patterns:
            k = sum(a)
            enum = lambda_of_vector(specs[a], x)
            closed = density_formula(a, x)
            if enum != closed:
                ok = False
                break
            finite = F(count_partite(a, shape), comb(n, k))
            if abs(finite - closed) > F(8 * k * k, n):
                ok = False
                break
        if not ok:
            break
    verdict(2, "closed-form triple agreement, 200 random vectors", ok)


def test_criterion_3_gradients(spec_k2111):
    ok = (flip_gradient(spec_k2111, A8, 1, 2) == F(150, 512)
          and flip_gradient(spec_k2111, A8, 1, 1) == F(84, 512))
    best = None
    argmax = None
    for kk in range(9):
        b = {i + 1: 1 if i < kk else 0 for i in range(8)}
        got = attach_value(spec_k2111, A8, AttachmentPattern(b, F(1))).value
        want = F(24, 8**4) * comb(kk, 3) * (F(19, 2) - kk)
        ok = ok and got == want
        if best is None or got > best:
            best, argmax = got, kk
        elif got == best:
            argmax = None   # max must be unique
    ok = ok and argmax == 7 and best == F(525, 1024)
    verdict(3, "flip gradients and attachment table", ok)


def test_criterion_4_lagrange_identity(spec_c4, spec_k2111, spec_k311):
    rng = random.Random(4)
    pool = [a for k in (3, 4, 5) for a in partitions_of(k)]
    specs = {a: ObjectiveSpec.partite_density(a) for a in pool}
    ok = True
    for _ in range(100):
        a = pool[rng.randrange(len(pool))]
        spec = specs[a]
        x, _ = random_vector(rng, max_support=3)
        poly = density_polynomial(a, len(x.parts))
        point = {"x0": x.x0}
        point.update({f"x{i}": p for i, p in enumerate(x.parts, start=1)})
        for i in x.supp_star:
            lhs = F(1, spec.k) * poly.partial(f"x{i}").evaluate(point)
            rhs = attach_value(spec, x, pattern_e(i, x)).value
            if lhs != rhs:
                ok = False
    for spec, x in ((spec_c4, HALF), (spec_k2111, A8), (spec_k311, A311)):
        ok = ok and lagrange_residual(spec, x) == 0
    verdict(4, "Lagrange identity, 100 random pairs + maximisers", ok)


def test_criterion_5_opt_search(spec_c4, spec_k2111, spec_k311, spec_k33, spec_k222):
    targets = [
        (spec_c4, 6, PartiteVector([F(1, 2), F(1, 2)]), F(3, 8)),
        (spec_k2111, 10, A8, F(525, 1024)),
        (spec_k311, 6, A311, F(216, 625)),
        (spec_k33, 6, PartiteVector.uniform(2), F(5, 16)),
        (spec_k222, 6, PartiteVector.uniform(3), F(10, 81)),
    ]
    ok = True
    for spec, m, want_vec, want_val in targets:
        cs = continuous_opt(spec, m, starts=200, seed=0)
        best = cs.best_snapped().vector
        good = (best == want_vec
                and cs.candidates[0].lam_exact == want_val
                and abs(cs.candidates[0].lam_float - float(want_val)) <= 1e-9)
        if not good:
            print(f"  opt target failed for {spec.label}: {best}")
        ok = ok and good
    verdict(5, "continuous search recovers the five maximisers", ok)


def test_criterion_6_certificates(report_k2111, report_k311):
    names_2111 = {c.name for c in report_k2111.checks if c.passed}
    names_311 = {c.name for c in report_k311.checks if c.passed}
    ok = report_k2111.passed and report_k311.passed
    ok = ok and {"eliminant_divisible_l1"} <= names_2111
    ok = ok and all(f"interval_bound_l{ell}" in names_2111 for ell in range(1, 8))
    ok = ok and {"psd_R0", "psd_Q1", "psd_Q2", "psd_Q3", "epsilon_margin",
                 "product_coefficients_positive",
                 "h_negative_interval_bound"} <= names_311
    ok = ok and report_k2111.lambda_max == F(525, 1024)
    ok = ok and report_k311.lambda_max == F(216, 625)
    verdict(6, "certificate pipelines", ok)


def test_criterion_7_strictness(spec_c4, spec_k2111, spec_k311, spec_k33, spec_k222):
    ok = True
    for spec, x in ((spec_c4, HALF), (spec_k2111, A8), (spec_k311, A311),
                    (spec_k33, PartiteVector.uniform(2)),
                    (spec_k222, PartiteVector.uniform(3))):
        rep = strictness_certificate(spec, [x])
        ok = ok and rep.passed and rep.c > 0
    neg = strictness_certificate(counterexample_spec(), counterexample_candidates())
    ok = ok and (not neg.passed) and neg.c == 0
    verdict(7, "strictness certificates incl. the negative fixture", ok)


def test_criterion_8_symmetrisation(spec_c4):
    rng = random.Random(8)
    ok = True
    for _ in range(200):
        n = rng.randint(4, 10)
        g = graph_from_code(n, rng.randrange(1 << (n * (n - 1) // 2)))
        trace = symmetrise_full(spec_c4, g)
        ok = ok and trace.monotone
        ok = ok and len(trace.steps) <= n * (n - 1) // 2
        ok = ok and complete_partite_shape_of(trace.final_graph) is not None
        if not ok:
            break
    for _ in range(50):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        base = Graph.complete_partite(sizes)
        if base.n + 1 < spec_c4.k:
            continue
        g = base.add_vertex(rng.randrange(1 << base.n))
        trace = symmetrise_vertex(spec_c4, g, base.n)
        ok = ok and trace.monotone and all(s.pairs_edited == 1 for s in trace.steps)
    verdict(8, "symmetrisation traces", ok)


def test_criterion_9_oracle_equivalence(spec_k12):
    ok = True
    for n in (5, 6, 7):
        val_all, _ = brute_lambda_max(spec_k12, n)
        val_partite, _ = finite_opt(spec_k12, n)
        ok = ok and val_all == val_partite
    verdict(9, "brute force equals partite scan for p(K_{1,2},.)", ok)


def test_criterion_10_edit_metric():
    rng = random.Random(10)
    ok = True
    for _ in range(50):
        x, _ = random_vector(rng, max_support=3)
        want = sum((p * p for p in x.parts), F(0))
        ok = ok and edit_distance_vectors(x, PartiteVector()) == want
    for _ in range(100):
        xs = [random_vector(rng, max_support=3)[0] for _ in range(3)]
        d01 = edit_distance_vectors(xs[0], xs[1])
        ok = ok and d01 == edit_distance_vectors(xs[1], xs[0])
        ok = ok and (d01 == 0) == (xs[0] == xs[1])
        ok = ok and edit_distance_vectors(xs[0], xs[2]) <= d01 + edit_distance_vectors(xs[1], xs[2])
    slack = F(2 * 9, 64)
    for _ in range(15):
        x, _ = random_vector(rng, max_support=3)
        y, _ = random_vector(rng, max_support=3)
        d_fin = edit_distance_exact(realised_graph(realise(8, x)), realised_graph(realise(8, y)))
        ok = ok and abs(d_fin - edit_distance_vectors(x, y)) <= slack
    verdict(10, "edit metric", ok)


def test_criterion_11_kst_solver():
    res = kst_maximiser(1, 4)
    lo, hi = res.alpha.interval()
    ok = hi - lo <= F(1, 2**40)
    # the interval contains (3 + sqrt 3)/6, the root of 6a^2 - 6a + 1 in (1/2, 1)
    ok = ok and UPoly([1, -6, 6]).count_roots(lo, hi) == 1
    # h(x) = 0 at x = 2 - sqrt 3: the quadratic divides h exactly
    ok = ok and res.root_poly.divmod(UPoly([1, -4, 1]))[1].is_zero()
    # strict bound 1 - alpha > 1/5
    ok = ok and hi < F(4, 5)
    for s in range(1, 6):
        for t in range(s, 11 - s):
            if s * t < 2 or s < comb(t - s, 2):
                continue
            r = kst_maximiser(s, t)
            ok = ok and r.at_half and r.alpha.as_fraction() == F(1, 2)
    verdict(11, "two-part solver", ok)
