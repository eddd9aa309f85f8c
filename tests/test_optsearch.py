import hashlib
import json
import random
from fractions import Fraction as F
from math import comb

import pytest

from helpers import ReferenceFloatPlan, count_calls, reference_project_simplex, seeded_table
from inducibility import optsearch
from inducibility.cli import parse_objective
from inducibility.graphs import CompletePartiteShape, Graph, iso_classes
from inducibility.objectives import ObjectiveSpec, big_lambda, partitions_of
from inducibility.optsearch import continuous_opt, finite_opt, kst_maximiser
from inducibility.partite import (PartiteVector, count_partite, lambda_of_shape,
                                  lambda_of_vector, partition_totals)
from inducibility.polynomials import UPoly


def test_finite_opt_examples(spec_c4, spec_k12):
    val, shapes = finite_opt(spec_c4, 8)
    assert [s.part_sizes for s in shapes] == [[4, 4]]
    empty3 = ObjectiveSpec.partite_density([3])
    val, shapes = finite_opt(empty3, 10)
    assert val == 1 and shapes[0].part_sizes == [10]


def test_finite_opt_matches_brute(spec_k12):
    from inducibility.objectives import brute_lambda_max
    for n in (5, 6, 7):
        assert finite_opt(spec_k12, n)[0] == brute_lambda_max(spec_k12, n)[0]


def _finite_reference(spec, n, value=None):
    """finite_opt by brute force: lambda of every complete partite graph, by
    default from Lambda over all its k-subsets, else value(spec, sizes)."""
    if value is None:
        def value(spec, sizes):
            return big_lambda(spec, Graph.complete_partite(sizes)) / comb(n, spec.k)
    best, arg = None, []
    for sizes in partitions_of(n):
        val = value(spec, sizes)
        if best is None or val > best:
            best, arg = val, [list(sizes)]
        elif val == best:
            arg.append(list(sizes))
    return best, arg


def test_finite_opt_matches_big_lambda():
    """Value and the full argmax list, in order, against subset enumeration."""
    rng = random.Random(40)
    table = {g: F(rng.randint(-6, 6), rng.randint(1, 5)) for g in iso_classes(4)}
    specs = [ObjectiveSpec.partite_density([2, 2]),
             ObjectiveSpec.partite_density([3, 1]),
             ObjectiveSpec.combination([(1, (2, 2)), (F(-3, 2), (2, 1, 1)), (F(1, 3), (4,))]),
             ObjectiveSpec.from_table(4, table)]
    for spec in specs:
        for n in range(spec.k, 11):
            val, shapes = finite_opt(spec, n)
            assert (val, [s.part_sizes for s in shapes]) == _finite_reference(spec, n), (spec, n)


@pytest.mark.parametrize("objective, value, sizes", [
    ("KP 3,1", F(9175, 18278), [[25, 15]]),
    ("KP 3,2", F(950, 1443), [[20, 20]]),
    ("KP 4,1", F(12080, 27417), [[32, 8]]),
    ("SUM 1*KP 2,2 + 1*KP 4", F(1), [[40]]),
])
def test_finite_opt_n40_pinned(objective, value, sizes):
    """The n = 40 scans of the benchmark's finite objectives, as first computed
    by the per-call recursive count."""
    val, shapes = finite_opt(parse_objective(objective), 40)
    assert val == value
    assert [s.part_sizes for s in shapes] == sizes


SCAN_SPECS = {
    "signed mixed sizes": lambda: parse_objective("SUM 1*KP 2,1 + -3/2*KP 2,2 + 1/2*KP 3,1,1"),
    "signed mixed sizes 2": lambda: parse_objective(
        "SUM -1*KP 3 + 2*KP 2,1,1 + -1/3*KP 1,1,1,1 + 1/5*KP 4,1"),
    "table k=3": lambda: seeded_table(3),
    "table k=4": lambda: seeded_table(4),
    "table k=5": lambda: seeded_table(5),
    "negative only": lambda: parse_objective("SUM -1*KP 3 + -1*KP 1,1,1"),
    "negative only 2": lambda: parse_objective("SUM -2*KP 2,1,1 + -1*KP 4 + -1*KP 1,1,1,1"),
    "all tie": lambda: ObjectiveSpec.from_table(4, {g: F(1, 2) for g in iso_classes(4)}),
    "KP 1,1,1,1,1": lambda: parse_objective("KP 1,1,1,1,1"),
    "KP 2,1,1,1": lambda: parse_objective("KP 2,1,1,1"),
}


@pytest.mark.parametrize("name", SCAN_SPECS)
def test_finite_opt_equals_exhaustive_scan(name):
    """The pruned scan gives the exhaustive scan's value and its full argmax
    list in order, for every n up to 15 and three seeded n up to 30; the
    reference counts each partition on its own (lambda_of_shape)."""
    spec = SCAN_SPECS[name]()
    rng = random.Random(name)
    for n in [*range(spec.k, 16), *rng.sample(range(16, 31), 3)]:
        val, shapes = finite_opt(spec, n)
        want = _finite_reference(spec, n, lambda spec, sizes: lambda_of_shape(
            spec, CompletePartiteShape(sizes=sizes)))
        assert (val, [s.part_sizes for s in shapes]) == want, n


@pytest.mark.parametrize("objective, visited", [
    ("KP 3,1", 35), ("KP 3,2", 40), ("KP 4,1", 18), ("SUM 1*KP 2,2 + 1*KP 4", 2)])
def test_finite_scan_prunes_at_n40(objective, visited):
    """At n = 40 the benchmark's finite objectives visit a few dozen of the
    37,338 partitions."""
    weights = parse_objective(objective).partition_weights()
    assert sum(1 for _ in partition_totals(weights, 40)) == visited


def test_finite_scan_keeps_every_tie():
    """A constant gamma ties every partition, and none is cut."""
    spec = SCAN_SPECS["all tie"]()
    val, shapes = finite_opt(spec, 40)
    assert val == F(1, 2) and len(shapes) == len(partitions_of(40)) == 37338


def test_merge_move_never_decreases_kst(spec_c4, spec_k33):
    """Merging the two smallest parts keeps p(K_{s,t}, .) for 100 shapes."""
    rng = random.Random(51)
    for spec in (spec_c4, spec_k33):
        a = [s for s, _ in spec.partition_values().items() if _ != 0][0]
        for _ in range(50):
            m = rng.randint(3, 6)
            sizes = sorted((rng.randint(1, 6) for _ in range(m)), reverse=True)
            if sum(sizes) < spec.k:
                continue
            shape = CompletePartiteShape(sizes)
            merged = CompletePartiteShape(sizes[:-2] + [sizes[-2] + sizes[-1]])
            n = shape.n
            before = count_partite(a, shape)
            after = count_partite(a, merged)
            assert after >= before, (sizes, a)


def test_continuous_opt_c4(spec_c4):
    cs = continuous_opt(spec_c4, 6, starts=80, seed=0)
    best = cs.best_snapped().vector
    assert best == PartiteVector([F(1, 2), F(1, 2)])
    assert cs.candidates[0].lam_exact == F(3, 8)
    assert abs(cs.candidates[0].lam_float - 3 / 8) < 1e-9
    assert cs.candidates[0].residual_float <= 1e-8
    assert cs.candidates[0].residual_exact == 0


def test_continuous_opt_extra_seeds(spec_c4):
    seedvec = PartiteVector([F(1, 2), F(1, 2)])
    cs = continuous_opt(spec_c4, 4, starts=1, seed=0, extra_seeds=[seedvec])
    assert cs.best_snapped().vector == seedvec


def test_continuous_opt_consistency_with_finite(spec_c4):
    cs = continuous_opt(spec_c4, 6, starts=40, seed=1)
    val40, _ = finite_opt(spec_c4, 40)
    k = spec_c4.k
    assert cs.candidates[0].lam_exact >= val40 - F(2 * k * k, 40)


def test_continuous_opt_deterministic(spec_c4):
    a = continuous_opt(spec_c4, 5, starts=30, seed=7).to_jsonable()
    b = continuous_opt(spec_c4, 5, starts=30, seed=7).to_jsonable()
    assert a == b


def test_kst_balanced_cases():
    for s, t in ((2, 2), (2, 3), (1, 2), (1, 3), (3, 3), (3, 4)):
        res = kst_maximiser(s, t)
        assert res.at_half and res.alpha.as_fraction() == F(1, 2), (s, t)


def test_kst_balanced_rule_boundary():
    # s >= C(t-s, 2) exactly characterises the balanced cases for s+t <= 10
    for s in range(1, 6):
        for t in range(s, 11 - s):
            if s * t < 2:
                continue
            res = kst_maximiser(s, t)
            assert res.at_half == (s >= comb(t - s, 2))
            if res.at_half:
                assert res.alpha.as_fraction() == F(1, 2)


def test_kst_values():
    assert kst_maximiser(2, 2).i_value == (F(3, 8), F(3, 8))
    assert kst_maximiser(2, 3).i_value == (F(10, 16), F(10, 16))


def test_kst_14_algebraic():
    res = kst_maximiser(1, 4)
    lo, hi = res.alpha.interval()
    assert hi - lo <= F(1, 2**40)
    # h(x) = (x-1)(x+1)(x^2-4x+1), so x = 2 - sqrt(3) is a root
    quotient, rem = res.root_poly.divmod(UPoly([1, -4, 1]))
    assert rem.is_zero()
    assert quotient == UPoly([-1, 0, 1])
    # alpha = (3 + sqrt 3)/6 satisfies 6a^2 - 6a + 1 = 0
    assert UPoly([1, -6, 6]).count_roots(lo, hi) == 1
    # strict bound 1 - alpha > 1/(t+1)
    assert hi < F(4, 5)


@pytest.mark.parametrize("s, t, digest", [
    (1, 4, "db7d0a7a6a0f3be2"),
    (1, 9, "d48fa1a14558490e"),
    (2, 10, "46f022a8dc9723e2"),
])
def test_kst_irrational_value_enclosures_pinned(s, t, digest):
    """The exact enclosure of the value at an irrational maximiser is pinned
    by the sha256 of its two Fractions; it is narrow and, for (1, 4), holds
    the exact value 5/12."""
    lo, hi = kst_maximiser(s, t).i_value
    assert hashlib.sha256(f"{lo} {hi}".encode()).hexdigest()[:16] == digest
    assert 0 < hi - lo < F(1, 10**11)
    if (s, t) == (1, 4):
        assert lo < F(5, 12) < hi


def test_kst_25_rational_root():
    res = kst_maximiser(2, 5)
    assert not res.at_half
    assert res.alpha.is_rational and res.alpha.as_fraction() == F(2, 3)


def test_kst_rejects_trivial():
    for s, t in ((1, 1), (-1, -3), (-2, -2)):
        with pytest.raises(ValueError):
            kst_maximiser(s, t)


def test_continuous_opt_k2111(spec_k2111):
    cs = continuous_opt(spec_k2111, 10, starts=60, seed=0)
    assert cs.best_snapped().vector == PartiteVector.uniform(8)
    assert cs.candidates[0].lam_exact == F(525, 1024)


PLAN_OBJECTIVES = ["KP 1,1,1,1", "KP 2,2,1", "SUM 1*KP 2,2 + 1/2*KP 1,1,1,1",
                   "SUM 1*KP 3,1 + -1/2*KP 4", "KP 2,1,1,1", "KP 3,3"]


def _plan_specs():
    rng = random.Random(19)
    table = {g: F(rng.randint(-6, 6), rng.randint(1, 5)) for g in iso_classes(4)}
    return [parse_objective(o) for o in PLAN_OBJECTIVES] + [ObjectiveSpec.from_table(4, table)]


def _plan_points(rng, m=10):
    """Points of the simplex with zero parts, tied parts, x0 = 0 and x0 = 1."""
    yield 1.0, [0.0] * m
    for _ in range(40):
        x0 = rng.choice([0.0, rng.random()])
        r = rng.randint(1, m)
        raw = [rng.expovariate(1.0) for _ in range(r)]
        if rng.random() < 0.5:
            raw = [rng.choice(raw[:2]) for _ in range(r)]
        tot = sum(raw)
        parts = [(1 - x0) * w / tot for w in raw] + [0.0] * (m - r)
        rng.shuffle(parts)
        yield x0, parts


def _hex(value, gradient):
    g0, gi = gradient
    return value.hex(), g0.hex(), [g.hex() for g in gi]


def test_float_plan_bitwise_equal_to_reference_loops():
    """value and every partial are the reference loops' floats, bit for bit,
    whichever of value and gradient reads the point's table first."""
    rng = random.Random(7)
    for spec in _plan_specs():
        plan, ref = optsearch._FloatPlan(spec), ReferenceFloatPlan(spec)
        assert plan.k == ref.k
        for i, (x, parts) in enumerate(_plan_points(rng)):
            for x0 in (x, x / 2):   # the same parts with another x0 come next
                want = _hex(ref.value(x0, parts), ref.gradient(x0, parts))
                if i % 2:
                    gradient = plan.gradient(x0, parts)
                    value = plan.value(x0, list(parts))
                else:
                    value = plan.value(x0, parts)
                    gradient = plan.gradient(x0, list(parts))
                assert _hex(value, gradient) == want, (spec.label, x0, parts)


@pytest.mark.parametrize("objective, max_support, seed", [
    ("KP 2,2,1", 6, 5), ("SUM 1*KP 3,1 + -1/2*KP 4", 5, 3), ("KP 2,1,1,1", 6, 0),
])
def test_continuous_opt_unchanged_under_reference_plan(monkeypatch, objective, max_support, seed):
    spec = parse_objective(objective)
    got = continuous_opt(spec, max_support, starts=10, seed=seed).to_jsonable()
    monkeypatch.setattr(optsearch, "_FloatPlan", ReferenceFloatPlan)
    monkeypatch.setattr(optsearch, "_project_simplex", reference_project_simplex)
    assert continuous_opt(spec, max_support, starts=10, seed=seed).to_jsonable() == got


def test_project_simplex_bitwise_equal_to_reference():
    rng = random.Random(11)
    for _ in range(2000):
        v = [rng.choice([0.0, 0.25, rng.uniform(-0.5, 1.0)]) for _ in range(rng.randint(1, 11))]
        want = [x.hex() for x in reference_project_simplex(v)]
        assert [x.hex() for x in optsearch._project_simplex(v)] == want, v


def test_continuous_opt_report_pinned_across_interpreters():
    """Every float sum of the search is a left fold from 0.0, so the report
    does not depend on sum()'s compensated rounding from Python 3.12 on.
    With sum() this case gave 22 clusters under 3.11 and 23 under 3.12."""
    cs = continuous_opt(parse_objective("SUM 1*KP 2,2 + 1/2*KP 1,1,1,1"), 10,
                        starts=200, seed=3)
    dump = json.dumps(cs.to_jsonable(), sort_keys=True).encode()
    assert cs.provenance["clusters"] == 22
    assert hashlib.sha256(dump).hexdigest() == \
        "62152b82075e43d9c78d352a6dbec803eb2fe34fcd4191585b6dd260cc0a8aed"


def test_continuous_opt_computes_lambda_once_per_snap(monkeypatch):
    """Each snap attempt that builds a vector computes its exact lambda once,
    and the candidate keeps that value; nothing else calls lambda_of_vector."""
    attempts = []
    calls = count_calls(monkeypatch, "lambda_of_vector")
    try_snap = optsearch._try_snap

    def counted_snap(*args):
        before = len(calls)
        snap = try_snap(*args)
        attempts.append((snap, len(calls) - before))
        return snap

    monkeypatch.setattr(optsearch, "_try_snap", counted_snap)
    cs = continuous_opt(parse_objective("KP 2,2,1"), 1, starts=40, seed=1)
    assert len(calls) == sum(n for _, n in attempts)
    assert all(n == (snap is not None) for snap, n in attempts)
    assert any(snap is None for snap, _ in attempts)
    snapped = [c for c in cs.candidates if c.snapped]
    assert snapped and all(c.lam_exact == lambda_of_vector(parse_objective("KP 2,2,1"), c.vector)
                           for c in snapped)


def test_memoised_ascent_runs_once_per_point_and_returns_fresh_lists(spec_c4):
    calls = []

    class CountingPlan(ReferenceFloatPlan):
        def gradient(self, x0, parts):
            calls.append(1)
            return super().gradient(x0, parts)

    ascend = optsearch._memoised_ascent(CountingPlan(spec_c4))
    start = [0.0, 0.7, 0.2, 0.1, 0.0]
    first, val = ascend(list(start))
    n = len(calls)
    assert n > 0
    again, val2 = ascend(list(start))
    assert len(calls) == n and (again, val2) == (first, val)
    assert again is not first
    again.append(5.0)
    assert ascend(start)[0] == first
