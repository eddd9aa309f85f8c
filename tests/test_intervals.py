import itertools
import random
from fractions import Fraction as F

import pytest

from inducibility.intervals import BernsteinForm, bb_max_bound
from inducibility.polynomials import MPoly


def test_bernstein_enclosure_contains_samples():
    rng = random.Random(3)
    y, z = MPoly.var("y"), MPoly.var("z")
    p = 3 * y**2 * z - 2 * y * z**2 + z - F(1, 3)
    form = BernsteinForm.expand(p, {"y": (F(-1), F(1)), "z": (F(0), F(2))})
    lo, hi = F(min(form.coeffs), form.den), F(max(form.coeffs), form.den)
    for _ in range(200):
        pt = {"y": F(rng.randint(-100, 100), 100), "z": F(rng.randint(0, 200), 100)}
        v = p.evaluate(pt)
        assert lo <= v <= hi


def test_bernstein_samples_are_the_values_at_midpoint_and_corners():
    """BernsteinForm.sample reads a box's midpoint (k = 0) and its corners
    (k >= 1, in itertools.product order) from the coefficients alone; each
    equals MPoly.evaluate there, on seeded boxes, after subdivision too."""
    rng = random.Random(7)
    y, z, u = MPoly.var("y"), MPoly.var("z"), MPoly.var("u")
    polys = [3 * y**3 * z - 2 * y * z**2 + z - F(1, 3),
             y**2 * u - F(5, 7) * z * u**3 + y * z * u + 2,
             F(2, 9) * z**4 - y]                          # degree 0 in u
    for _ in range(30):
        box = {}
        for v in ("y", "z", "u"):
            lo = F(rng.randint(-20, 20), rng.randint(1, 9))
            box[v] = (lo, lo + F(rng.randint(1, 30), rng.randint(1, 9)))
        p = rng.choice(polys)
        form = BernsteinForm.expand(p, box)
        axis = rng.randrange(3)
        lo, hi = box["yzu"[axis]]
        half = rng.randrange(2)
        form = form.halves(axis)[half]
        box["yzu"[axis]] = (lo, (lo + hi) / 2) if half == 0 else ((lo + hi) / 2, hi)
        points = [tuple((a + b) / 2 for a, b in box.values()), *itertools.product(*box.values())]
        for k, point in enumerate(points):
            assert form.sample(k) == p.evaluate(dict(zip(box, point))), (p, box, k)


def test_bernstein_subdivision_matches_expansion():
    """De Casteljau halves equal the re-expansion on each half, and the
    corner coefficients are the polynomial's corner values."""
    y, z = MPoly.var("y"), MPoly.var("z")
    p = 3 * y**3 * z - 2 * y * z**2 + z - F(1, 3)
    box = {"y": (F(-1), F(1, 2)), "z": (F(0), F(2))}
    form = BernsteinForm.expand(p, box)
    corners = [p.evaluate({"y": a, "z": b}) for a, b in itertools.product(*box.values())]
    # dims (4, 3): the corners sit at row-major indices 0, 2, 9 and 11
    assert [F(form.coeffs[i], form.den) for i in (0, 2, 9, 11)] == corners
    for axis, v in enumerate(box):
        lo, hi = box[v]
        mid = (lo + hi) / 2
        for half, part in zip(form.halves(axis), ((lo, mid), (mid, hi))):
            direct = BernsteinForm.expand(p, {**box, v: part})
            assert [F(c, half.den) for c in half.coeffs] == \
                [F(c, direct.den) for c in direct.coeffs]


def test_bb_simple_parabola():
    y = MPoly.var("y")
    p = y - y**2
    res = bb_max_bound(p, {"y": (F(0), F(1))}, F(1, 10**6))
    assert res.conclusive
    assert F(1, 4) <= res.upper <= F(1, 4) + F(1, 10**6)


def test_bb_dominates_sample_grid():
    rng = random.Random(9)
    y, z = MPoly.var("y"), MPoly.var("z")
    for _ in range(10):
        p = sum((F(rng.randint(-4, 4)) * y**i * z**j
                 for i in range(3) for j in range(3)), MPoly.const(0))
        res = bb_max_bound(p, {"y": (F(0), F(1)), "z": (F(0), F(1))}, F(1, 1000))
        grid_max = max(p.evaluate({"y": F(i, 9), "z": F(j, 9)})
                       for i in range(10) for j in range(10))
        assert res.upper >= grid_max


def test_bb_tight_on_interior_maxima():
    """Certified bound within tol of the known max for interior paraboloids."""
    rng = random.Random(10)
    y, z = MPoly.var("y"), MPoly.var("z")
    for _ in range(10):
        a, b = F(rng.randint(1, 9), 10), F(rng.randint(1, 9), 10)
        c = F(rng.randint(-5, 5), 3)
        p = c - (y - a) ** 2 - 2 * (z - b) ** 2
        res = bb_max_bound(p, {"y": (F(0), F(1)), "z": (F(0), F(1))}, F(1, 10**6))
        assert res.conclusive
        assert c <= res.upper <= c + F(1, 10**6)


def test_bb_constraint_region():
    y, z = MPoly.var("y"), MPoly.var("z")
    # max of y + z on the triangle z <= y, y + z <= 1 is 1 (not 2)
    p = y + z
    res = bb_max_bound(p, {"y": (F(0), F(1)), "z": (F(0), F(1))}, F(1, 1000),
                       constraints=[z - y, y + z - 1])
    assert res.conclusive
    assert 1 <= res.upper <= 1 + F(1, 1000)


def test_bb_empty_region():
    """A constraint > 0 on the whole box discards every box: the result says
    the region is empty, with upper = 0 and conclusive false as before. The
    second constraint is negative at some root Bernstein coefficient, so
    only subdivision proves it positive."""
    y, z = MPoly.var("y"), MPoly.var("z")
    box = {"y": (F(0), F(1)), "z": (F(0), F(1))}
    for g in (y**2 + z + F(1, 10), (y - F(1, 2)) ** 2 + F(1, 100)):
        res = bb_max_bound(y + z, box, F(1, 1000), constraints=[g])
        assert res.empty and not res.conclusive and res.upper == 0
    assert not bb_max_bound(y + z, box, F(1, 1000), constraints=[z - y]).empty


def test_bb_budget_inconclusive():
    """The maximum 2/sqrt(27) of y - y^3 is irrational, so no rational sample
    from four boxes comes within 1e-12 of it."""
    y = MPoly.var("y")
    p = y - y**3
    res = bb_max_bound(p, {"y": (F(0), F(1))}, F(1, 10**12), max_boxes=4)
    assert not res.conclusive
    assert res.upper > 0 and 27 * res.upper**2 >= 4


def test_bb_upper_dominates_feasible_samples():
    """upper >= every feasible sampled value, on random polynomials, boxes
    and constraints, whether or not the bound is conclusive."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    y, z = MPoly.var("y"), MPoly.var("z")
    small = st.integers(-4, 4)
    monomials = [(i, j) for i in range(4) for j in range(4) if i + j <= 4]

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(coeffs=st.lists(small, min_size=len(monomials), max_size=len(monomials)),
               box=st.lists(st.fractions(-2, 2, max_denominator=8), min_size=4, max_size=4),
               cons=st.lists(st.lists(small, min_size=4, max_size=4), max_size=2))
    def check(coeffs, box, cons):
        p = sum((c * y**i * z**j for c, (i, j) in zip(coeffs, monomials)), MPoly.const(0))
        (y_lo, y_hi), (z_lo, z_hi) = sorted(box[:2]), sorted(box[2:])
        # constraints a + b y + c z + d y z <= 0
        gs = [a + b * y + c * z + d * y * z for a, b, c, d in cons]
        res = bb_max_bound(p, {"y": (y_lo, y_hi), "z": (z_lo, z_hi)}, F(1, 1000),
                           constraints=gs, max_boxes=64)
        for i, j in itertools.product(range(9), repeat=2):
            pt = {"y": y_lo + (y_hi - y_lo) * F(i, 8), "z": z_lo + (z_hi - z_lo) * F(j, 8)}
            if all(g.evaluate(pt) <= 0 for g in gs):
                assert res.upper >= p.evaluate(pt)

    check()
