import random
from collections import Counter
from fractions import Fraction as F

import pytest

from helpers import (reference_count_roots, reference_gcd, reference_refine_root,
                     reference_sign_of, reference_sturm_chain)
from inducibility import polynomials
from inducibility.polynomials import (AlgebraicNumber, MPoly, UPoly, resultant,
                                      simplest_fraction_between)


def test_basic_arithmetic():
    p = UPoly([1, 2, 1])          # (1+x)^2
    q = UPoly([1, 1])
    assert q * q == p
    quo, rem = p.divmod(q)
    assert quo == q and rem.is_zero()
    assert p(F(2)) == 9
    assert p.derivative() == UPoly([2, 2])
    assert (p - p).is_zero()
    assert p.shift(F(1)) == UPoly([4, 4, 1])


def test_squarefree_and_gcd():
    p = UPoly([1, 1]) ** 3 * UPoly([-2, 1])
    sf = p.squarefree_part()
    assert sf == (UPoly([1, 1]) * UPoly([-2, 1])).monic()


def test_count_roots_halfopen():
    p = UPoly([-2, 0, 1])         # x^2 - 2
    assert p.count_roots(0, 2) == 1
    assert p.count_roots(-2, 2) == 2
    assert p.count_roots(F(3, 2), 2) == 0
    # root exactly at the upper endpoint is counted, at the lower is not
    q = UPoly([-1, 1]) * UPoly([-3, 1])
    assert q.count_roots(1, 3) == 1
    assert q.count_roots(0, 1) == 1
    assert q.count_roots_open(0, 1) == 0


def test_quartic_example():
    h = UPoly([-1, 4, 0, -4, 1])  # root 2 - sqrt(3) inside, root 1 at the edge
    assert h.count_roots_open(0, 1) == 1
    assert h.count_roots(0, 1) == 2
    ((lo, hi),) = h.isolate_roots(0, F(99, 100))
    lo, hi = h.refine_root(lo, hi, F(1, 10**12))
    import math
    assert lo <= F(2) - F(math.isqrt(3 * 10**24), 10**12) + F(2, 10**12)


def test_sturm_against_numpy_roots():
    """500 random squarefree polynomials with well-separated integer roots."""
    numpy = pytest.importorskip("numpy")
    rng = random.Random(42)
    for _ in range(500):
        deg = rng.randint(1, 12)
        roots = rng.sample(range(-30, 30), deg)
        p = UPoly([1])
        for r in roots:
            p = p * UPoly([-r, 1])
        lo, hi = rng.randint(-35, 0), rng.randint(1, 35)
        expect = sum(1 for r in roots if lo < r <= hi)
        assert p.count_roots(lo, hi) == expect
        np_roots = numpy.roots(list(map(float, reversed(p.coeffs))))
        np_count = sum(1 for z in np_roots
                       if abs(z.imag) < 1e-6 and lo + 1e-6 < z.real <= hi + 1e-6)
        assert np_count == expect


def test_nonneg_on_with_touching_root():
    p = UPoly([-F(1, 3), 1]) ** 2 * UPoly([F(4, 3), -1])   # (x-1/3)^2 (4/3 - x)
    assert p.nonneg_on(0, 1)
    assert not p.nonneg_on(0, 2)
    assert UPoly([0]).nonneg_on(-1, 1)


def test_isolate_roots_with_rational_root():
    p = UPoly([-F(1, 2), 1]) * UPoly([-2, 0, 1])
    boxes = p.isolate_roots(0, 2)
    assert len(boxes) == 2
    assert (F(1, 2), F(1, 2)) in boxes


def test_mpoly_algebra():
    y, z = MPoly.var("y"), MPoly.var("z")
    p = (y + z) ** 2 - (y**2 + 2 * y * z + z**2)
    assert p.is_zero()
    q = y**2 * z + 3 * y - F(1, 2)
    assert q.evaluate({"y": F(2), "z": F(3)}) == 12 + 6 - F(1, 2)
    assert q.partial("y") == 2 * y * z + 3
    assert q.degree_in("y") == 2 and q.degree_in("z") == 1
    assert q.substitute("z", F(0)) == 3 * y - F(1, 2)


def test_resultant_simple():
    y, z = MPoly.var("y"), MPoly.var("z")
    r = resultant(y - z, y**2 - 2, "y")
    assert r == (z**2 - 2) or r == -(z**2 - 2)


def test_resultant_vanishes_on_planted_common_roots():
    rng = random.Random(1)
    y, z = MPoly.var("y"), MPoly.var("z")
    for _ in range(20):
        a = rng.randint(-5, 5)
        common = y - (z + a)                      # shared root y = z + a
        p1 = common * (y**2 + rng.randint(1, 4))
        p2 = common * (y + rng.randint(-3, 3))
        res = resultant(p1, p2, "y")
        zval = F(rng.randint(-10, 10))
        assert res.evaluate({"z": zval}) == 0


def test_resultant_matches_univariate_elimination():
    # planted system: x^2 - z = 0, x - 1 = 0 forces z = 1
    x, z = MPoly.var("x"), MPoly.var("z")
    res = resultant(x**2 - z, x - 1, "x").to_upoly("z")
    assert res(F(1)) == 0 and res.degree == 1


def test_algebraic_number_sign():
    sqrt2 = AlgebraicNumber(UPoly([-2, 0, 1]), F(1), F(2))
    assert sqrt2.sign_of(UPoly([-2, 0, 1])) == 0
    assert sqrt2.sign_of(UPoly([-1, 1])) == 1        # sqrt2 - 1 > 0... x - 1 at sqrt2
    assert sqrt2.sign_of(UPoly([-3, 1])) == -1
    assert sqrt2.sign_of(UPoly([0, -6, 3])) < 0      # 3x(2 - 2x)... sign at sqrt2
    r = AlgebraicNumber.from_rational(F(3, 7))
    assert r.is_rational and r.as_fraction() == F(3, 7)


def test_simplest_fraction():
    assert simplest_fraction_between(F(2, 5), F(3, 5)) == F(1, 2)
    assert simplest_fraction_between(F(15, 100), F(18, 100)) == F(1, 6)
    assert simplest_fraction_between(F(-1, 3), F(1, 7)) == 0
    assert simplest_fraction_between(F(7, 3), F(7, 3)) == F(7, 3)
    x = simplest_fraction_between(F(107, 125), F(108, 125))
    assert F(107, 125) <= x <= F(108, 125)


def test_sturm_root_count_alias():
    from inducibility.polynomials import sturm_root_count
    assert sturm_root_count(UPoly([-2, 0, 1]), 0, 2) == 1
    q1 = UPoly([0, 1]) * UPoly([-216, 625])       # z (625 z - 216)
    assert sturm_root_count(q1, 0, 1) == 1
    h = UPoly([-1, 4, 0, -4, 1])
    assert h.count_roots_open(0, 1) == 1


def _sympy_poly(sympy, p: MPoly, gens):
    """p as a sympy expression in the symbols gens (named like p's variables)."""
    names = [str(g) for g in gens]
    index = [names.index(v) for v in p.vars]
    total = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for i, d in zip(index, e):
            term *= gens[i] ** d
        total += term
    return total


def test_determinants_and_resultants_match_sympy():
    """Both uses of the integer Bareiss elimination, matrices.det over
    Fractions and the resultant interpolated from Sylvester determinants at
    integer points, agree with sympy on seeded random inputs."""
    sympy = pytest.importorskip("sympy")
    from inducibility.matrices import det
    rng = random.Random(36)

    def entry():  # zeros often, so pivots need row swaps
        return F(0) if rng.random() < 0.4 else F(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[-1] = [a + 2 * b for a, b in zip(rows[0], rows[1])]
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                             for r in rows]).det()
        assert det(rows) == F(int(want.p), int(want.q)), rows

    gens = sympy.symbols("y z")
    for _ in range(12):
        polys = []
        for _ in range(2):
            dy = rng.randint(1, 3)
            terms = {(i, j): entry() for i in range(dy + 1) for j in range(3)}
            terms[dy, rng.randint(0, 2)] = F(rng.randint(1, 5))
            polys.append(MPoly(("y", "z"), {e: c for e, c in terms.items() if c}))
        p, q = polys
        ours = resultant(p, q, "y")
        theirs = sympy.Poly(sympy.resultant(_sympy_poly(sympy, p, gens),
                                            _sympy_poly(sympy, q, gens), gens[0]), *gens)
        want = MPoly(("y", "z"), {e: F(int(c.p), int(c.q)) for e, c in theirs.terms() if c})
        assert ours == want.normalized(), (p, q)


def test_resultant_through_a_vanishing_leading_coefficient_matches_sympy():
    """p = (z - 2) y^2 + y + z and q = y^2 - z: D = 2 + 2 = 4, so the nodes
    are z = 0..4, and at the node 2 p drops to degree 1 in y. The formal-degree
    Sylvester determinant there is still Res(2), so the interpolant is sympy's
    resultant."""
    sympy = pytest.importorskip("sympy")
    y, z = MPoly.var("y"), MPoly.var("z")
    p, q = (z - 2) * y**2 + y + z, y**2 - z
    assert p.substitute("z", F(2)).degree_in("y") == 1
    gens = sympy.symbols("y z")
    theirs = sympy.Poly(sympy.resultant(_sympy_poly(sympy, p, gens),
                                        _sympy_poly(sympy, q, gens), gens[0]), gens[1])
    want = MPoly(("z",), {e: F(int(c.p), int(c.q)) for e, c in theirs.terms()})
    assert resultant(p, q, "y") == want.normalized() != 0
    assert resultant(q, p, "y") == want.normalized()


def test_resultant_refuses_a_third_variable():
    x, y, z = MPoly.var("x"), MPoly.var("y"), MPoly.var("z")
    with pytest.raises(ValueError, match="more than one variable besides y"):
        resultant(y - x, y**2 - z, "y")
    assert resultant(y - 3, y**2 - 2, "y") == 1  # no other variable: 7, normalised
    assert resultant(y - 1, y**2 - 1, "y") == 0  # a common root


def test_isolate_roots_builds_one_sturm_chain(monkeypatch):
    """Isolating the 9 roots in (0, 2) of prod (x - (2i-1)/10) * (x - 5)
    builds f's Sturm chain once, not once per bisection interval."""
    calls = []
    chain = UPoly.sturm_chain
    monkeypatch.setattr(UPoly, "sturm_chain", lambda self: calls.append(1) or chain(self))
    p = UPoly([-5, 1])
    for i in range(1, 10):
        p = p * UPoly([-F(2 * i - 1, 10), 1])
    boxes = p.isolate_roots(0, 2)
    assert len(calls) == 1
    assert boxes == [(F(0), F(1, 4)), (F(1, 4), F(3, 8)), (F(1, 2), F(1, 2)),
                     (F(5, 8), F(3, 4)), (F(3, 4), F(1)), (F(1), F(5, 4)),
                     (F(5, 4), F(11, 8)), (F(3, 2), F(3, 2)), (F(13, 8), F(7, 4))]


def test_algebraic_sign_builds_one_sturm_chain(monkeypatch):
    """sign_of at an irrational number is one Tarski query: one remainder
    sequence, no gcd and no refinement of alpha, even where g has roots on
    both sides of alpha, close to it."""
    sqrt2 = AlgebraicNumber(UPoly([-2, 0, 1]), F(1), F(2))
    calls = Counter()
    for owner, name in ((polynomials, "_remainders"), (UPoly, "gcd"), (UPoly, "refine_root")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _fn=fn, _name=name: calls.update([_name]) or _fn(*a))
    # g has roots 1.414213 and 1.414214 on both sides of sqrt2, so g > 0 at
    # the ends of every interval around both
    g = UPoly([-F(1414213, 10**6), 1]) * UPoly([-F(1414214, 10**6), 1])
    assert sqrt2.sign_of(g) == -1
    assert calls == {"_remainders": 1}


def _positive_multiple(a: UPoly, b: UPoly) -> bool:
    return a.degree == b.degree and a * b.leading == b * a.leading \
        and a.leading * b.leading > 0


def test_remainder_routes_equal_the_fraction_references():
    """gcd, sturm_chain (up to a positive factor per term), count_roots and
    sign_of equal the Fraction Euclid, Sturm chain and refinement routes of
    tests/helpers.py on seeded p with repeated factors, at every isolated root
    alpha of p, for g sharing a factor with p, vanishing at alpha, with roots
    at alpha's interval ends, and g = 0."""
    rng = random.Random(36)
    irrational = 0
    for _ in range(80):
        roots = [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        quad = UPoly([rng.randint(-9, 9), rng.randint(-4, 4), 1])  # often irrational roots
        p = quad ** rng.choice([1, 1, 2]) * rng.choice([-3, -1, 2, 5])
        for r in roots:
            p = p * UPoly([-r, 1]) ** rng.choice([1, 1, 2])
        q = UPoly([F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))])
        for a, b in ((p, q), (q, p), (p, p.derivative()), (p, q * quad), (UPoly(), q)):
            assert a.gcd(b) == reference_gcd(a, b), (a, b)
        chain, ref = p.sturm_chain(), reference_sturm_chain(p)
        assert len(chain) == len(ref) and all(map(_positive_multiple, chain, ref)), p
        ends = roots + [F(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(3)]
        for lo in ends:
            for hi in ends:
                assert p.count_roots(lo, hi) == reference_count_roots(p, lo, hi), (p, lo, hi)
        for a, b in p.isolate_roots(-20, 20):
            alpha = AlgebraicNumber(p, a, b)
            irrational += not alpha.is_rational
            at_ends = UPoly([-alpha.lo, 1]) * UPoly([-alpha.hi, 1])
            for g in (q, q * quad, q * p, p.derivative(), at_ends, at_ends * q, UPoly()):
                assert alpha.sign_of(g) == reference_sign_of(alpha, g), (alpha, g)
    assert irrational >= 150


def test_refine_root_equals_the_fraction_bisection():
    """The int signs of refine_root give the Fraction bisection's interval
    at every width, on seeded p with Fraction coefficients, repeated factors,
    irrational roots and rational roots that a midpoint hits."""
    rng = random.Random(37)
    hits = 0
    for _ in range(60):
        quad = UPoly([rng.randint(-9, 9), rng.randint(-4, 4), 1])
        p = quad ** rng.choice([1, 2]) * F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 7))
        for _ in range(rng.randint(0, 3)):
            p = p * UPoly([F(-rng.randint(-12, 12), 2 ** rng.randint(0, 3)), 1]) ** rng.choice([1, 2])
        for a, b in p.isolate_roots(-20, 20):
            for width in (F(1, 2**40), F(1, 10**6), (b - a) / 3):
                got = p.refine_root(a, b, width)
                assert got == reference_refine_root(p, a, b, width), (p, a, b, width)
                hits += got[0] == got[1]
    assert hits >= 10


def test_sturm_counts_match_sympy():
    """count_roots, count_roots_open and isolate_roots agree with sympy's
    exact real roots on seeded polynomials whose rational roots sit at both
    interval ends and inside, with repeated factors and irrational roots."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(51)
    for _ in range(60):
        lo = F(rng.randint(-6, 2), rng.randint(1, 3))
        hi = lo + F(rng.randint(1, 8), rng.randint(1, 3))
        roots = [F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(rng.randint(0, 3))]
        roots += rng.sample([lo, hi, (lo + hi) / 2], rng.randint(0, 3))
        p = UPoly([rng.choice([-3, -1, 2, 5])])
        for r in roots:
            p = p * UPoly([-r, 1]) ** rng.choice([1, 1, 2])
        if rng.random() < 0.6:   # a quadratic factor, often with irrational roots
            p = p * UPoly([rng.randint(-9, 9), rng.randint(-4, 4), 1])
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(p.coeffs))
        real = set(sympy.real_roots(sympy.Poly(expr, x)))
        a, b = sympy.Rational(lo.numerator, lo.denominator), \
            sympy.Rational(hi.numerator, hi.denominator)
        assert p.count_roots(lo, hi) == sum(1 for r in real if a < r <= b), p
        inside = [r for r in real if a < r < b]
        assert p.count_roots_open(lo, hi) == len(inside), p
        boxes = p.isolate_roots(lo, hi)
        assert len(boxes) == len(inside), p
        for r in inside:
            hits = [(u, v) for u, v in boxes
                    if (u == v and r == sympy.Rational(u.numerator, u.denominator))
                    or (u < v and sympy.Rational(u.numerator, u.denominator) < r
                        < sympy.Rational(v.numerator, v.denominator))]
            assert len(hits) == 1, (p, r)
