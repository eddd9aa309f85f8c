"""Candidate maximiser search.

finite_opt maximises over the integer partitions of n exactly (a branch and
bound whose cuts keep every tie); continuous_opt is a
seeded multistart projected-gradient ascent over the simplex (clique mass as
an explicit coordinate) with merge/split moves, followed by clustering and
snapping to small-denominator rationals whose exact value confirms the float;
kst_maximiser solves the one-dimensional two-part problem exactly, returning
either 1/2 or the algebraic root of the associated quartic-family polynomial.

continuous_opt is a heuristic: it never claims completeness, only that every
reported candidate passes the stationarity filter. Certification of global
optimality lives in the certificate pipelines.
"""

from __future__ import annotations

import math
import operator
import random
import struct
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb
from typing import Callable, Optional, Sequence

from .graphs import CompletePartiteShape
from .objectives import ObjectiveSpec
from .partite import (PartiteVector, lambda_of_vector, partition_totals,
                      sym_coefficient, _multinomial)
from .perturbation import lagrange_residual
from .polynomials import AlgebraicNumber, UPoly


# ---------------------------------------------------------------------------
# Exhaustive finite-n search over complete partite shapes
# ---------------------------------------------------------------------------

def finite_opt(spec: ObjectiveSpec, n: int) -> tuple[Fraction, list[CompletePartiteShape]]:
    """Max of lambda over all n-vertex complete partite graphs, with argmax set.

    Scans the partitions of n with partite.partition_totals, which carries
    the generating-function product of each pattern with nonzero gamma along
    a depth-first walk. Partitions are compared by the integer
    sum of (gamma * scale) * count (spec.partition_weights()); only the
    maximum becomes a Fraction. The argmax shapes are listed in
    partitions_of order.

    The walk is a branch and bound: every factor of the product is a
    non-negative int, so a subtree's weighted counts have an integer upper
    bound, and a subtree is cut only when that bound is below the best total
    so far. The cut is strict, so ties are kept and the value and the full
    argmax list are those of the exhaustive scan. The worst case is a
    constant gamma, where every partition ties and none is cut.
    """
    if n > 40:
        raise ValueError("partition scan limited to n <= 40")
    if n < spec.k:
        raise ValueError("need n >= k")
    best: Optional[int] = None
    arg: list[tuple[tuple[int, int], ...]] = []
    for groups, total in partition_totals(spec.partition_weights(), n):
        if best is None or total > best:
            best, arg = total, [groups]
        elif total == best:
            arg.append(groups)
    assert best is not None
    return (Fraction(best, spec.scale * comb(n, spec.k)),
            [CompletePartiteShape(counts=groups) for groups in arg])


# ---------------------------------------------------------------------------
# Float evaluation plan (power-sum expansion of the closed form)
# ---------------------------------------------------------------------------

def _set_partitions(items: Sequence[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class _FloatPlan:
    """lambda(x) = sum coeff * x0^s * prod(power sums), in floats.

    value and gradient give the floats of the plain loop over terms, slots and
    parts (tests/helpers.py keeps it as the reference) with less work: the
    power sums and the powers p**j are computed once per point over the
    distinct nonzero coordinates, tied coordinates share one partial, and a
    run of equal exponents in a term shares one product of the other power
    sums. Every reported float goes through the same operations in the same
    order as in that loop.
    """

    def __init__(self, spec: ObjectiveSpec):
        self.k = spec.k
        terms: dict[tuple[int, tuple[int, ...]], float] = {}
        for a, gamma in spec.partition_values().items():
            if gamma == 0:
                continue
            k = sum(a)
            ell = len(a)
            t = sum(1 for v in a if v >= 2)
            lead = gamma * _multinomial(k, a) * sym_coefficient(a)
            for s in range(ell - t + 1):
                prefix = a[: ell - s]
                pick = comb(ell - t, s)
                for part in _set_partitions(list(range(len(prefix)))):
                    coeff = lead * pick
                    exps = []
                    for block in part:
                        size = len(block)
                        coeff *= Fraction((-1) ** (size - 1) * math.factorial(size - 1))
                        exps.append(sum(prefix[i] for i in block))
                    key = (s, tuple(sorted(exps)))
                    terms[key] = terms.get(key, 0.0) + float(coeff)
        self.terms = [(s, exps, c) for (s, exps), c in terms.items() if c]
        # per term, each run of equal (sorted) exponents e with its length and
        # the exponents left when one e is dropped: the slots of a run differ
        # only in which e they drop, so they share that product
        self._runs = [[(e, exps.count(e), exps[:i] + exps[i + 1:])
                       for i, e in enumerate(exps) if i == 0 or exps[i - 1] != e]
                      for _, exps, _ in self.terms]
        # the power p**(e - 1) each slot multiplies, in (term, slot) order
        self._degrees = [e - 1 for runs in self._runs for e, count, _ in runs
                         for _ in range(count)]
        self._ones = [d == 0 for d in self._degrees]
        self._point: Optional[tuple[float, Sequence[float]]] = None

    def _table(self, x0: float, parts: Sequence[float]):
        """(x0**s, power sums, {p: [p**j]}) at the point, kept for the next call.

        Zero coordinates add nothing to a power sum, so they are skipped; the
        fold still runs over the same nonzero parts in the same order."""
        if (x0, parts) != self._point:
            r = range(self.k + 1)
            pows = {}
            for p in parts:
                if p and p not in pows:
                    pows[p] = [p**j for j in r]
            rows = [pows[p] for p in parts if p]
            ps = [_fold(col) for col in zip(*rows)] if rows else [0.0] * (self.k + 1)
            self._point = (x0, list(parts))
            self._cache = ([x0**s for s in r], ps, pows)
        return self._cache

    def value(self, x0: float, parts: Sequence[float]) -> float:
        xs, ps, _ = self._table(x0, parts)
        total = 0.0
        for s, exps, c in self.terms:
            t = c * xs[s]
            for e in exps:
                t *= ps[e]
            total += t
        return total

    def gradient(self, x0: float, parts: Sequence[float]) -> tuple[float, list[float]]:
        xs, ps, pows = self._table(x0, parts)
        g0 = 0.0
        coeffs: list[float] = []   # rest * e of every slot, in (term, slot) order
        for (s, exps, c), runs in zip(self.terms, self._runs):
            if s:
                prods = 1.0
                for e in exps:
                    prods *= ps[e]
                g0 += c * s * xs[s - 1] * prods
            base = c * xs[s]
            for e, count, others in runs:
                rest = base
                for e2 in others:
                    rest *= ps[e2]
                coeffs += [rest * e] * count
        # each partial adds its slots left to right from 0.0, as the loop did
        partial = {p: reduce(operator.add,
                             map(operator.mul, coeffs, map(pw.__getitem__, self._degrees)), 0.0)
                   for p, pw in pows.items()}
        # at a zero coordinate only the slots with e = 1 (p**0 = 1) add
        zero = reduce(operator.add, compress(coeffs, self._ones), 0.0)
        return g0, [partial[p] if p else zero for p in parts]


def _fold(values: Sequence[float]) -> float:
    """The left-to-right float sum from 0.0, on every interpreter: sum()
    compensates its rounding from Python 3.12 on."""
    return reduce(operator.add, values, 0.0)


def _project_simplex(v: Sequence[float]) -> list[float]:
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    u = sorted(v, reverse=True)
    css = 0.0
    theta = 0.0
    for j, uj in enumerate(u):
        css += uj
        t = (css - 1.0) / (j + 1)
        if uj - t > 0:
            theta = t
    return [0.0 if x < theta else x - theta for x in v]   # max(x - theta, 0.0)


# ---------------------------------------------------------------------------
# Multistart continuous search
# ---------------------------------------------------------------------------

class Candidate:
    __slots__ = ("parts", "x0", "lam_float", "residual_float", "vector", "lam_exact",
                 "residual_exact")

    def __init__(self, parts: tuple[float, ...], x0: float, lam_float: float,
                 residual_float: float):
        self.parts = parts
        self.x0 = x0
        self.lam_float = lam_float
        self.residual_float = residual_float
        self.vector: Optional[PartiteVector] = None  # set when the snap verifies
        self.lam_exact: Optional[Fraction] = None
        self.residual_exact: Optional[Fraction] = None

    @property
    def snapped(self) -> bool:
        return self.vector is not None


class CandidateSet:
    __slots__ = ("candidates", "lam_best", "provenance")

    def __init__(self, candidates: list[Candidate], lam_best: float, provenance: dict):
        self.candidates = candidates
        self.lam_best = lam_best
        self.provenance = provenance

    def best_snapped(self) -> Optional[Candidate]:
        """The first candidate whose snap verified, or None."""
        return next((c for c in self.candidates if c.snapped), None)

    def to_jsonable(self) -> dict:
        return {
            "lambda_best_float": self.lam_best,
            "provenance": self.provenance,
            "candidates": [{
                "x0": c.x0,
                "parts": list(c.parts),
                "lambda_float": c.lam_float,
                "residual_float": c.residual_float,
                "snapped": c.snapped,
                "vector": None if c.vector is None else c.vector.to_jsonable(),
                "lambda_exact": None if c.lam_exact is None else str(c.lam_exact),
                "residual_exact": None if c.residual_exact is None else str(c.residual_exact),
            } for c in self.candidates],
        }


def _ascend(plan: _FloatPlan, z: list[float]) -> tuple[list[float], float]:
    """Projected gradient ascent on [x0, x1..xM] over the simplex (at most
    400 gradient steps)."""
    val = plan.value(z[0], z[1:])
    step = 0.1
    for _ in range(400):
        g0, gi = plan.gradient(z[0], z[1:])
        grad = [g0] + gi
        improved = False
        for _ in range(25):
            cand = _project_simplex([zi + step * g for zi, g in zip(z, grad)])
            cv = plan.value(cand[0], cand[1:])
            if cv > val + 1e-15:
                z, val = cand, cv
                step *= 1.25
                improved = True
                break
            step *= 0.5
            if step < 1e-14:
                break
        if not improved:
            break
    return z, val


def _memoised_ascent(plan: _FloatPlan):
    """_ascend on plan, memoised by its input point.

    _ascend is a pure function of the point, and the merge and split moves
    of different starts reach the same points again. The memo keeps each
    point and result as packed doubles, which is exact and small; each call
    returns a fresh list."""
    memo: dict[bytes, tuple[bytes, float]] = {}

    def ascend(z: list[float]) -> tuple[list[float], float]:
        point = struct.Struct(f"{len(z)}d")
        key = point.pack(*z)
        if key not in memo:
            out, val = _ascend(plan, z)
            memo[key] = (point.pack(*out), val)
        out, val = memo[key]
        return list(point.unpack(out)), val

    return ascend


def _residual_float(plan: _FloatPlan, z: list[float]) -> float:
    lam = plan.value(z[0], z[1:])
    g0, gi = plan.gradient(z[0], z[1:])
    k = plan.k
    worst = 0.0
    if z[0] > 1e-9:
        worst = abs(g0 / k - lam)
    for zi, g in zip(z[1:], gi):
        if zi > 1e-9:
            worst = max(worst, abs(g / k - lam))
    return worst


def continuous_opt(spec: ObjectiveSpec, max_support: int, starts: int = 200,
                   seed: int = 0,
                   extra_seeds: Sequence[PartiteVector] = ()) -> CandidateSet:
    """Multistart search for maximisers with support at most max_support.

    A candidate is kept when its float Lagrange residual is at most 1e-8; it
    snaps only when every coordinate is within 1e-7 of a fraction with
    denominator at most 64."""
    if max_support > 10:
        raise ValueError("max_support limited to 10")
    plan = _FloatPlan(spec)
    rng = random.Random(seed)
    M = max_support

    seeds: list[list[float]] = []
    for vec in extra_seeds:
        ratios = [float(p) for p in vec.parts[:M]]
        seeds.append([float(vec.x0)] + ratios + [0.0] * (M - len(ratios)))
    for r in range(1, M + 1):
        seeds.append([0.0] + [1.0 / r] * r + [0.0] * (M - r))
    for x0 in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for r in range(1, M + 1):
            seeds.append([x0] + [(1 - x0) / r] * r + [0.0] * (M - r))
    # 3 <= k <= 8 for every spec, so n is 12 to 15 and the scan cannot refuse it
    _, shapes = finite_opt(spec, max(spec.k + 7, 12))
    for shape in shapes[:4]:
        sizes = shape.part_sizes
        n = shape.n
        ratios = sorted((s / n for s in sizes), reverse=True)[:M]
        seeds.append([1 - _fold(ratios)] + ratios + [0.0] * (M - len(ratios)))
        big = sorted((s / n for s in sizes if s >= 2), reverse=True)[:M]
        seeds.append([1 - _fold(big)] + big + [0.0] * (M - len(big)))
    while len(seeds) < starts:
        r = rng.randint(1, M)
        raw = [rng.expovariate(1.0) for _ in range(r)]
        x0 = rng.random() if rng.random() < 0.4 else 0.0
        tot = _fold(raw)
        seeds.append([x0] + [(1 - x0) * w / tot for w in raw] + [0.0] * (M - r))

    ascend = _memoised_ascent(plan)
    found: list[tuple[float, list[float]]] = []
    for z in seeds:
        z, val = ascend(_project_simplex(z))
        z, val = _local_moves(ascend, z, val)
        found.append((val, z))

    # cluster by rounded coordinates, keep the best representative
    clusters: dict[tuple, tuple[float, list[float]]] = {}
    for val, z in found:
        x0 = z[0] if z[0] > 1e-9 else 0.0
        parts = tuple(sorted((p for p in z[1:] if p > 1e-9), reverse=True))
        key = (round(x0, 6),) + tuple(round(p, 6) for p in parts)
        if key not in clusters or val > clusters[key][0]:
            clusters[key] = (val, [x0] + list(parts))
    ranked = sorted(clusters.values(), key=lambda t: -t[0])

    candidates: list[Candidate] = []
    for val, z in ranked:
        res = _residual_float(plan, z)
        if res > 1e-8:
            continue
        cand = Candidate(tuple(z[1:]), z[0], val, res)
        snap = _try_snap(spec, z, val)
        if snap is not None:
            cand.vector, cand.lam_exact = snap
            cand.residual_exact = lagrange_residual(spec, cand.vector)
        candidates.append(cand)

    if candidates:
        best = candidates[0].lam_float
        top = [c for c in candidates if c.lam_float >= best - 1e-9]
    else:
        best = float("-inf")
        top = []
    return CandidateSet(top, best, provenance={
        "starts": len(seeds), "seed": seed, "max_support": M,
        "clusters": len(ranked), "objective": spec.label,
    })


def _local_moves(ascend: Callable[[list[float]], tuple[list[float], float]],
                 z: list[float], val: float) -> tuple[list[float], float]:
    """Merge the two smallest parts / split the largest, keeping improvements."""
    improved = True
    while improved:
        improved = False
        parts = sorted((p for p in z[1:] if p > 1e-9), reverse=True)
        M = len(z) - 1
        if len(parts) >= 2:
            merged = parts[:-2] + [parts[-2] + parts[-1]]
            cand = [z[0]] + merged + [0.0] * (M - len(merged))
            cand, cv = ascend(_project_simplex(cand))
            if cv > val + 1e-12:
                z, val = cand, cv
                improved = True
                continue
        if parts and len(parts) < M:
            split = [parts[0] / 2, parts[0] / 2] + parts[1:]
            cand = [z[0]] + split + [0.0] * (M - len(split))
            cand, cv = ascend(_project_simplex(cand))
            if cv > val + 1e-12:
                z, val = cand, cv
                improved = True
    return z, val


def _try_snap(spec: ObjectiveSpec, z: list[float],
              val: float) -> Optional[tuple[PartiteVector, Fraction]]:
    """The rational vector near z and its exact lambda, when they confirm val."""
    parts = []
    for p in z[1:]:
        f = Fraction(p).limit_denominator(64)
        if abs(float(f) - p) > 1e-7:
            return None
        if f > 0:
            parts.append(f)
    x0 = Fraction(z[0]).limit_denominator(64)
    if abs(float(x0) - z[0]) > 1e-7:
        return None
    if sum(parts, Fraction(0)) + x0 != 1:
        return None
    try:
        vec = PartiteVector(sorted(parts, reverse=True))
    except ValueError:
        return None
    lam = lambda_of_vector(spec, vec)
    if float(lam) < val - 1e-9:
        return None
    return vec, lam


# ---------------------------------------------------------------------------
# The two-part (bipartite pattern) solver
# ---------------------------------------------------------------------------

class KstResult:
    __slots__ = ("alpha", "root_poly", "at_half", "i_value")

    def __init__(self, alpha: AlgebraicNumber, root_poly: UPoly, at_half: bool,
                 i_value: tuple[Fraction, Fraction]):
        self.alpha = alpha            # the larger ratio, in [1/2, 1)
        self.root_poly = root_poly    # s x^{m+1} - t x^m + t x - s, m = t - s
        self.at_half = at_half        # True when the balanced split is optimal
        self.i_value = i_value        # enclosure of the inducibility constant


def _fst_value(s: int, t: int, a_lo: Fraction, a_hi: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of a^s(1-a)^t + a^t(1-a)^s for a in [a_lo, a_hi] inside [0, 1]:
    a and 1 - a are nonnegative there, so each term is monotone in the ends."""
    b_lo, b_hi = 1 - a_hi, 1 - a_lo
    return (a_lo**s * b_lo**t + a_lo**t * b_lo**s,
            a_hi**s * b_hi**t + a_hi**t * b_hi**s)


def kst_maximiser(s: int, t: int) -> KstResult:
    """Optimal split ratio for the two-part profile a^s(1-a)^t + a^t(1-a)^s.

    Returns 1/2 exactly when s >= C(t-s, 2); otherwise isolates the unique
    root of the associated polynomial in (0, 1) and maps it through
    alpha = 1/(1+x) to an algebraic number with a 2^-40 isolating interval.
    """
    if s > t:
        s, t = t, s
    if s * t < 2:
        raise ValueError("need s*t >= 2")
    if s < 1:  # two negative sizes have a positive product
        raise ValueError("need s, t >= 1")
    m = t - s
    # h(x) = s x^{m+1} - t x^m + t x - s (terms merge when m <= 1)
    coeffs = [Fraction(0)] * (m + 2)
    coeffs[0] = Fraction(-s)
    coeffs[1] += Fraction(t)
    coeffs[m] += Fraction(-t)
    coeffs[m + 1] += Fraction(s)
    h = UPoly(coeffs)

    at_half = s >= comb(m, 2)
    if at_half:
        alpha = AlgebraicNumber.from_rational(Fraction(1, 2))
    else:
        boxes = h.isolate_roots(Fraction(0), Fraction(1))
        if len(boxes) != 1:
            raise RuntimeError("expected a unique root in (0, 1)")
        lo, hi = h.refine_root(*boxes[0], Fraction(1, 2**40))
        # alpha = 1/(1+x) is decreasing and 1-Lipschitz on x >= 0
        a_lo, a_hi = 1 / (1 + hi), 1 / (1 + lo)
        # defining polynomial for alpha: alpha^{m+1} h((1-alpha)/alpha)
        one_minus = UPoly([1, -1])
        al = UPoly.x()
        p_alpha = (s * one_minus ** (m + 1) - t * al * one_minus**m
                   + t * one_minus * al**m - s * al ** (m + 1))
        alpha = AlgebraicNumber(p_alpha, a_lo, a_hi)
    if alpha.is_rational:
        a = alpha.as_fraction()
        mlo = mhi = a**s * (1 - a) ** t + a**t * (1 - a) ** s
    else:
        mlo, mhi = _fst_value(s, t, *alpha.interval())
    if s == t:
        mlo, mhi = mlo / 2, mhi / 2
    factor = comb(s + t, s)
    return KstResult(alpha, h, at_half, (factor * mlo, factor * mhi))
