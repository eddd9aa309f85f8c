"""Strictness verification for candidate maximiser sets.

Two uniform margins are certified at each candidate x: the minimum flip
gradient over supp* pairs, and the largest constant c such that every
attachment pattern (b, alpha) satisfies

    nabla_(b,alpha) lambda(x) >= c * ((1 - alpha) x0 + min_i w_i),

with w_i the edit mass needed to turn the attachment into a clone of part i.
The alpha dependence is handled symbolically: the margin polynomial is
certified non-negative on [0,1] by exact root counting, the best c found by
bisection and then snapped to the simplest verifying rational. A report
passes iff the overall constant is strictly positive.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .objectives import ObjectiveSpec, partitions_of
from .partite import PartiteVector, lambda_of_shape, realise
from .perturbation import (AttachmentPattern, attach_value, clone_values,
                           finite_attach_lambda_vertex, finite_flip_delta, flip_gradient)
from .polynomials import UPoly, simplest_fraction_between


def check_str1(spec: ObjectiveSpec, x: PartiteVector) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """Minimum flip gradient over ordered supp* pairs (repeats allowed)."""
    pairs: dict[tuple[int, int], Fraction] = {}
    for i1 in x.supp_star:
        for i2 in x.supp_star:
            if i2 < i1:
                continue
            pairs[(i1, i2)] = flip_gradient(spec, x, i1, i2)
    return min(pairs.values()), pairs


def compute_w(x: PartiteVector, p: AttachmentPattern) -> dict[int, Fraction]:
    """w_i = [i>0] b_i x_i + sum_{j in supp* minus {0,i}} (1-b_j) x_j."""
    out: dict[int, Fraction] = {}
    for i in x.supp_star:
        w = Fraction(0)
        if i > 0 and p.bit(i):
            w += x.entry(i)
        for j in x.supp_star:
            if j in (0, i):
                continue
            if not p.bit(j):
                w += x.entry(j)
        out[i] = w
    return out


@dataclass(frozen=True)
class PatternMargin:
    b_support: tuple[int, ...]
    min_w: Fraction
    gradient_poly: tuple[str, ...]      # nabla as polynomial in alpha, "p/q" coefficients
    c_bound: Optional[Fraction]         # None encodes unbounded
    feasible: bool                      # nabla >= 0 requirement where the bound vanishes


def _margin_for_pattern(spec: ObjectiveSpec, x: PartiteVector,
                        b: dict[int, int], ref_value: Fraction) -> PatternMargin:
    p = AttachmentPattern(b, Fraction(1))
    att = attach_value(spec, x, p)
    grad = UPoly([ref_value]) - att.poly
    w = compute_w(x, p)
    minw = min(w.values()) if w else Fraction(0)
    supp_b = p.support()
    coeffs = tuple(str(c) for c in grad.coeffs)

    if x.x0 == 0:
        val = grad(Fraction(1))
        if minw == 0:
            return PatternMargin(supp_b, minw, coeffs, None, val >= 0)
        if val < 0:
            return PatternMargin(supp_b, minw, coeffs, Fraction(0), False)
        return PatternMargin(supp_b, minw, coeffs, val / minw, True)

    # B(alpha) = (1 - alpha) x0 + min_w
    bpoly = UPoly([x.x0 + minw, -x.x0])
    if not grad.nonneg_on(0, 1):
        return PatternMargin(supp_b, minw, coeffs, Fraction(0), False)
    samples = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    ratios = [grad(a) / bpoly(a) for a in samples if bpoly(a) > 0]
    if not ratios:
        return PatternMargin(supp_b, minw, coeffs, None, True)
    hi = min(ratios)

    def ok(c: Fraction) -> bool:
        return (grad - c * bpoly).nonneg_on(0, 1)

    if ok(hi):
        return PatternMargin(supp_b, minw, coeffs, hi, True)
    lo = Fraction(0)
    for _ in range(40):
        mid = (lo + hi) / 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    snap = simplest_fraction_between(lo, hi)
    if snap > lo and ok(snap):
        lo = snap
    return PatternMargin(supp_b, minw, coeffs, lo, True)


def check_str2(spec: ObjectiveSpec, x: PartiteVector) -> tuple[Optional[Fraction], list[PatternMargin]]:
    """Best constant for the attachment condition; None means unconstrained.

    b ranges over subsets of supp(x) (indices outside the support cannot
    change the sampled value); patterns equivalent under equal-mass part
    swaps are deduplicated.
    """
    ref = clone_values(spec, x)[1 if x.parts else 0]
    margins: list[PatternMargin] = []
    seen: set[tuple] = set()
    m = len(x.parts)
    for bits in itertools.product((0, 1), repeat=m):
        key = tuple(sorted(zip(x.parts, bits)))
        if key in seen:
            continue
        seen.add(key)
        b = {i + 1: bits[i] for i in range(m)}
        margins.append(_margin_for_pattern(spec, x, b, ref))
    finite = [mg.c_bound for mg in margins if mg.c_bound is not None]
    if any(not mg.feasible for mg in margins):
        return Fraction(0), margins
    if not finite:
        return None, margins
    return min(finite), margins


@dataclass
class CandidateStrictness:
    vector: PartiteVector
    c1: Fraction
    c2: Optional[Fraction]
    pairs: dict[tuple[int, int], Fraction]
    patterns: tuple[PatternMargin, ...] = ()


@dataclass
class StrictnessReport:
    candidates: tuple[CandidateStrictness, ...]
    c1: Fraction
    c2: Optional[Fraction]
    c: Fraction
    passed: bool

    def to_json(self) -> str:
        return json.dumps({
            "passed": self.passed,
            "c": str(self.c),
            "c1": str(self.c1),
            "c2": None if self.c2 is None else str(self.c2),
            "candidates": [{
                "vector": json.loads(cand.vector.to_json()),
                "c1": str(cand.c1),
                "c2": None if cand.c2 is None else str(cand.c2),
                "pairs": {f"{i},{j}": str(v) for (i, j), v in cand.pairs.items()},
                "patterns": [{
                    "b_support": list(p.b_support),
                    "min_w": str(p.min_w),
                    "c_bound": None if p.c_bound is None else str(p.c_bound),
                    "feasible": p.feasible,
                    "gradient_poly": list(p.gradient_poly),
                } for p in cand.patterns],
            } for cand in self.candidates],
        })


def strictness_certificate(spec: ObjectiveSpec,
                           candidates: list[PartiteVector]) -> StrictnessReport:
    """c = min over candidates of min(check_str1, check_str2); pass iff c > 0."""
    if not candidates:
        raise ValueError("no candidates supplied")
    out = []
    for x in candidates:
        c1, pairs = check_str1(spec, x)
        c2, margins = check_str2(spec, x)
        out.append(CandidateStrictness(x, c1, c2, pairs, tuple(margins)))
    c1 = min(c.c1 for c in out)
    finite = [c.c2 for c in out if c.c2 is not None]
    c2 = min(finite) if finite else None
    c = c1 if c2 is None else min(c1, c2)
    return StrictnessReport(tuple(out), c1, c2, c, c > 0)


def counterexample_spec() -> ObjectiveSpec:
    """Sum of all complete partite densities at k=3: maximised by everything.

    Ships as the built-in negative fixture; strictness fails with c = 0 on
    candidates that include clique mass.
    """
    return ObjectiveSpec.combination([(1, a) for a in partitions_of(3)],
                                     label="SUM all complete partite, k=3")


def counterexample_candidates() -> list[PartiteVector]:
    return [PartiteVector.zero(), PartiteVector([Fraction(1)]),
            PartiteVector([Fraction(1, 2), Fraction(1, 2)])]


# ---------------------------------------------------------------------------
# Finite-n conditions of the stability theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteStrictnessReport:
    n: int
    c1: Fraction                      # best constant in lam(G)-lam(G+xy) >= c/n^2
    c2: Optional[Fraction]            # best constant in edits <= n*deficit/c
    clone_deficits: tuple[Fraction, ...]  # deficits at exact clone attachments

    @property
    def c(self) -> Fraction:
        if self.c2 is None:
            return self.c1
        return min(self.c1, self.c2)


def finite_strictness_check(spec: ObjectiveSpec, x: PartiteVector, n: int) -> FiniteStrictnessReport:
    """Evaluate both finite-n strictness conditions on the realisation of x."""
    realised = realise(n, x)
    structure = realised.structure
    lam = lambda_of_shape(spec, structure.shape())
    k = spec.k

    # pair condition over part-index orbits
    sizes = structure.group_sizes()
    c1: Optional[Fraction] = None
    scale = Fraction(comb(n - 2, k - 2), comb(n, k))
    for i1 in sorted(sizes):
        for i2 in sorted(sizes):
            if i2 < i1:
                continue
            if i1 == i2 and sizes[i1] < 2:
                continue
            delta = finite_flip_delta(spec, realised, i1, i2) * scale
            val = n * n * delta
            if c1 is None or val < c1:
                c1 = val
    assert c1 is not None

    # attachment condition over all complete-or-empty patterns and clique cuts
    part_ids = sorted(i for i in sizes if i > 0)
    v0_size = sizes.get(0, 0)
    c2: Optional[Fraction] = None
    clone_deficits: list[Fraction] = []
    seen: set[tuple] = set()
    for bits in itertools.product((0, 1), repeat=len(part_ids)):
        key = tuple(sorted((sizes[i], bit) for i, bit in zip(part_ids, bits)))
        for j in range(v0_size + 1):
            if (key, j) in seen:
                continue
            seen.add((key, j))
            b = dict(zip(part_ids, bits))
            deficit = lam - finite_attach_lambda_vertex(spec, realised, b, j)
            edits = _min_clone_edits(sizes, part_ids, b, j, v0_size)
            if edits == 0:
                clone_deficits.append(deficit)
                continue
            val = Fraction(n) * deficit / edits
            if c2 is None or val < c2:
                c2 = val
    return FiniteStrictnessReport(n, c1, c2, tuple(clone_deficits))


def _min_clone_edits(sizes: dict[int, int], part_ids: list[int],
                     b: dict[int, int], v0_joined: int, v0_size: int) -> int:
    best: Optional[int] = None
    targets = list(part_ids) + ([0] if v0_size else [])
    for tgt in targets:
        cost = v0_size - v0_joined
        for i in part_ids:
            if i == tgt:
                cost += b[i] * sizes[i]
            else:
                cost += (1 - b[i]) * sizes[i]
        if best is None or cost < best:
            best = cost
    return best if best is not None else 0
