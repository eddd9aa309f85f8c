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
from collections import Counter
from fractions import Fraction
from math import comb, prod
from typing import Callable, Iterator, Mapping, Optional

from .objectives import ObjectiveSpec
from .partite import PartiteVector
from .perturbation import AttachmentPattern, attach_value, clone_values, flip_gradient
from .polynomials import UPoly, simplest_fraction_between


def _pair_orbits(masses: Mapping[int, object], value: Callable[[int, int], object]) -> dict:
    """value(i1, i2) for every pair i1 <= i2 of the keys of masses, computed
    once per orbit of swaps of equal-mass parts; the clique (key 0) is never
    swapped with a part."""
    keys = sorted(masses)
    known: dict[tuple, object] = {}
    out: dict[tuple[int, int], object] = {}
    for a, i1 in enumerate(keys):
        for i2 in keys[a:]:
            orbit = (i1 == 0, masses[i1], masses[i2], i1 == i2)
            if orbit not in known:
                known[orbit] = value(i1, i2)
            out[i1, i2] = known[orbit]
    return out


def _pattern_orbits(masses: Mapping[int, object]) -> Iterator[dict[int, int]]:
    """One 0/1 pattern b over the keys of masses (the parts) per orbit of
    swaps of equal-mass parts, the first of each in product order: an orbit
    is a count of ones j per distinct mass, and its first pattern puts them
    on the last j keys of that mass."""
    ids = sorted(masses)
    groups: dict[object, list[int]] = {}
    for i in ids:
        groups.setdefault(masses[i], []).append(i)
    patterns = []
    for counts in itertools.product(*(range(len(g) + 1) for g in groups.values())):
        ones = {i for g, j in zip(groups.values(), counts) for i in g[len(g) - j:]}
        patterns.append(tuple(int(i in ones) for i in ids))
    for bits in sorted(patterns):
        yield dict(zip(ids, bits))


def check_str1(spec: ObjectiveSpec, x: PartiteVector) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """Minimum flip gradient over ordered supp* pairs (repeats allowed)."""
    pairs = _pair_orbits(x.draw_weights(), lambda i1, i2: flip_gradient(spec, x, i1, i2))
    return min(pairs.values()), pairs


def _clone_edit_mass(masses: Mapping[int, object], b: Mapping[int, int]) -> dict:
    """w_i = [i>0] b_i m_i + sum_{j >= 1, j != i} (1 - b_j) m_j for each key i
    of masses: the part mass to edit so that a vertex joined to the parts in
    b and to the whole clique becomes a clone of group i. masses holds the
    limit masses over supp* (clique key 0 present iff it is positive)."""
    unjoined = sum((m for j, m in masses.items() if j and not b.get(j, 0)), Fraction(0))
    return {i: (unjoined + (m if b.get(i, 0) else -m)) if i else unjoined
            for i, m in masses.items()}


class PatternMargin:
    __slots__ = ("b_support", "min_w", "gradient_poly", "c_bound", "feasible", "attach")

    def __init__(self, b_support: tuple[int, ...], min_w: Fraction, gradient_poly: tuple[str, ...],
                 c_bound: Optional[Fraction], feasible: bool, attach: UPoly):
        self.b_support = b_support
        self.min_w = min_w
        self.gradient_poly = gradient_poly  # nabla as polynomial in alpha, "p/q" coefficients
        self.c_bound = c_bound              # None encodes unbounded
        self.feasible = feasible            # nabla >= 0 requirement where the bound vanishes
        self.attach = attach                # lambda(x, (b, alpha)) in alpha; not written to JSON

    def __eq__(self, other) -> bool:
        return isinstance(other, PatternMargin) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__)


def _margin_for_pattern(spec: ObjectiveSpec, x: PartiteVector,
                        b: dict[int, int], ref_value: Fraction) -> PatternMargin:
    p = AttachmentPattern(b, Fraction(1))
    att = attach_value(spec, x, p)
    grad = UPoly([ref_value]) - att.poly
    minw = min(_clone_edit_mass(x.draw_weights(), p.b).values())
    coeffs = tuple(str(c) for c in grad.coeffs)

    def margin(c_bound: Optional[Fraction], feasible: bool) -> PatternMargin:
        return PatternMargin(p.support(), minw, coeffs, c_bound, feasible, att.poly)

    # B(alpha) = (1 - alpha) x0 + min_w; B = 0 (x0 = min_w = 0) bounds nothing
    bpoly = UPoly([x.x0 + minw, -x.x0])
    samples = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    ratios = [grad(a) / bpoly(a) for a in samples if bpoly(a) > 0]
    if not ratios:
        return margin(None, grad.nonneg_on(0, 1))
    if not grad.nonneg_on(0, 1):
        return margin(Fraction(0), False)
    hi = min(ratios)

    def ok(c: Fraction) -> bool:
        return (grad - c * bpoly).nonneg_on(0, 1)

    if ok(hi):
        return margin(hi, True)
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
    return margin(lo, True)


# Most draw terms one walk of a candidate may take: the attachment walk of
# check_str2 (attach_terms) or the flip walk of check_str1 (flip_terms).
# KP 2,1,1,1 with clique mass walks 183,040 attachment terms on 8 distinct
# parts (about 1 s on a 2-vCPU VM) and 1,397,760 on 10 (about 7 s); KP 3,3
# walks 39,325 flip terms on 10 distinct parts (about 0.7 s) and 2,454,606 on
# 20 with clique mass (about 21 s).
TERM_BUDGET = 1_000_000


def check_budget(command: str, x: PartiteVector, walk: str, terms: int) -> None:
    """ValueError when a walk at x takes more than TERM_BUDGET draw terms."""
    if terms > TERM_BUDGET:
        raise ValueError(f"{command}: {len(x.parts)} parts need {terms} {walk} terms, "
                         f"above the limit of {TERM_BUDGET}")


def flip_terms(spec: ObjectiveSpec, x: PartiteVector) -> int:
    """The draw terms of check_str1: one flip draw sum per pair orbit, each
    over the multisets of k-2 keys of supp*. With D distinct part masses
    the orbits are D pairs inside a part, C(D, 2) pairs of two masses, one
    pair of tied parts per repeated mass and, with clique mass, 1 + D pairs
    with a clique draw."""
    tally = Counter(x.parts)
    d = len(tally)
    orbits = d + comb(d, 2) + sum(m > 1 for m in tally.values()) + (1 + d if x.x0 else 0)
    return orbits * comb(len(x.supp_star) + spec.k - 3, spec.k - 2)


def attach_terms(spec: ObjectiveSpec, x: PartiteVector) -> int:
    """The draw terms of check_str2: one attachment draw sum per pattern
    orbit, prod over distinct part masses of (multiplicity + 1), each over
    the multisets of k-1 draw keys (the parts, and the clique as two groups)."""
    keys = len(x.parts) + (2 if x.x0 else 0)
    orbits = prod(m + 1 for m in Counter(x.parts).values())
    return orbits * comb(keys + spec.k - 2, spec.k - 1)


def check_str2(spec: ObjectiveSpec, x: PartiteVector) -> tuple[Optional[Fraction], list[PatternMargin]]:
    """Best constant for the attachment condition; None means unconstrained.

    b ranges over subsets of supp(x) (indices outside the support cannot
    change the sampled value); patterns equivalent under equal-mass part
    swaps are deduplicated.
    """
    ref = clone_values(spec, x)[1 if x.parts else 0]
    masses = {i: x.entry(i) for i in x.support}
    margins = [_margin_for_pattern(spec, x, b, ref) for b in _pattern_orbits(masses)]
    finite = [mg.c_bound for mg in margins if mg.c_bound is not None]
    if any(not mg.feasible for mg in margins):
        return Fraction(0), margins
    if not finite:
        return None, margins
    return min(finite), margins


class CandidateStrictness:
    __slots__ = ("vector", "c1", "c2", "pairs", "patterns")

    def __init__(self, vector: PartiteVector, c1: Fraction, c2: Optional[Fraction],
                 pairs: dict[tuple[int, int], Fraction], patterns: tuple[PatternMargin, ...] = ()):
        self.vector = vector
        self.c1 = c1
        self.c2 = c2
        self.pairs = pairs
        self.patterns = patterns


class StrictnessReport:
    __slots__ = ("candidates", "c1", "c2", "c", "passed")

    def __init__(self, candidates: tuple[CandidateStrictness, ...], c1: Fraction,
                 c2: Optional[Fraction], c: Fraction, passed: bool):
        self.candidates = candidates
        self.c1 = c1
        self.c2 = c2
        self.c = c
        self.passed = passed

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "c": str(self.c),
            "c1": str(self.c1),
            "c2": None if self.c2 is None else str(self.c2),
            "candidates": [{
                "vector": cand.vector.to_jsonable(),
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
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable())


def strictness_certificate(spec: ObjectiveSpec,
                           candidates: list[PartiteVector]) -> StrictnessReport:
    """c = min over candidates of min(check_str1, check_str2); pass iff c > 0.

    ValueError, before any check runs, when a candidate's check_str2 or
    check_str1 would walk more than TERM_BUDGET draw terms (attach_terms,
    flip_terms).
    """
    if not candidates:
        raise ValueError("no candidates supplied")
    for x in candidates:
        check_budget("strictness", x, "attachment", attach_terms(spec, x))
        check_budget("strictness", x, "flip", flip_terms(spec, x))
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
