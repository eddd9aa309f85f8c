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
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Mapping, Optional

from .objectives import ObjectiveSpec
from .partite import PartiteVector, lambda_of_shape, realise
from .perturbation import (AttachmentPattern, attach_value, clone_values,
                           finite_attach_lambda_vertex, finite_flip_delta, flip_gradient)
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
    swaps of equal-mass parts, the first of each in product order."""
    ids = sorted(masses)
    seen: set[tuple] = set()
    for bits in itertools.product((0, 1), repeat=len(ids)):
        key = tuple(sorted((masses[i], bit) for i, bit in zip(ids, bits)))
        if key not in seen:
            seen.add(key)
            yield dict(zip(ids, bits))


def check_str1(spec: ObjectiveSpec, x: PartiteVector) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """Minimum flip gradient over ordered supp* pairs (repeats allowed)."""
    pairs = _pair_orbits(x.draw_weights(), lambda i1, i2: flip_gradient(spec, x, i1, i2))
    return min(pairs.values()), pairs


def _clone_edit_mass(masses: Mapping[int, object], b: Mapping[int, int]) -> dict:
    """w_i = [i>0] b_i m_i + sum_{j >= 1, j != i} (1 - b_j) m_j for each key i
    of masses: the part mass to edit so that a vertex joined to the parts in
    b and to the whole clique becomes a clone of group i. masses holds the
    limit masses over supp*, or the realised group sizes (clique key 0
    present iff it is nonempty)."""
    unjoined = sum((m for j, m in masses.items() if j and not b.get(j, 0)), Fraction(0))
    return {i: (unjoined + (m if b.get(i, 0) else -m)) if i else unjoined
            for i, m in masses.items()}


def compute_w(x: PartiteVector, p: AttachmentPattern) -> dict[int, Fraction]:
    """w_i = [i>0] b_i x_i + sum_{j in supp* minus {0,i}} (1-b_j) x_j."""
    return _clone_edit_mass(x.draw_weights(), p.b)


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
    minw = min(compute_w(x, p).values())
    coeffs = tuple(str(c) for c in grad.coeffs)

    def margin(c_bound: Optional[Fraction], feasible: bool) -> PatternMargin:
        return PatternMargin(p.support(), minw, coeffs, c_bound, feasible, att.poly)

    if x.x0 == 0:
        val = grad(Fraction(1))
        if minw == 0:
            return margin(None, val >= 0)
        if val < 0:
            return margin(Fraction(0), False)
        return margin(val / minw, True)

    # B(alpha) = (1 - alpha) x0 + min_w
    bpoly = UPoly([x.x0 + minw, -x.x0])
    if not grad.nonneg_on(0, 1):
        return margin(Fraction(0), False)
    samples = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    ratios = [grad(a) / bpoly(a) for a in samples if bpoly(a) > 0]
    if not ratios:
        return margin(None, True)
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


# ---------------------------------------------------------------------------
# Finite-n conditions of the stability theorem
# ---------------------------------------------------------------------------

class FiniteStrictnessReport:
    __slots__ = ("n", "c1", "c2", "clone_deficits")

    def __init__(self, n: int, c1: Fraction, c2: Optional[Fraction],
                 clone_deficits: tuple[Fraction, ...]):
        self.n = n
        self.c1 = c1                          # best constant in lam(G)-lam(G+xy) >= c/n^2
        self.c2 = c2                          # best constant in edits <= n*deficit/c
        self.clone_deficits = clone_deficits  # deficits at exact clone attachments

    @property
    def c(self) -> Fraction:
        if self.c2 is None:
            return self.c1
        return min(self.c1, self.c2)


def finite_strictness_check(spec: ObjectiveSpec, x: PartiteVector, n: int) -> FiniteStrictnessReport:
    """Evaluate both finite-n strictness conditions on the realisation of x."""
    structure = realise(n, x)
    lam = lambda_of_shape(spec, structure.shape())
    k = spec.k

    # pair condition over part-index orbits
    sizes = structure.group_sizes()
    scale = Fraction(n * n * comb(n - 2, k - 2), comb(n, k))

    def flip(i1: int, i2: int) -> Optional[Fraction]:
        if i1 == i2 and sizes[i1] < 2:
            return None
        return finite_flip_delta(spec, structure, i1, i2) * scale

    c1 = min(v for v in _pair_orbits(sizes, flip).values() if v is not None)

    # attachment condition over all complete-or-empty patterns and clique cuts
    v0_size = sizes.get(0, 0)
    c2: Optional[Fraction] = None
    clone_deficits: list[Fraction] = []
    for b in _pattern_orbits({i: s for i, s in sizes.items() if i}):
        min_w = min(_clone_edit_mass(sizes, b).values())
        for j in range(v0_size + 1):
            deficit = lam - finite_attach_lambda_vertex(spec, structure, b, j)
            edits = v0_size - j + min_w
            if edits == 0:
                clone_deficits.append(deficit)
                continue
            val = Fraction(n) * deficit / edits
            if c2 is None or val < c2:
                c2 = val
    return FiniteStrictnessReport(n, c1, c2, tuple(clone_deficits))
