"""Zykov symmetrisation driven by exact objective comparisons.

Full-graph symmetrisation maintains a partition into twin classes and, while
some cross-class pair is non-adjacent, performs whichever of the two clonings
(x over y / y over x) has the larger objective; single-vertex symmetrisation
resolves one vertex's attachment part by part, editing exactly one pair per
step. For eligible objectives (non-negative coefficients off cliques) the
objective never decreases; for general objectives a step with no monotone
clone aborts with a diagnostic instead of silently decreasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import (CompletePartiteShape, Graph, complete_partite_parts,
                     complete_partite_shape_of)
from .objectives import ObjectiveSpec, lambda_graph


class SymmetrisationError(Exception):
    pass


@dataclass(frozen=True)
class SymStep:
    source: int          # cloned-from vertex
    target: int          # cloned-to vertex
    lam_before: Fraction
    lam_after: Fraction
    pairs_edited: int


@dataclass(frozen=True)
class SymmetrisationTrace:
    steps: tuple[SymStep, ...]
    final_graph: Graph
    final_shape: Optional[CompletePartiteShape]

    @property
    def monotone(self) -> bool:
        return all(s.lam_after >= s.lam_before for s in self.steps)

    def to_json(self) -> str:
        return json.dumps({
            "steps": [{
                "source": s.source,
                "target": s.target,
                "lambda_before": str(s.lam_before),
                "lambda_after": str(s.lam_after),
                "pairs_edited": s.pairs_edited,
            } for s in self.steps],
            "final_part_sizes": self.final_shape.part_sizes if self.final_shape else None,
        })


def _clone(g: Graph, src: int, dst: int) -> Graph:
    """Replace dst by a clone of src (they must be non-adjacent)."""
    new_row = g.rows[src] & ~(1 << dst)
    rows = list(g.rows)
    for v in range(g.n):
        if v == dst:
            continue
        if new_row >> v & 1:
            rows[v] |= 1 << dst
        else:
            rows[v] &= ~(1 << dst)
    rows[dst] = new_row
    return Graph(g.n, tuple(rows))


def symmetrise_full(spec: ObjectiveSpec, g: Graph) -> SymmetrisationTrace:
    """Drive g to a complete partite graph by repeated cloning."""
    if g.n < spec.k:
        raise ValueError("graph smaller than objective arity")
    if g.n > 24:
        raise ValueError("symmetrisation limited to n <= 24")
    classes: list[list[int]] = [[v] for v in range(g.n)]
    lam = lambda_graph(spec, g)
    steps: list[SymStep] = []
    max_steps = g.n * (g.n - 1) // 2

    while True:
        pair = _find_violating_pair(g, classes)
        if pair is None:
            break
        (ai, x), (bi, y) = pair
        if g.rows[x] == g.rows[y]:
            # already twins: merge the classes, no edit and no step
            classes[ai].extend(classes[bi])
            classes.pop(bi)
            continue
        if len(steps) >= max_steps:
            if spec.eligible:
                raise RuntimeError("symmetrisation exceeded the C(n,2) step bound")
            raise SymmetrisationError("no terminating monotone clone sequence found")
        g_xy = _clone(g, x, y)   # y becomes a clone of x, joins class ai
        g_yx = _clone(g, y, x)
        lam_xy = lambda_graph(spec, g_xy)
        lam_yx = lambda_graph(spec, g_yx)
        if lam_xy > lam_yx:
            choose_xy = True
        elif lam_yx > lam_xy:
            choose_xy = False
        elif len(classes[ai]) != len(classes[bi]):
            choose_xy = len(classes[ai]) > len(classes[bi])
        else:
            choose_xy = ai < bi
        if choose_xy:
            new_g, new_lam, src, dst, from_i, to_i = g_xy, lam_xy, x, y, bi, ai
        else:
            new_g, new_lam, src, dst, from_i, to_i = g_yx, lam_yx, y, x, ai, bi
        if new_lam < lam:
            if spec.eligible:
                raise AssertionError("monotone clone missing for an eligible objective")
            raise SymmetrisationError("no monotone clone available")
        edited = (g.rows[dst] ^ new_g.rows[dst]).bit_count()
        steps.append(SymStep(src, dst, lam, new_lam, edited))
        classes[from_i].remove(dst)
        classes[to_i].append(dst)
        classes = [c for c in classes if c]
        g, lam = new_g, new_lam

    shape = complete_partite_shape_of(g)
    assert shape is not None, "symmetrisation ended on a non complete partite graph"
    return SymmetrisationTrace(tuple(steps), g, shape)


def _find_violating_pair(g: Graph, classes: list[list[int]]):
    """First cross-class non-adjacent pair, scanning classes by decreasing size."""
    order = sorted(range(len(classes)), key=lambda i: (-len(classes[i]), i))
    for a_pos, ai in enumerate(order):
        for bi in order[a_pos + 1:]:
            x = min(classes[ai])
            y = min(classes[bi])
            if not g.has_edge(x, y):  # twins: one pair decides the class pair
                return (ai, x), (bi, y)
    return None


def partite_parts_without(g: Graph, z: int) -> Optional[list[list[int]]]:
    """Parts of g - z (by g's labels) iff g - z is complete partite."""
    parts = complete_partite_parts(g, ((1 << g.n) - 1) & ~(1 << z))
    if parts is None:
        return None
    return [[v for v in range(g.n) if p >> v & 1] for p in parts]


def symmetrise_vertex(spec: ObjectiveSpec, g: Graph, z: int) -> SymmetrisationTrace:
    """Make z complete or empty to every part of the complete partite g - z.

    Within each part, vertices split by z-adjacency; each step clones across
    the split in the objective-larger direction and so toggles exactly the one
    pair {target, z}.
    """
    if not 0 <= z < g.n:
        raise ValueError("vertex out of range")
    if g.n < spec.k:
        raise ValueError("graph smaller than objective arity")
    parts = partite_parts_without(g, z)
    if parts is None:
        raise ValueError("g - z is not complete partite")
    parts.sort(key=lambda p: (-len(p), min(p)))
    lam = lambda_graph(spec, g)
    steps: list[SymStep] = []

    for part in parts:
        while True:
            prime = [v for v in part if g.has_edge(v, z)]
            dprime = [v for v in part if not g.has_edge(v, z)]
            if not prime or not dprime:
                break
            x, y = min(prime), min(dprime)
            g_xy = g.flip(y, z)   # y becomes a clone of x: gains the edge to z
            g_yx = g.flip(x, z)   # x becomes a clone of y: loses it
            lam_xy = lambda_graph(spec, g_xy)
            lam_yx = lambda_graph(spec, g_yx)
            if lam_xy > lam_yx:
                choose_xy = True
            elif lam_yx > lam_xy:
                choose_xy = False
            else:
                choose_xy = len(prime) >= len(dprime)
            if choose_xy:
                new_g, new_lam, src, dst = g_xy, lam_xy, x, y
            else:
                new_g, new_lam, src, dst = g_yx, lam_yx, y, x
            if new_lam < lam:
                if spec.eligible:
                    raise AssertionError("monotone clone missing for an eligible objective")
                raise SymmetrisationError("no monotone clone available")
            steps.append(SymStep(src, dst, lam, new_lam, 1))
            g, lam = new_g, new_lam

    for part in parts:
        nbhd = [g.has_edge(v, z) for v in part]
        assert all(nbhd) or not any(nbhd)
    shape = complete_partite_shape_of(g)
    if shape is None:
        shape = CompletePartiteShape(sizes=[len(p) for p in parts])
    return SymmetrisationTrace(tuple(steps), g, shape)
