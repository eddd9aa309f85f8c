"""Zykov symmetrisation driven by exact objective comparisons.

Full-graph symmetrisation maintains a partition into twin classes and, while
some cross-class pair is non-adjacent, performs whichever of the two clonings
(x over y / y over x) has the larger objective; single-vertex symmetrisation
resolves one vertex's attachment part by part, editing exactly one pair per
step. For eligible objectives (non-negative coefficients off cliques) the
objective never decreases; for general objectives a step with no monotone
clone aborts with a diagnostic instead of silently decreasing.

A clone replaces one vertex, so each candidate clone's objective is read
from the k-subsets through the vertex it replaces; only the entry objective
walks the whole graph.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Optional

from .graphs import (CompletePartiteShape, Graph, complete_partite_parts,
                     complete_partite_shape_of, subset_codes)
from .objectives import ObjectiveSpec, lambda_graph


class SymmetrisationError(Exception):
    pass


class SymStep:
    __slots__ = ("source", "target", "lam_before", "lam_after", "pairs_edited")

    def __init__(self, source: int, target: int, lam_before: Fraction, lam_after: Fraction,
                 pairs_edited: int):
        self.source = source  # cloned-from vertex
        self.target = target  # cloned-to vertex
        self.lam_before = lam_before
        self.lam_after = lam_after
        self.pairs_edited = pairs_edited


class SymmetrisationTrace:
    __slots__ = ("steps", "final_graph", "final_shape")

    def __init__(self, steps: tuple[SymStep, ...], final_graph: Graph,
                 final_shape: Optional[CompletePartiteShape]):
        self.steps = steps
        self.final_graph = final_graph
        self.final_shape = final_shape

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


def _vertex_total(spec: ObjectiveSpec, g: Graph, v: int) -> int:
    """Lambda(g, v) * scale: gamma * scale summed over the k-subsets through v."""
    table = spec.code_table()
    return sum(table[code] for code in subset_codes(g, spec.k, through=v))


def _clone_step(spec: ObjectiveSpec, g: Graph, lam: Fraction, x: int, y: int,
                prefer_xy: bool) -> tuple[SymStep, Graph]:
    """Clone x over y or y over x, whichever gives the larger lambda
    (prefer_xy breaks a tie); a decrease from lam is refused.

    G_xy - y = G - y, so Lambda(G_xy) - Lambda(G) = Lambda(G_xy, y) - Lambda(G, y):
    each candidate's change is read from two vertex walks, not a whole-graph walk.
    """
    g_xy, g_yx = _clone(g, x, y), _clone(g, y, x)
    d_xy = _vertex_total(spec, g_xy, y) - _vertex_total(spec, g, y)
    d_yx = _vertex_total(spec, g_yx, x) - _vertex_total(spec, g, x)
    if d_xy > d_yx or (d_xy == d_yx and prefer_xy):
        new_g, delta, src, dst = g_xy, d_xy, x, y
    else:
        new_g, delta, src, dst = g_yx, d_yx, y, x
    if delta < 0:
        if spec.eligible:
            raise AssertionError("monotone clone missing for an eligible objective")
        raise SymmetrisationError("no monotone clone available")
    new_lam = lam + Fraction(delta, spec.scale * comb(g.n, spec.k))
    edited = (g.rows[dst] ^ new_g.rows[dst]).bit_count()
    return SymStep(src, dst, lam, new_lam, edited), new_g


def _check_step_bound(spec: ObjectiveSpec, g: Graph, steps: list[SymStep]) -> None:
    """Refuse a step beyond C(n,2): a monotone sequence that long is cycling
    through tied clones."""
    if len(steps) >= g.n * (g.n - 1) // 2:
        if spec.eligible:
            raise RuntimeError("symmetrisation exceeded the C(n,2) step bound")
        raise SymmetrisationError("no terminating monotone clone sequence found")


def symmetrise_full(spec: ObjectiveSpec, g: Graph) -> SymmetrisationTrace:
    """Drive g to a complete partite graph by repeated cloning.

    Only the entry lambda walks the whole graph, so the subset-walk limit
    (``graphs.WALK_MAX``) refuses a graph before any step; at most C(n, 2)
    steps are taken.
    """
    if g.n < spec.k:
        raise ValueError("graph smaller than objective arity")
    classes: list[list[int]] = [[v] for v in range(g.n)]
    lam = lambda_graph(spec, g)
    steps: list[SymStep] = []

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
        _check_step_bound(spec, g, steps)
        sa, sb = len(classes[ai]), len(classes[bi])
        step, g = _clone_step(spec, g, lam, x, y, sa > sb or (sa == sb and ai < bi))
        steps.append(step)
        lam = step.lam_after
        from_i, to_i = (bi, ai) if step.target == y else (ai, bi)
        classes[from_i].remove(step.target)
        classes[to_i].append(step.target)
        classes = [c for c in classes if c]

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
    pair {target, z}. The final shape is None unless the final graph is
    complete partite (z ends up a clone of one part, or joined to all).
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
            _check_step_bound(spec, g, steps)
            x, y = min(prime), min(dprime)
            # x and y are twins in g - z, so a clone toggles only the pair with z
            step, g = _clone_step(spec, g, lam, x, y, len(prime) >= len(dprime))
            steps.append(step)
            lam = step.lam_after

    for part in parts:
        nbhd = [g.has_edge(v, z) for v in part]
        assert all(nbhd) or not any(nbhd)
    return SymmetrisationTrace(tuple(steps), g, complete_partite_shape_of(g))
