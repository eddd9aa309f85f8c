"""Test-only references and fixtures: independent float and graph routes that
the program itself does not need, and the negative strictness fixture."""

from fractions import Fraction

from inducibility.graphs import Graph, PartiteStructure
from inducibility.objectives import ObjectiveSpec, partitions_of
from inducibility.partite import PartiteVector, lambda_free


def complement(g: Graph) -> Graph:
    mask = (1 << g.n) - 1
    return Graph(g.n, tuple((mask ^ r) & ~(1 << i) for i, r in enumerate(g.rows)))


def flip(g: Graph, x: int, y: int) -> Graph:
    """g with the adjacency of the pair {x, y} toggled; an involution."""
    if x == y:
        raise ValueError("flip needs two distinct vertices")
    rows = list(g.rows)
    rows[x] ^= 1 << y
    rows[y] ^= 1 << x
    return Graph(g.n, tuple(rows))


def attach(g: Graph, structure: PartiteStructure, b: dict[int, int],
           alpha: Fraction) -> Graph:
    """G +_{b,alpha} u: a new last vertex joined to part i when b(i)=1 and to
    the floor(alpha*|V0|) lowest-indexed clique vertices."""
    if g != structure.graph():
        raise ValueError("partition inconsistent with graph")
    if not 0 <= alpha <= 1:
        raise ValueError("alpha outside [0,1]")
    mask = 0
    for i, bit in b.items():
        if not 1 <= i <= len(structure.parts):
            raise ValueError(f"pattern index {i} outside structure")
        if bit:
            for v in structure.parts[i - 1]:
                mask |= 1 << v
    v0_sorted = sorted(structure.v0)
    take = int(alpha * len(v0_sorted))  # floor
    for v in v0_sorted[:take]:
        mask |= 1 << v
    return g.add_vertex(mask)


def partial_derivative_fd(spec: ObjectiveSpec, x: PartiteVector, i: int,
                          step: float = 1e-6) -> float:
    """Central finite difference of the free form of lambda in float."""
    weights = [float(x.x0)] + [float(p) for p in x.parts]

    def at(delta: float) -> float:
        w = list(weights)
        w[i] += delta
        return lambda_free(spec, w[0], w[1:])

    return (at(step) - at(-step)) / (2 * step)


def counterexample_spec() -> ObjectiveSpec:
    """Sum of all complete partite densities at k=3: maximised by everything,
    so strictness fails with c = 0 on candidates that include clique mass."""
    return ObjectiveSpec.combination([(1, a) for a in partitions_of(3)],
                                     label="SUM all complete partite, k=3")


def counterexample_candidates() -> list[PartiteVector]:
    return [PartiteVector(), PartiteVector([Fraction(1)]),
            PartiteVector([Fraction(1, 2), Fraction(1, 2)])]
