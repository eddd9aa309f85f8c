"""Derivative calculus on the partite limit space.

Flip gradients (expected loss of gamma from toggling one pair of a sample),
attachment values (expected gamma seen by a new vertex joined by a 0/1 part
pattern b and a clique fraction alpha), vertex gradients, exact partial
derivatives via the clone identity, Lagrange residuals, and exact finite-n
counterparts on realisations computed by part-profile enumeration (no subset
enumeration, so they stay cheap at n in the hundreds). The limit flip
gradients, through-pair densities and attachment values are integrands over
the draw kernel partite.draw_sum.

The free form of lambda is the homogeneous degree-k polynomial in
(x0, x1, ...) given by the sampling formula; partial derivatives are plain
partials of that form, under which (1/k) d(lambda)/dx_i = lambda(x, (e_i, 1))
holds exactly for every i in supp* (clique index included).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb
from typing import Mapping, Optional, Sequence

from .graphs import Graph, PartiteStructure
from .objectives import ObjectiveSpec, lambda_graph
from .partite import PartiteVector, RealisedPartite, draw_sum, lambda_of_vector
from .polynomials import Rat, UPoly, _frac


# ---------------------------------------------------------------------------
# Attachment patterns
# ---------------------------------------------------------------------------

class AttachmentPattern:
    """(b, alpha): b maps part indices to {0,1}, alpha is the clique fraction.

    alpha is forced to 1 when the vector has no clique mass.
    """

    __slots__ = ("b", "alpha")

    def __init__(self, b: Mapping[int, int], alpha: Rat = Fraction(1)):
        self.b = {int(i): int(v) for i, v in b.items()}
        if any(v not in (0, 1) for v in self.b.values()):
            raise ValueError("b must be 0/1 valued")
        if any(i < 1 for i in self.b):
            raise ValueError("b is indexed by part indices >= 1")
        self.alpha = _frac(alpha)
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha outside [0,1]")

    def bit(self, i: int) -> int:
        return self.b.get(i, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(i for i, v in self.b.items() if v))

    def __repr__(self) -> str:
        return f"AttachmentPattern(b={self.b}, alpha={self.alpha})"


def pattern_e(i: int, x: PartiteVector) -> AttachmentPattern:
    """The clone pattern e_i: b(j) = 0 iff j = i (e_0 is all ones), alpha = 1."""
    return AttachmentPattern({j: 0 if j == i else 1 for j in x.support}, Fraction(1))


def _check_pattern(x: PartiteVector, p: AttachmentPattern) -> None:
    if any(i > len(x.parts) for i in p.b):
        raise ValueError("pattern index outside the vector support")
    if x.x0 == 0 and p.alpha != 1:
        raise ValueError("alpha must be 1 when the clique mass is zero")


# ---------------------------------------------------------------------------
# Pattern codes (upper-triangle adjacency of sampled patterns)
# ---------------------------------------------------------------------------

def _pair_codes(types: Sequence[int]) -> tuple[int, int]:
    """Adjacency code of the sample pattern and of the pattern with pair {0,1}
    toggled; a sample i is joined to j iff types differ or both are 0."""
    k = len(types)
    code = 0
    bit = 0
    for a in range(k):
        ta = types[a]
        for b in range(a + 1, k):
            tb = types[b]
            if ta != tb or ta == 0:
                code |= 1 << bit
            bit += 1
    return code, code ^ 1  # pair (0,1) is the first upper-triangle bit


def _attach_code(types: Sequence[int], u_adj: Sequence[bool]) -> int:
    """Pattern code with an extra last vertex u adjacent per u_adj."""
    k1 = len(types)
    code = 0
    bit = 0
    n = k1 + 1
    for a in range(n):
        for b in range(a + 1, n):
            if b < k1:
                if types[a] != types[b] or types[a] == 0:
                    code |= 1 << bit
            elif a < k1:
                if u_adj[a]:
                    code |= 1 << bit
            bit += 1
    return code


# ---------------------------------------------------------------------------
# Limit gradients
# ---------------------------------------------------------------------------

def _draw_types(counts: Mapping[int, int]) -> list[int]:
    """The draw indices of a multiset in ascending order (clique draws first)."""
    types: list[int] = []
    for i, c in counts.items():
        types += [i] * c
    return types


def flip_gradient(spec: ObjectiveSpec, x: PartiteVector, i1: int, i2: int) -> Fraction:
    """Expected gamma loss from toggling the pair of two conditioned draws.

    Conditions the k-sample on the first two draws having types i1, i2 and
    averages gamma(pattern) - gamma(pattern with pair {1,2} flipped).
    """
    return flip_gradient_generic(spec, x.draw_weights(), i1, i2)


def flip_gradient_generic(spec: ObjectiveSpec, entries: Mapping[int, object],
                          i1: int, i2: int):
    """Generic-ring flip gradient; entries maps supp* indices to weights."""
    if i1 not in entries or i2 not in entries:
        raise ValueError("flip indices must lie in supp*")
    table = spec.code_table()

    def loss(counts):
        code, fcode = _pair_codes([i1, i2] + _draw_types(counts))
        return table[code] - table[fcode]

    return draw_sum(spec.k - 2, entries, loss)


def pair_density(spec: ObjectiveSpec, x: PartiteVector, i1: int, i2: int) -> Fraction:
    """Expected gamma of a sample conditioned on the first two draws' types.

    Equals the flip gradient exactly when the flipped pattern never counts.
    """
    if i1 not in x.supp_star or i2 not in x.supp_star:
        raise ValueError("indices must lie in supp*")
    table = spec.code_table()
    return draw_sum(spec.k - 2, x.draw_weights(),
                    lambda counts: table[_pair_codes([i1, i2] + _draw_types(counts))[0]])


@dataclass(frozen=True)
class AttachValue:
    value: Fraction        # at the pattern's alpha
    poly: UPoly            # the value as a polynomial in alpha

    def at(self, alpha: Rat) -> Fraction:
        return self.poly(_frac(alpha))


@lru_cache(maxsize=None)
def _clique_split(zeros: int, j: int) -> UPoly:
    """C(zeros, j) alpha^j (1 - alpha)^(zeros - j): exactly j of the clique
    draws are joined to the attached vertex."""
    return comb(zeros, j) * UPoly.x() ** j * UPoly([1, -1]) ** (zeros - j)


def _attach_term(table, b: Mapping[int, int], counts: Mapping[int, int]):
    """gamma seen by a vertex attached to a (k-1)-draw with these counts.

    The vertex joins nonzero draws i with b(i) = 1 and each clique draw
    independently with probability alpha, so the value is a polynomial in
    alpha; it is a scalar when no clique draw occurs.
    """
    types = _draw_types(counts)
    zeros = counts.get(0, 0)
    adj = [bool(b.get(i, 0)) for i in types]
    if not zeros:
        return table[_attach_code(types, adj)]
    total = 0
    for j in range(zeros + 1):
        adj[:zeros] = [True] * j + [False] * (zeros - j)
        gamma = table[_attach_code(types, adj)]
        if gamma:
            total = total + gamma * _clique_split(zeros, j)
    return total


def attach_value(spec: ObjectiveSpec, x: PartiteVector, p: AttachmentPattern) -> AttachValue:
    """lambda(x, (b, alpha)): expected gamma seen by the attached vertex.

    A (k-1)-sample is drawn from x; the new vertex joins nonzero draws i with
    b(i) = 1 and each clique draw independently with probability alpha. The
    alpha dependence is returned exactly as a degree <= k-1 polynomial.
    """
    _check_pattern(x, p)
    table = spec.code_table()
    # terms without clique draws are scalars, so the sum may be one too
    poly = UPoly() + draw_sum(spec.k - 1, x.draw_weights(),
                              lambda counts: _attach_term(table, p.b, counts))
    return AttachValue(poly(p.alpha), poly)


def attach_value_generic(spec: ObjectiveSpec, entries: Mapping[int, object],
                         b: Mapping[int, int]):
    """Generic-ring attachment value at alpha = 1 (no clique mass case)."""
    if 0 in entries:
        raise ValueError("generic attachment assumes no clique mass")
    table = spec.code_table()
    return draw_sum(spec.k - 1, entries, lambda counts: _attach_term(table, b, counts))


def vertex_gradient(spec: ObjectiveSpec, x: PartiteVector, p: AttachmentPattern) -> AttachValue:
    """nabla_(b,alpha) lambda(x) = lambda(x,(e_1,1)) - lambda(x,(b,alpha))."""
    ref_index = 1 if x.parts else 0
    ref = attach_value(spec, x, pattern_e(ref_index, x)).value
    att = attach_value(spec, x, p)
    poly = UPoly([ref]) - att.poly
    return AttachValue(poly(p.alpha), poly)


def partial_derivative(spec: ObjectiveSpec, x: PartiteVector, i: int) -> Fraction:
    """d(lambda)/dx_i of the free form, via k * lambda(x, (e_i, 1))."""
    if i not in x.supp_star:
        raise ValueError("index outside supp*")
    return spec.k * attach_value(spec, x, pattern_e(i, x)).value


def partial_derivative_fd(spec: ObjectiveSpec, x: PartiteVector, i: int,
                          step: float = 1e-6) -> float:
    """Central finite difference of the free form in float; sanity layer only."""
    from .partite import lambda_free

    weights = [float(x.x0)] + [float(p) for p in x.parts]

    def at(delta: float) -> float:
        w = list(weights)
        w[i] += delta
        return lambda_free(spec, w[0], w[1:])

    return (at(step) - at(-step)) / (2 * step)


def lagrange_residual(spec: ObjectiveSpec, x: PartiteVector) -> Fraction:
    """max_i |lambda(x,(e_i,1)) - lambda(x)| over supp*; 0 at interior maximisers."""
    lam = lambda_of_vector(spec, x)
    worst = Fraction(0)
    for i in x.supp_star:
        worst = max(worst, abs(attach_value(spec, x, pattern_e(i, x)).value - lam))
    return worst


# ---------------------------------------------------------------------------
# Exact finite-n counterparts on complete partite realisations
# ---------------------------------------------------------------------------

def _structure_groups(structure: PartiteStructure) -> list[tuple[int, int]]:
    """(part index, size) per independent part plus (0, |V0|)."""
    groups = [(i + 1, len(p)) for i, p in enumerate(structure.parts) if p]
    if structure.v0:
        groups.append((0, len(structure.v0)))
    return groups


def _profiles(caps: Sequence[int], total: int):
    if not caps:
        if total == 0:
            yield ()
        return
    head = caps[0]
    for c in range(min(head, total) + 1):
        for rest in _profiles(caps[1:], total - c):
            yield (c,) + rest


def finite_flip_delta(spec: ObjectiveSpec, realised: RealisedPartite,
                      i1: int, i2: int) -> Fraction:
    """(Lambda(G) - Lambda(G + xy)) / C(n-2, k-2) for a pair in parts i1, i2.

    Exact for any n via profile enumeration over the partite structure.
    """
    structure = realised.structure
    groups = _structure_groups(structure)
    sizes = {g: s for g, s in groups}
    if i1 not in sizes or i2 not in sizes:
        raise ValueError("no such part in the realisation")
    need = 2 if i1 == i2 else 1
    if sizes[i1] < need or sizes[i2] < 1:
        raise ValueError("part too small to host the pair")
    k = spec.k
    n = realised.n
    table = spec.code_table()
    avail = []
    for g, s in groups:
        s -= (g == i1) + (g == i2)
        avail.append((g, s))
    total = Fraction(0)
    for prof in _profiles([s for _, s in avail], k - 2):
        ways = 1
        types: list[int] = [i1, i2]
        for (g, s), c in zip(avail, prof):
            ways *= comb(s, c)
            types.extend([g] * c)
        if ways == 0:
            continue
        code, fcode = _pair_codes(types)
        dg = table[code] - table[fcode]
        if dg:
            total += ways * dg
    return total / comb(n - 2, k - 2)


def finite_attach_lambda_vertex(spec: ObjectiveSpec, realised: RealisedPartite,
                                b: Mapping[int, int], v0_neighbours: int) -> Fraction:
    """lambda(G +_{b,alpha} u, u) with floor(alpha|V0|) = v0_neighbours, exact.

    Profile enumeration over parts, joined clique vertices and unjoined clique
    vertices; works for any n.
    """
    structure = realised.structure
    if not 0 <= v0_neighbours <= len(structure.v0):
        raise ValueError("clique neighbour count out of range")
    k = spec.k
    n = realised.n
    table = spec.code_table()
    groups: list[tuple[int, int, bool]] = []  # (type, size, joined to u)
    for i, p in enumerate(structure.parts):
        if p:
            groups.append((i + 1, len(p), bool(b.get(i + 1, 0))))
    if v0_neighbours:
        groups.append((0, v0_neighbours, True))
    if len(structure.v0) - v0_neighbours:
        groups.append((0, len(structure.v0) - v0_neighbours, False))
    total = Fraction(0)
    for prof in _profiles([s for _, s, _ in groups], k - 1):
        ways = 1
        types: list[int] = []
        adj: list[bool] = []
        for (g, s, joined), c in zip(groups, prof):
            ways *= comb(s, c)
            types.extend([g] * c)
            adj.extend([joined] * c)
        if ways == 0:
            continue
        gamma = table[_attach_code(types, adj)]
        if gamma:
            total += ways * gamma
    return total / comb(n, k - 1)


# ---------------------------------------------------------------------------
# Comparison diagnostics (imperfection accounting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticBounds:
    xi0: Fraction
    xi1: Fraction
    xi2: Fraction
    wrong_pairs: int
    max_degree: int


@dataclass(frozen=True)
class CompareReport:
    bounds: DiagnosticBounds
    lam_diff: Fraction                 # lambda(H') - lambda(H)
    is_star: bool
    hyp_all_ge_c: bool
    hyp_all_le_c: bool
    concl_general: Optional[bool]      # diff >= xi0/2 - xi1 - xi2 (when hyp ge)
    concl_star: Optional[bool]         # diff >= xi0/2 - xi2 (when hyp ge and star)
    concl_upper: Optional[bool]        # diff <= xi0 + xi1 + xi2 (when hyp le)

    @property
    def all_applicable_hold(self) -> bool:
        return all(v for v in (self.concl_general, self.concl_star, self.concl_upper)
                   if v is not None)


def compare_bounds(spec: ObjectiveSpec, h: Graph, h_prime: RealisedPartite,
                   c: Rat) -> CompareReport:
    """Evaluate the imperfection-comparison bounds on a concrete instance.

    T is the edge symmetric difference between H and the complete partite H';
    the xi quantities are the stated functions of |T|, its max degree, c and
    gamma_max, and the report records which hypotheses and conclusions hold.
    Diagnostic only; never feeds certification.
    """
    c = _frac(c)
    hp = h_prime.graph
    if h.n != hp.n:
        raise ValueError("orders differ")
    n = h.n
    k = spec.k
    wrong = [(u, v) for u, v in
             ((u, v) for u in range(n) for v in range(u + 1, n))
             if h.has_edge(u, v) != hp.has_edge(u, v)]
    t = len(wrong)
    deg: dict[int, int] = {}
    for u, v in wrong:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    max_deg = max(deg.values(), default=0)
    gm = spec.gamma_max
    bounds = DiagnosticBounds(
        xi0=Fraction(k**2 * t) * c / n**2,
        xi1=2 * gm * Fraction(k**4 * t**2) / n**4,
        xi2=2 * gm * Fraction(k**3 * t * max_deg) / n**3,
        wrong_pairs=t,
        max_degree=max_deg,
    )
    lam_diff = lambda_graph(spec, hp) - lambda_graph(spec, h)
    structure = h_prime.structure
    grads = {}
    hyp_ge = True
    hyp_le = True
    for u, v in wrong:
        pu, pv = structure.part_of(u), structure.part_of(v)
        key = (min(pu, pv), max(pu, pv))
        if key not in grads:
            grads[key] = flip_gradient(spec, h_prime.vector, *key)
        if grads[key] < c:
            hyp_ge = False
        if grads[key] > c:
            hyp_le = False
    is_star = t <= 1 or max_deg == t
    concl_general = (lam_diff >= bounds.xi0 / 2 - bounds.xi1 - bounds.xi2) if hyp_ge else None
    concl_star = (lam_diff >= bounds.xi0 / 2 - bounds.xi2) if (hyp_ge and is_star) else None
    concl_upper = (lam_diff <= bounds.xi0 + bounds.xi1 + bounds.xi2) if hyp_le else None
    return CompareReport(bounds, lam_diff, is_star, hyp_ge, hyp_le,
                         concl_general, concl_star, concl_upper)
