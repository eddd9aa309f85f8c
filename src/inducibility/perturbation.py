"""Derivative calculus on the partite limit space.

Flip gradients (expected loss of gamma from toggling one pair of a sample),
attachment values (expected gamma seen by a new vertex joined by a 0/1 part
pattern b and a clique fraction alpha), vertex gradients, clone values and
Lagrange residuals. The flip gradients, through-pair densities and
attachment values are integrands over the draw kernel partite.draw_sum.
One encoder, _pattern_code, gives every pattern code. Every integrand reads
gamma * scale from the spec's integer code table; at a limit point the draws
weigh the integer weights D x_i (PartiteVector.integer_weights), so a flip
gradient or pair density is an integer sum until it is divided by scale and
by D^(k-2). An attachment value draws the clique as two groups, the vertices
joined to the attached vertex (_JOINED) and the others (0), and splits its
draw sum by their counts (j, u); each split sum is an int at a rational
point, and the polynomial in alpha is formed from them once.

The free form of lambda is the homogeneous degree-k polynomial in
(x0, x1, ...) given by the sampling formula; partial derivatives are plain
partials of that form, under which (1/k) d(lambda)/dx_i = lambda(x, (e_i, 1))
holds exactly for every i in supp* (clique index included). Every clone
value comes from one call of partite.lambda_gradient, which differentiates
the closed form, and the Lagrange residual reads lambda from the clone values
(clone_residual).
"""

from __future__ import annotations

from functools import lru_cache, partial
from fractions import Fraction
from math import comb
from typing import Mapping

from .objectives import ObjectiveSpec
from .partite import PartiteVector, draw_sum, lambda_gradient
from .polynomials import Rat, UPoly, _frac


# ---------------------------------------------------------------------------
# Attachment patterns
# ---------------------------------------------------------------------------

class AttachmentPattern:
    """(b, alpha): b maps part indices to {0,1}, alpha is the clique fraction.

    Without clique mass the attachment value does not depend on alpha.
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

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(i for i, v in self.b.items() if v))

    def __repr__(self) -> str:
        return f"AttachmentPattern(b={self.b}, alpha={self.alpha})"


# ---------------------------------------------------------------------------
# Pattern codes (upper-triangle adjacency of sampled patterns)
# ---------------------------------------------------------------------------

_JOINED = -1  # clique draws joined to an attached vertex; they sort before key 0


@lru_cache(maxsize=1 << 16)
def _pattern_code(types: tuple[int, ...]) -> int:
    """Adjacency code of the pattern of draws with these types, in order; two
    draws are joined iff their types differ or both are clique draws (0).

    An attached vertex goes first: its row is the low len(types) bits, so a
    pattern plus an attached vertex is joined_bits | code << len(types), and
    the pair of the first two draws is bit 0. Memoised: every (joined,
    unjoined) split of a clique count, and every draw sum over the same
    support, asks for the same codes.
    """
    k = len(types)
    code = 0
    bit = 0
    for a in range(k):
        ta = types[a]
        for b in range(a + 1, k):
            if ta != types[b] or not ta:
                code |= 1 << bit
            bit += 1
    return code


# ---------------------------------------------------------------------------
# Limit gradients
# ---------------------------------------------------------------------------

def _draw_types(counts: Mapping[int, int]) -> tuple[int, ...]:
    """The draw indices of a multiset in ascending order, clique draws first
    and as 0 in both groups (_JOINED and 0)."""
    types: list[int] = []
    for i, c in counts.items():
        types += [max(i, 0)] * c
    return tuple(types)


def flip_gradient(spec: ObjectiveSpec, x: PartiteVector, i1: int, i2: int) -> Fraction:
    """Expected gamma loss from toggling the pair of two conditioned draws.

    Conditions the k-sample on the first two draws having types i1, i2 and
    averages gamma(pattern) - gamma(pattern with pair {1,2} flipped).
    """
    d, weights = x.integer_weights()
    return flip_gradient_generic(spec, weights, i1, i2) / d ** (spec.k - 2)


def flip_gradient_generic(spec: ObjectiveSpec, entries: Mapping[int, object],
                          i1: int, i2: int):
    """Generic-ring flip gradient; entries maps supp* indices to weights.
    The draw sum runs over gamma * scale and is divided by scale once."""
    if i1 not in entries or i2 not in entries:
        raise ValueError("flip indices must lie in supp*")
    loss = _flip_loss(spec.code_table(), i1, i2)
    return draw_sum(spec.k - 2, entries, loss) * Fraction(1, spec.scale)


def _flip_loss(table, i1: int, i2: int):
    """counts -> gamma loss from toggling the pair of two draws of types i1, i2
    in the pattern they form with draws of these counts."""
    def loss(counts):
        code = _pattern_code((i1, i2) + _draw_types(counts))
        return table[code] - table[code ^ 1]

    return loss


def pair_density(spec: ObjectiveSpec, x: PartiteVector, i1: int, i2: int) -> Fraction:
    """Expected gamma of a sample conditioned on the first two draws' types.

    Equals the flip gradient exactly when the flipped pattern never counts.
    """
    d, weights = x.integer_weights()
    if i1 not in weights or i2 not in weights:
        raise ValueError("indices must lie in supp*")
    table = spec.code_table()
    total = draw_sum(spec.k - 2, weights,
                     lambda counts: table[_pattern_code((i1, i2) + _draw_types(counts))])
    return Fraction(total, spec.scale * d ** (spec.k - 2))


class AttachValue:
    __slots__ = ("value", "poly")

    def __init__(self, value: Fraction, poly: UPoly):
        self.value = value  # at the pattern's alpha
        self.poly = poly    # the value as a polynomial in alpha

    def __eq__(self, other) -> bool:
        return (isinstance(other, AttachValue)
                and self.value == other.value and self.poly == other.poly)


def _attach_term(table, b: Mapping[int, int], counts: Mapping[int, int]):
    """gamma * scale seen by a vertex attached to a (k-1)-draw with these counts.

    The vertex joins the draws of the _JOINED clique group and of the parts i
    with b(i) = 1. Its row has one bit per draw in the order of counts, so
    each joined group sets a run of bits, the _JOINED draws the lowest.
    """
    types = _draw_types(counts)
    code = _pattern_code(types) << len(types)
    a = 0
    for i, c in counts.items():
        if i == _JOINED or b.get(i, 0):
            code |= (1 << c) - 1 << a
        a += c
    return table[code]


def attach_value(spec: ObjectiveSpec, x: PartiteVector, p: AttachmentPattern) -> AttachValue:
    """lambda(x, (b, alpha)): expected gamma seen by the attached vertex.

    A (k-1)-sample is drawn from x; the new vertex joins nonzero draws i with
    b(i) = 1 and each clique draw independently with probability alpha. The
    alpha dependence is returned exactly as a degree <= k-1 polynomial. The
    draws weigh the integer weights D x_i, and the polynomial is divided by
    D^(k-1).
    """
    if any(i > len(x.parts) for i in p.b):
        raise ValueError("pattern index outside the vector support")
    d, weights = x.integer_weights()
    # terms without clique draws are scalars, so the sum may be one too
    poly = (UPoly() + attach_value_generic(spec, weights, p.b)) * Fraction(1, d ** (spec.k - 1))
    return AttachValue(poly(p.alpha), poly)


def attach_value_generic(spec: ObjectiveSpec, entries: Mapping[int, object],
                         b: Mapping[int, int]):
    """Generic-ring attachment value; entries maps supp* indices to weights.

    Without a clique weight (key 0) this is the value in the weight ring.
    With one, the clique is drawn as two groups, _JOINED and 0, and the draw
    sum is split by the pair (j, u) of joined and unjoined clique draws: a
    draw with that pair occurs with chance alpha^j (1 - alpha)^u (the
    multinomial carries C(j + u, j)). At a rational point each split sum
    S_(j,u) is an int, and the result is the UPoly sum_(j,u) S_(j,u) alpha^j
    (1 - alpha)^u in alpha, formed once. The draw sum runs over gamma * scale
    and is divided by scale once.
    """
    term = partial(_attach_term, spec.code_table(), b)
    if 0 not in entries:
        return draw_sum(spec.k - 1, entries, term) * Fraction(1, spec.scale)
    sums = draw_sum(spec.k - 1, {_JOINED: entries[0], **entries}, term,
                    group=lambda counts: (counts.get(_JOINED, 0), counts.get(0, 0)))
    coeffs = [0] * spec.k
    for (j, u), total in sums.items():  # (1 - alpha)^u = sum_t C(u, t) (-alpha)^t
        for t in range(u + 1):
            coeffs[j + t] += (-1) ** t * comb(u, t) * total
    return UPoly(coeffs) * Fraction(1, spec.scale)


def vertex_gradient(spec: ObjectiveSpec, x: PartiteVector, p: AttachmentPattern) -> AttachValue:
    """nabla_(b,alpha) lambda(x) = lambda(x,(e_1,1)) - lambda(x,(b,alpha))."""
    ref = clone_values(spec, x)[1 if x.parts else 0]
    att = attach_value(spec, x, p)
    poly = UPoly([ref]) - att.poly
    return AttachValue(poly(p.alpha), poly)


def clone_values(spec: ObjectiveSpec, x: PartiteVector) -> dict[int, Fraction]:
    """lambda(x, (e_i, 1)) for every i in supp*: (1/k) d(lambda)/dx_i."""
    return {i: g / spec.k for i, g in lambda_gradient(spec, x).items()}


def lagrange_residual(spec: ObjectiveSpec, x: PartiteVector) -> Fraction:
    """max_i |lambda(x,(e_i,1)) - lambda(x)| over supp*; 0 at interior maximisers."""
    return clone_residual(x, clone_values(spec, x))


def clone_residual(x: PartiteVector, clones: Mapping[int, Fraction]) -> Fraction:
    """The Lagrange residual from the clone values of x alone: the free form
    of lambda is homogeneous of degree k, so by Euler's identity lambda(x) =
    sum_i x_i lambda(x, (e_i, 1)) over supp*, exactly."""
    lam = sum((x.entry(i) * v for i, v in clones.items()), Fraction(0))
    return max(abs(v - lam) for v in clones.values())
