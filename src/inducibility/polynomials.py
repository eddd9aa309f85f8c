"""Exact rational polynomial arithmetic: univariate kernels, sparse
multivariate polynomials, bivariate resultants interpolated from Sylvester
determinants at integer points (``matrices.det``, on Python ints), and
algebraic numbers given by a defining polynomial plus an isolating interval.
One remainder sequence (``_remainders``, primitive integer terms) gives every
gcd, Sturm chain and sign at an algebraic number, the last a Tarski query.

All coefficients are ``fractions.Fraction``; nothing here touches floating
point, so every count, sign and bound is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from . import matrices

Rat = Union[int, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def parse_rational(value) -> Fraction:
    """An exact rational from outside input: an integer, or a string "p", "p/q"
    or a plain decimal; not "1e-9", as a short exponent spells huge integers."""
    exponent = isinstance(value, str) and "e" in value.lower()
    if isinstance(value, (int, str)) and not isinstance(value, bool) and not exponent:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{value!r} is not a rational string or an integer")


# ---------------------------------------------------------------------------
# Univariate polynomials (dense)
# ---------------------------------------------------------------------------

class UPoly:
    """Dense univariate polynomial over Q; ``coeffs[i]`` is the x^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def x(cls) -> "UPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, UPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UPoly(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "UPoly(" + " + ".join(terms) + ")"

    def __add__(self, other: Union["UPoly", Rat]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            other = UPoly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other: Union["UPoly", Rat]) -> "UPoly":
        if isinstance(other, (int, Fraction)):
            return UPoly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return UPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise ValueError("negative power")
        out = UPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x: Rat) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "UPoly") -> tuple["UPoly", "UPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.leading
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            f = rem[i] / lc
            q[i - d] = f
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= f * c
        return UPoly(q), UPoly(rem)

    def monic(self) -> "UPoly":
        return self * (1 / self.leading) if self.coeffs else self

    def gcd(self, other: "UPoly") -> "UPoly":
        return _remainders(self, other)[-1].monic()

    def squarefree_part(self) -> "UPoly":
        """p / gcd(p, p'): same real roots, all simple."""
        g = self.gcd(self.derivative())
        return self.divmod(g)[0].monic() if g.degree > 0 else self.monic()  # g divides p

    def shift(self, c: Rat) -> "UPoly":
        """p(x + c), by repeated synthetic division."""
        c = _frac(c)
        rem = list(self.coeffs)
        out = []
        for _ in range(len(rem)):
            # divide rem by (x - (-c)) keeping the remainder
            acc = Fraction(0)
            for i in range(len(rem) - 1, -1, -1):
                acc = rem[i] + acc * c
                rem[i] = acc
            out.append(rem[0])
            rem = rem[1:]
        return UPoly(out)

    # -- Sturm machinery ----------------------------------------------------

    def sturm_chain(self) -> list["UPoly"]:
        """Sturm sequence of the squarefree part: p, p', then negated remainders."""
        f = self.squarefree_part()
        return _remainders(f, f.derivative())

    def count_roots(self, lo: Rat, hi: Rat) -> int:
        """Number of distinct real roots in the half-open interval (lo, hi].

        Sign variations of the Sturm chain, zeros dropped, are continuous
        from the right at a root, so a root at lo is left out and one at hi
        is counted.
        """
        lo, hi = _frac(lo), _frac(hi)
        if self.is_zero():
            raise ValueError("root counting for the zero polynomial")
        if lo >= hi:
            return 0
        return _chain_count(self.sturm_chain(), lo, hi)

    def count_roots_open(self, lo: Rat, hi: Rat) -> int:
        """Distinct real roots in the open interval (lo, hi)."""
        n = self.count_roots(lo, hi)
        if n and self(_frac(hi)) == 0:
            n -= 1
        return n

    def isolate_roots(self, lo: Rat, hi: Rat) -> list[tuple[Fraction, Fraction]]:
        """Disjoint rational intervals, one per distinct root in the open (lo, hi).

        Each returned (a, b) either has a == b (an exact rational root) or
        satisfies a < root < b with f(a), f(b) nonzero of opposite sign and no
        other root in [a, b].
        """
        lo, hi = _frac(lo), _frac(hi)
        if self.is_zero():
            raise ValueError("root isolation for the zero polynomial")
        chain = self.sturm_chain()
        f = chain[0]
        out: list[tuple[Fraction, Fraction]] = []

        def rec(a: Fraction, b: Fraction) -> None:
            n = _chain_count(chain, a, b) - (f(b) == 0)
            if n == 0:
                return
            m = (a + b) / 2
            if f(m) == 0:
                out.append((m, m))
                rec(a, m)
                rec(m, b)
                return
            if n == 1 and f(a) != 0 and f(b) != 0:
                out.append((a, b))
                return
            rec(a, m)
            rec(m, b)

        rec(lo, hi)
        out.sort()
        return out

    def refine_root(self, a: Rat, b: Rat, width: Fraction) -> tuple[Fraction, Fraction]:
        """Bisect an isolating interval (one sign change) down to the given width."""
        a, b = _frac(a), _frac(b)
        if a == b:
            return a, b
        f = self.squarefree_part()
        fa = f(a)
        if fa == 0 or f(b) == 0:
            raise ValueError("refine_root needs non-root endpoints")
        while b - a > width:
            m = (a + b) / 2
            fm = f(m)
            if fm == 0:
                return m, m
            if (fa > 0) != (fm > 0):
                b = m
            else:
                a, fa = m, fm
        return a, b

    def nonneg_on(self, lo: Rat, hi: Rat) -> bool:
        """Exact check that p(x) >= 0 everywhere on [lo, hi].

        Touching roots are fine: the sign is sampled once per open interval
        between consecutive real roots of the squarefree part.
        """
        lo, hi = _frac(lo), _frac(hi)
        if self.is_zero():
            return True
        if self(lo) < 0 or self(hi) < 0:
            return False
        cuts = [lo, *(end for box in self.isolate_roots(lo, hi) for end in box), hi]
        return all(self((left + right) / 2) >= 0
                   for left, right in zip(cuts, cuts[1:]) if right > left)


def _remainders(f: UPoly, g: UPoly) -> list[UPoly]:
    """The signed remainder sequence f, g, -rem(f, g), ... up to its last
    nonzero term, each term times the positive rational that makes its
    coefficients coprime ints: every sign is kept and the ints stay small.
    On int lists, rem(a, b) is taken times |lc b|^e: a pseudo-remainder."""
    seq = []
    for p in (f, g):
        den = lcm(*(c.denominator for c in p.coeffs))
        num = gcd(*(c.numerator for c in p.coeffs)) or 1
        seq.append([c.numerator * (den // c.denominator) // num for c in p.coeffs])
    while seq[-1]:
        r, b = seq[-2], seq[-1]
        while len(r) >= len(b):  # |lc b| r less the multiple of b that cancels r's lead
            q, k = (r[-1] if b[-1] > 0 else -r[-1]), len(r) - len(b)
            r = [c * abs(b[-1]) - (q * b[i - k] if i >= k else 0) for i, c in enumerate(r)]
            while r and not r[-1]:
                r.pop()
        num = gcd(*r) or 1
        seq.append([-c // num for c in r])
    return [UPoly(cs) for cs in seq[:-1]]


def _chain_count(chain: Sequence[UPoly], lo: Fraction, hi: Fraction) -> int:
    """Sign variations at lo less those at hi (lo < hi) of a ``_remainders``
    chain, each term read at x = n/d as the int sum of c_i n^i d^(deg - i),
    which has its sign at x: count_roots of chain[0] on (lo, hi] for a Sturm
    chain."""
    def variations(x: Fraction) -> int:
        signs = []
        for p in chain:
            acc, dk = 0, 1
            for c in reversed(p.coeffs):
                acc, dk = acc * x.numerator + c.numerator * dk, dk * x.denominator
            if acc:
                signs.append(acc > 0)
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def sturm_root_count(p: UPoly, lo: Rat, hi: Rat) -> int:
    """Distinct real roots of p in (lo, hi] by Sturm's theorem."""
    return p.count_roots(lo, hi)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse multivariate polynomial over Q.

    ``vars`` is an ordered tuple of names; ``terms`` maps exponent tuples to
    nonzero rational coefficients. Arithmetic aligns variable sets, so
    polynomials in different variables mix freely.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str] = (), terms: Mapping[tuple[int, ...], Rat] | None = None):
        self.vars = tuple(vars)
        tt: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c != 0:
                    tt[tuple(e)] = c
        self.terms = tt

    @classmethod
    def const(cls, c: Rat) -> "MPoly":
        c = _frac(c)
        return cls((), {(): c} if c != 0 else {})

    @classmethod
    def var(cls, name: str) -> "MPoly":
        return cls((name,), {(1,): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self) -> int:
        a = self._pruned()
        return hash((a.vars, tuple(sorted(a.terms.items()))))

    def _pruned(self) -> "MPoly":
        """Drop variables that no term uses (canonical for comparisons)."""
        if not self.vars:
            return self
        used = [any(e[i] for e in self.terms) for i in range(len(self.vars))]
        if all(used):
            return self
        keep = [i for i, u in enumerate(used) if u]
        vs = tuple(self.vars[i] for i in keep)
        return MPoly(vs, {tuple(e[i] for i in keep): c for e, c in self.terms.items()})

    def _aligned(self, other: "MPoly") -> tuple["MPoly", "MPoly", tuple[str, ...]]:
        if self.vars == other.vars:
            return self, other, self.vars
        vs = tuple(dict.fromkeys(self.vars + other.vars))
        return self._embed(vs), other._embed(vs), vs

    def _embed(self, vs: tuple[str, ...]) -> "MPoly":
        if vs == self.vars:
            return self
        idx = [vs.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            ee = [0] * len(vs)
            for i, p in zip(idx, e):
                ee[i] = p
            terms[tuple(ee)] = c
        return MPoly(vs, terms)

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        a, b, vs = self._aligned(other)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return MPoly(vs, terms)

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MPoly":
        return self + (-other if isinstance(other, MPoly) else MPoly.const(-_frac(other)))

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return MPoly()
            return MPoly(self.vars, {e: cc * c for e, cc in self.terms.items()})
        a, b, vs = self._aligned(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return MPoly(vs, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MPoly":
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{p}" for v, p in zip(self.vars, e) if p)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(bits) + ")"

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((e[i] for e in self.terms), default=0)

    def coeffs_in(self, var: str) -> dict[int, "MPoly"]:
        """View as a univariate polynomial in ``var``: power -> coefficient."""
        if var not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        out: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for e, c in self.terms.items():
            p = e[i]
            ee = e[:i] + e[i + 1:]
            out.setdefault(p, {})[ee] = c
        return {p: MPoly(rest, t) for p, t in out.items()}

    def partial(self, var: str) -> "MPoly":
        if var not in self.vars:
            return MPoly()
        i = self.vars.index(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ee = list(e)
            ee[i] -= 1
            terms[tuple(ee)] = terms.get(tuple(ee), Fraction(0)) + c * e[i]
        return MPoly(self.vars, terms)

    def substitute(self, var: str, value) -> "MPoly":
        """Substitute a Fraction or an MPoly for ``var``."""
        if var not in self.vars:
            return self
        if isinstance(value, (int, Fraction)):
            value = MPoly.const(value)
        out = MPoly()
        for p, coeff in self.coeffs_in(var).items():
            out = out + coeff * value**p
        return out

    def evaluate(self, point: Mapping[str, Rat]) -> Fraction:
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for v, p in zip(self.vars, e):
                if p:
                    t *= _frac(point[v]) ** p
            acc += t
        return acc

    def to_upoly(self, var: str | None = None) -> UPoly:
        p = self._pruned()
        if not p.vars:
            return UPoly([p.terms.get((), Fraction(0))])
        if len(p.vars) != 1:
            raise ValueError(f"not univariate: vars {p.vars}")
        if var is not None and p.vars[0] != var:
            raise ValueError(f"univariate in {p.vars[0]}, not {var}")
        deg = max(e[0] for e in p.terms)
        cs = [Fraction(0)] * (deg + 1)
        for e, c in p.terms.items():
            cs[e[0]] = c
        return UPoly(cs)

    @classmethod
    def from_upoly(cls, p: UPoly, var: str) -> "MPoly":
        return cls((var,), {(i,): c for i, c in enumerate(p.coeffs) if c != 0})

    def content(self) -> Fraction:
        num = gcd(*(c.numerator for c in self.terms.values()))
        den = lcm(*(c.denominator for c in self.terms.values()))
        return Fraction(num, den) if num else Fraction(1)

    def normalized(self) -> "MPoly":
        """Divide out rational content and make the lex-leading coefficient positive."""
        if self.is_zero():
            return self
        c = self.content()
        p = self * (1 / c)
        if p.terms[max(p.terms)] < 0:
            p = -p
        return p


# ---------------------------------------------------------------------------
# Resultants by evaluation and interpolation
# ---------------------------------------------------------------------------

def resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Sylvester resultant of p and q in ``var``, for p and q in ``var`` and
    at most one other variable w (Collins, J. ACM 1971): Res is a polynomial
    of degree at most D = deg_var(p) deg_w(q) + deg_var(q) deg_w(p) in w,
    Newton-interpolated from its values at w = 0..D, each the determinant of
    the formal-degree Sylvester matrix there (exact where a leading
    coefficient vanishes too). The output is content-normalised with positive
    lex-leading coefficient. Both inputs must actually involve ``var``."""
    dp, dq = p.degree_in(var), q.degree_in(var)
    if dp == 0 or dq == 0:
        raise ValueError("resultant: an input does not involve the variable")
    others = set(p._pruned().vars + q._pruned().vars) - {var}
    if len(others) > 1:
        raise ValueError(f"resultant: more than one variable besides {var}: {sorted(others)}")
    w = others.pop() if others else None
    pc, qc = p.coeffs_in(var), q.coeffs_in(var)
    top = dp * q.degree_in(w) + dq * p.degree_in(w)
    values = []
    for node in range(top + 1):  # coefficients in var at w = node, descending
        pv = [pc[i].evaluate({w: node}) if i in pc else 0 for i in range(dp, -1, -1)]
        qv = [qc[i].evaluate({w: node}) if i in qc else 0 for i in range(dq, -1, -1)]
        values.append(matrices.det([[0] * i + pv + [0] * (dq - 1 - i) for i in range(dq)]
                                   + [[0] * i + qv + [0] * (dp - 1 - i) for i in range(dp)]))
    for k in range(1, top + 1):  # divided differences at the nodes 0..top
        for i in range(top, k - 1, -1):
            values[i] = (values[i] - values[i - 1]) / k
    res = UPoly([values[top]])
    for k in range(top - 1, -1, -1):  # from the Newton form
        res = res * UPoly([-k, 1]) + values[k]
    return (MPoly.from_upoly(res, w) if w else MPoly.const(res(0))).normalized()


# ---------------------------------------------------------------------------
# Algebraic numbers
# ---------------------------------------------------------------------------

class AlgebraicNumber:
    """A real algebraic number: squarefree defining polynomial + isolating interval.

    The defining polynomial need not be irreducible; the interval pins the
    root uniquely (lo == hi encodes an exact rational).
    """

    __slots__ = ("poly", "lo", "hi")

    def __init__(self, poly: UPoly, lo: Rat, hi: Rat):
        self.poly = poly.squarefree_part()
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise ValueError("empty isolating interval")
        if lo < hi:
            # normalise so endpoints are non-roots (or collapse to a rational)
            cands = self.poly.isolate_roots(lo, hi)
            if self.poly(hi) == 0:
                cands.append((hi, hi))
            if len(cands) != 1:
                raise ValueError("interval does not isolate a single root")
            lo, hi = cands[0]
        elif self.poly(lo) != 0:
            raise ValueError("degenerate interval is not a root")
        self.lo = lo
        self.hi = hi

    @classmethod
    def from_rational(cls, r: Rat) -> "AlgebraicNumber":
        r = _frac(r)
        return cls(UPoly([-r, 1]), r, r)

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not an exact rational")
        return self.lo

    def interval(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def sign_of(self, g: UPoly) -> int:
        """Exact sign of g evaluated at this number; at an irrational one a
        Tarski query: the chain of p = self.poly and p'g counts sum sign g over
        the roots of p in (lo, hi), where p has one and neither end is one."""
        if self.is_rational:
            v = g(self.lo)
            return (v > 0) - (v < 0)
        p = self.poly
        return _chain_count(_remainders(p, p.derivative() * g), self.lo, self.hi)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"AlgebraicNumber({self.lo})"
        return f"AlgebraicNumber({self.poly!r} in [{self.lo}, {self.hi}])"


def simplest_fraction_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi] (Stern-Brocot descent)."""
    if lo > hi:
        raise ValueError("empty interval")
    if lo == hi:
        return lo

    def rec(a: Fraction, b: Fraction) -> Fraction:
        # 0 < a < b
        floor_a = a.numerator // a.denominator
        if Fraction(floor_a) == a:
            return a
        c = Fraction(floor_a + 1)
        if c <= b:
            return c
        return floor_a + 1 / rec(1 / (b - floor_a), 1 / (a - floor_a))

    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -rec(-hi, -lo)
    return rec(lo, hi)
