"""End-to-end exact certificate pipelines for the four settled families of
complete partite patterns: two-part K_{s,t}, balanced K_r(t), K_{2,1,1,1} and
K_{3,1,1}.

Each pipeline is a deterministic list of named checks; a report passes iff
every check passes. Every numeric claim is verified in exact rational
arithmetic (Sturm counts, resultant divisibility, principal minors, interval
branch-and-bound with rational endpoints); floating point never decides a
check. The K_{3,1,1} pipeline loads its Gram matrices, eliminant and positive
multiplier from a checked-in data file and re-verifies all of them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from math import comb, factorial, gcd
from typing import Optional

from . import intervals, matrices, optsearch
from .objectives import ObjectiveSpec, partitions_of
from .partite import (PartiteVector, density_formula, density_polynomial,
                      elementary_symmetric, lambda_of_vector, sampling_density,
                      SymmetricIndex, _multinomial)
from .perturbation import attach_value_generic, flip_gradient_generic, pair_density
from .polynomials import MPoly, UPoly, parse_rational, resultant
from .strictness import strictness_certificate

LAMBDA_2111 = Fraction(525, 1024)
LAMBDA_311 = Fraction(216, 625)
_K311_GRAMS = ("R0", "Q1", "Q2", "Q3")


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class CertificateReport:
    """The checks of one certificate; a pipeline fills in the rest as it goes."""

    __slots__ = ("name", "checks", "lambda_max", "maximiser", "notes", "inconclusive")

    def __init__(self, name: str):
        self.name = name
        self.checks: list[CheckResult] = []
        self.lambda_max: Optional[Fraction] = None
        self.maximiser: Optional[dict] = None
        self.notes: list[str] = []
        self.inconclusive = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> bool:
        self.checks.append(CheckResult(name, bool(passed), detail))
        return bool(passed)

    def to_jsonable(self) -> dict:
        return {
            "certificate": self.name,
            "passed": self.passed,
            "inconclusive": self.inconclusive,
            "lambda_max": None if self.lambda_max is None else str(self.lambda_max),
            "maximiser": self.maximiser,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=1)


def _load_k311_data() -> dict:
    raw = resources.files("inducibility.data").joinpath("k311_certificate.json").read_text()
    return json.loads(raw)


def _read_k311_data(data) -> dict:
    """The k311 certificate data with every datum read by parse_rational;
    ValueError unless it holds the four lists and the four 6x6 Gram matrices."""
    def numbers(key: str, values) -> list[Fraction]:
        if not isinstance(values, list) or not values:
            raise ValueError(f"k311 data: {key} must be a nonempty list")
        try:
            return [parse_rational(v) for v in values]
        except ValueError as e:
            raise ValueError(f"k311 data: {key}: {e}") from e

    grams = data.get("gram_matrices") if isinstance(data, dict) else None
    if not (isinstance(grams, dict) and sorted(grams) == sorted(_K311_GRAMS)
            and all(isinstance(m, list) and len(m) == 6
                    and all(isinstance(r, list) and len(r) == 6 for r in m) for m in grams.values())):
        raise ValueError("k311 data: expected an object whose gram_matrices map "
                         f"{', '.join(_K311_GRAMS)} to 6x6 matrices")
    out = {key: numbers(key, data.get(key))
           for key in ("q_coefficients_ascending", "r1_coefficients_ascending")}
    out.update((key, numbers(key, [data.get(key)])[0]) for key in ("shift", "epsilon_lower_bound"))
    out["gram_matrices"] = {name: [numbers(name, r) for r in grams[name]] for name in _K311_GRAMS}
    return out


# ---------------------------------------------------------------------------
# Exact feasibility LP (two-phase simplex over Q) and the positive multiplier
# ---------------------------------------------------------------------------

def _lp_feasible(A: list[list[Fraction]], b: list[Fraction],
                 nvars: int) -> Optional[list[Fraction]]:
    """A point x >= 0 with A x >= b, or None; exact two-phase simplex."""
    m = len(A)
    # rows: a.x - s_i = b_i with slack s_i >= 0; ensure rhs >= 0, add artificials
    ncols = nvars + m          # structural + slack
    rows = []
    rhs = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]] + [Fraction(0)] * m
        row[nvars + i] = Fraction(-1)
        r = Fraction(b[i])
        if r < 0:
            row = [-x for x in row]
            r = -r
        rows.append(row)
        rhs.append(r)
    # phase 1: artificial basis
    basis = list(range(ncols, ncols + m))
    for i in range(m):
        rows[i] = rows[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
    total = ncols + m
    cost = [Fraction(0)] * ncols + [Fraction(1)] * m
    # objective row (reduced costs of minimising sum of artificials)
    z = [Fraction(0)] * total
    zval = Fraction(0)
    for i in range(m):
        for j in range(total):
            z[j] += rows[i][j]
        zval += rhs[i]

    def pivot(pr: int, pc: int) -> None:
        nonlocal zval
        pv = rows[pr][pc]
        rows[pr] = [x / pv for x in rows[pr]]
        rhs[pr] = rhs[pr] / pv
        for i in range(m):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [a - f * bb for a, bb in zip(rows[i], rows[pr])]
                rhs[i] -= f * rhs[pr]
        f = z[pc]
        if f != 0:
            for j in range(total):
                z[j] -= f * rows[pr][j]
            zval -= f * rhs[pr]
        basis[pr] = pc

    guard = 0
    while True:
        guard += 1
        if guard > 10000:
            return None
        pc = next((j for j in range(total) if z[j] - cost[j] > 0), None)
        if pc is None:
            break
        ratios = [(rhs[i] / rows[i][pc], basis[i], i)
                  for i in range(m) if rows[i][pc] > 0]
        if not ratios:
            return None  # unbounded phase-1 cannot happen, treat as failure
        _, _, pr = min(ratios)
        pivot(pr, pc)
    if zval != 0:
        return None
    x = [Fraction(0)] * nvars
    for i, bx in enumerate(basis):
        if bx < nvars:
            x[bx] = rhs[i]
    return x


def positive_multiplier_lp(p: UPoly, d: int) -> Optional[UPoly]:
    """Search for r1 of degree <= d such that r1 and p * r1 have only positive
    coefficients, the rule certify_k311 checks (it shows p > 0 on (0, inf)).

    The LP asks for every coefficient of r1 and of p * r1 to be >= 1; the
    scaled integer result is checked exactly. Returns the integer-coefficient
    multiplier or None (failure does not disprove positivity of p).
    """
    if p(Fraction(0)) <= 0:
        raise ValueError("need p(0) > 0")
    a = p.coeffs
    deg = p.degree
    nv = d + 1
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for k in range(nv):          # b_k >= 1
        row = [Fraction(0)] * nv
        row[k] = Fraction(1)
        A.append(row)
        b.append(Fraction(1))
    for i in range(deg + d + 1):  # product coefficients >= 1
        row = [Fraction(0)] * nv
        for k in range(nv):
            j = i - k
            if 0 <= j <= deg:
                row[k] = a[j]
        A.append(row)
        b.append(Fraction(1))
    sol = _lp_feasible(A, b, nv)
    if sol is None:
        return None
    denom = 1
    for v in sol:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    r1 = UPoly([v * denom for v in sol])
    if not all(c > 0 for c in r1.coeffs + (p * r1).coeffs):
        return None
    return r1


# ---------------------------------------------------------------------------
# K_{s,t}
# ---------------------------------------------------------------------------

def certify_kst(s: int, t: int) -> CertificateReport:
    """Certify the two-part maximiser, value and strictness of p(K_{s,t}, .)."""
    if s > t:
        s, t = t, s
    if s * t < 2 or s + t > 12:
        raise ValueError("need s*t >= 2 and s+t <= 12")
    if s < 1:  # two negative sizes have a positive product
        raise ValueError("need s, t >= 1")
    rep = CertificateReport(f"kst({s},{t})")
    k = s + t
    m = t - s
    res = optsearch.kst_maximiser(s, t)
    h = res.root_poly
    rep.add("profile_poly_root_at_1", h(Fraction(1)) == 0, "h(1) = 0")

    if res.at_half:
        shifted = h.shift(Fraction(1))
        ok = all(c >= 0 for c in shifted.coeffs) and shifted.leading > 0
        rep.add("balanced_branch_condition", s >= comb(m, 2), f"s >= C({m},2)")
        rep.add("profile_nondecreasing_left_of_half", ok,
                "h(1+u) has nonnegative coefficients")
    else:
        rep.add("root_branch_condition", s < comb(m, 2), f"s < C({m},2)")
        rep.add("single_root_in_unit_interval", h.count_roots_open(0, 1) == 1)
        rep.add("profile_poly_negative_at_0", h(Fraction(0)) < 0)
        rep.add("concavity_condition", s + t < m * m, "s+t < (t-s)^2")
        lo, hi = res.alpha.interval()
        rep.add("alpha_in_open_half_one", Fraction(1, 2) < lo and hi < 1,
                f"alpha in [{lo}, {hi}]")
        if s == 1:
            rep.add("one_sided_value_at_t", h(Fraction(t)) == t * t - 1 and t * t - 1 > 0,
                    "h(t) = t^2 - 1 > 0")
            a2 = res.alpha.refine(Fraction(1, 2**48))
            rep.add("beta_above_one_over_t_plus_1", a2.hi < Fraction(t, t + 1),
                    "1 - alpha > 1/(t+1)")
        if (s, t) == (1, 4):
            rep.add("four_fifths_not_stationary", h(Fraction(1, 4)) != 0,
                    "x = 1/4 (the split (4/5,1/5)) is not a root of h")
            # (3 + sqrt3)/6 is the root in (1/2, 1) of the irreducible 6a^2 - 6a + 1, so a
            # common factor with the defining poly and a root in alpha's interval pin alpha
            target = UPoly([1, -6, 6])
            quot_ok = target.gcd(res.alpha.poly).degree >= 1
            rep.add("alpha_is_three_plus_sqrt3_over_6",
                    quot_ok and target.count_roots(res.alpha.lo, res.alpha.hi) == 1,
                    "isolating interval contains the root of 6a^2-6a+1")
            rep.notes.append("the split (4/5, 1/5) fails the stationarity condition; "
                             "the emitted maximiser is the algebraic root value")

    # property (iv): the one-part profile maximum
    av = UPoly.x()
    one_minus = UPoly([1, -1])
    prof = av**t * one_minus
    deriv_identity = prof.derivative() == av ** (t - 1) * UPoly([t, -(t + 1)])
    rep.add("one_part_profile_derivative", deriv_identity)
    peak = Fraction(t, t + 1)
    peak_val = peak**t * (1 - peak)
    rep.add("one_part_profile_max", (UPoly([peak_val]) - prof).nonneg_on(0, 1)
            and prof(peak) == peak_val,
            f"max of a^{t}(1-a) on [0,1] is ({t}/{t+1})^{t}/({t+1}) at {peak}")

    # strictness, symbolically in the split ratio, from the free form F of
    # p(K_{s,t}, .) in x0, x1, x2 at x0 = 0, x1 = a, x2 = 1 - a. Toggling a
    # pair of a two-part sample never yields a copy of K_{s,t}, so the flip
    # gradient at parts (i, j) is the through-pair density
    # d^2F/dx_i dx_j / (k(k-1)); a vertex joined to every part but i is a
    # clone of part i and counts dF/dx_i / k, one joined to both parts counts
    # dF/dx0 / k (0 unless s = 1), and one joined to neither counts nothing.
    free = density_polynomial([s, t], 2)

    def on_split(p: MPoly) -> UPoly:
        out = UPoly()
        for e, c in p.terms.items():
            powers = dict(zip(p.vars, e))
            if not powers.get("x0"):
                out = out + c * av ** powers.get("x1", 0) * one_minus ** powers.get("x2", 0)
        return out

    first = {i: free.partial(f"x{i}") for i in range(3)}
    grads = {(i, j): on_split(first[i].partial(f"x{j}")) * Fraction(1, k * (k - 1))
             for i, j in ((1, 1), (1, 2), (2, 2))}
    att_e1, att_e2, att_11 = (on_split(first[i]) * Fraction(1, k) for i in (1, 2, 0))
    att_00 = UPoly()
    cross_spec = ObjectiveSpec.partite_density([t, s]) if k <= 6 else None
    if cross_spec is not None:
        a_var = MPoly.var("a")
        entries = {1: a_var, 2: 1 - a_var}
        sampled = [(flip_gradient_generic(cross_spec, entries, *pair), grad)
                   for pair, grad in grads.items()]
        sampled += [(attach_value_generic(cross_spec, entries, {1: b1, 2: b2}), att)
                    for (b1, b2), att in (((0, 1), att_e1), ((1, 0), att_e2),
                                          ((0, 0), att_00), ((1, 1), att_11))]
        agree = all((value - MPoly.from_upoly(kernel, "a")).is_zero()
                    for value, kernel in sampled)
        rep.add("closed_form_crosscheck", agree,
                "closed-form gradients match the sampling enumeration")

    beta_margin = one_minus ** (k - 2)
    signs = {pair: res.alpha.sign_of(grad - beta_margin) for pair, grad in sorted(grads.items())}
    rep.add("str1_flip_margins", min(signs.values()) >= 0,
            "flip gradients >= (1-alpha)^(s+t-2) at the maximiser; "
            + "; ".join(f"{pair}: sign {sgn}" for pair, sgn in signs.items()))

    rep.add("clone_values_agree_at_maximiser", res.alpha.sign_of(att_e1 - att_e2) == 0,
            "lambda(x,(e_1,1)) = lambda(x,(e_2,1)) at the maximiser")
    rep.add("empty_attachment_counts_nothing", att_00.is_zero())
    if s >= 2:
        rep.add("full_attachment_counts_nothing", att_11.is_zero())
        rep.add("str2_nonclone_margin_positive", res.alpha.sign_of(att_e1 - att_00) > 0)
    else:
        # displayed identity for the all-ones pattern at s = 1
        lhs = att_e1 + att_e2 - 2 * att_11
        rhs = av ** (t - 1) * ((t + 1) * one_minus - UPoly([1])) \
            + one_minus ** (t - 1) * ((t + 1) * av - UPoly([1]))
        rep.add("full_attachment_identity", lhs == rhs,
                "2*nabla for the all-ones pattern matches the closed form")
        rep.add("str2_nonclone_margin_positive", res.alpha.sign_of(att_e1 - att_11) > 0)
        rep.add("str2_isolated_margin_positive", res.alpha.sign_of(att_e1 - att_00) > 0)

    if res.alpha.is_rational:
        alpha_f = res.alpha.as_fraction()
        x = PartiteVector(sorted([alpha_f, 1 - alpha_f], reverse=True))
        lam = on_split(free)(alpha_f)
        if cross_spec is not None:
            strict = strictness_certificate(cross_spec, [x])
            rep.add("strictness_certificate", strict.passed, f"c = {strict.c}")
        ilo, ihi = res.i_value
        rep.add("value_matches_profile", ilo == ihi == lam,
                f"i(K_{{{s},{t}}}) = {lam}")
        rep.lambda_max = lam
        rep.maximiser = x.to_jsonable()
    else:
        ilo, ihi = res.i_value
        rep.notes.append(f"irrational maximiser: alpha in [{res.alpha.lo}, {res.alpha.hi}], "
                         f"i in [{ilo}, {ihi}]")
        rep.maximiser = {"alpha_interval": [str(res.alpha.lo), str(res.alpha.hi)],
                         "defining_poly": [str(c) for c in res.alpha.poly.coeffs]}
    return rep


# ---------------------------------------------------------------------------
# K_r(t)
# ---------------------------------------------------------------------------

def _exp_lower_bound(x: Fraction) -> Fraction:
    total = Fraction(0)
    for i in range(20):
        total += x**i / factorial(i)
    return total


def krt_value(r: int, t: int) -> Fraction:
    """i(K_r(t)) = (tr)! / (t!^r r^{tr}) for the balanced split."""
    return Fraction(factorial(t * r), factorial(t) ** r * r ** (t * r))


def certify_krt(r: int, t: int) -> CertificateReport:
    """Certify the balanced r-split for p(K_r(t), .).

    All quantities at the uniform split have closed forms (non-clone edits
    destroy every pattern copy), so the pipeline is exact for every rt <= 12;
    the generic sampling machinery cross-checks them when rt <= 6.
    """
    if r < 2 or t < 2 or r * t > 12:
        raise ValueError("need r, t >= 2 and rt <= 12")
    rep = CertificateReport(f"krt({r},{t})")
    x = PartiteVector.uniform(r)
    k = r * t
    a = [t] * r

    bound = _exp_lower_bound(Fraction(t - 1))
    hyp = bound > r
    rep.add("hypothesis_t_above_1_plus_log_r", hyp,
            f"e^{t - 1} >= {bound} vs r = {r}")
    if not hyp:
        rep.notes.append("hypothesis fails: t <= 1 + log r, where the balanced "
                         "split is known not to be optimal")

    val = krt_value(r, t)
    dens = density_formula(a, x)
    samp = sampling_density(a, x)
    s_form = Fraction(factorial(k), factorial(r) * factorial(t) ** r) * \
        elementary_symmetric(x, SymmetricIndex((t,) * r))
    rep.add("value_identity", val == dens == samp == s_form,
            f"lambda(uniform split) = {val}")
    rep.notes.append(f"the closed form carrying an extra r! in its denominator equals "
                     f"this value after multiplying by r! = {factorial(r)}")

    # stationarity: every clone sees exactly lambda
    clone = Fraction(_multinomial(k - 1, [t - 1] + [t] * (r - 1)), r ** (k - 1))
    rep.add("stationarity", clone == val,
            "clone attachment value equals lambda at the uniform split")

    # uniqueness on the denominator-3r grid
    D = 3 * r
    ok_grid = True
    worst = None
    for used in range(k, D + 1):
        for part in partitions_of(used, max_parts=r + 1):
            vec = PartiteVector([Fraction(p, D) for p in part])
            if vec == x:
                continue
            if density_formula(a, vec) >= val:
                ok_grid = False
                worst = vec
    rep.add("uniqueness_on_grid", ok_grid,
            f"every denominator-{D} vector with <= {r + 1} parts scores strictly less"
            + ("" if ok_grid else f"; counterexample {worst}"))

    # strictness: wrong flips and non-clone attachments count nothing, so the
    # gradients equal through-pair densities / lambda itself
    within = Fraction(_multinomial(k - 2, [t - 2] + [t] * (r - 1)), r ** (k - 2))
    cross = Fraction(_multinomial(k - 2, [t - 1, t - 1] + [t] * (r - 2)), r ** (k - 2))
    rep.add("flip_margins_positive", within > 0 and cross > 0,
            f"within-part {within}, cross-part {cross}")

    if k <= 6:
        spec = ObjectiveSpec.partite_density(a)
        strict = strictness_certificate(spec, [x])
        lam = lambda_of_vector(spec, x)
        ok_flips = lam == val
        for (i1, i2), g in strict.candidates[0].pairs.items():
            want = within if i1 == i2 else cross
            if g != pair_density(spec, x, i1, i2) or g != want:
                ok_flips = False
        rep.add("flips_zero_the_pattern", ok_flips,
                "flip gradient equals the through-pair density closed form")
        # the parts have equal masses, so there is one margin per count of ones
        ones = {len(m.b_support): m.attach(1) for m in strict.candidates[0].patterns}
        ok_attach = sorted(ones) == list(range(r + 1)) and all(
            v == (clone if kk == r - 1 else 0) for kk, v in ones.items())
        rep.add("attachments_zero_or_clone", ok_attach,
                "non-clone patterns see no pattern copies; clones see lambda")
        rep.add("strictness_certificate", strict.passed, f"c = {strict.c}")

    rep.lambda_max = val
    rep.maximiser = x.to_jsonable()
    return rep


# ---------------------------------------------------------------------------
# K_{2,1,1,1}
# ---------------------------------------------------------------------------

def _h_clique_family() -> tuple[MPoly, MPoly]:
    """H(y,l) = l^4 * (value of the l-equal-parts profile at clique mass y),
    and the associated cubic q(y,l) with l^4 h' = 10 (y-1) q."""
    y = MPoly.var("y")
    l = MPoly.var("l")
    one_minus = 1 - y
    H = 10 * one_minus**2 * ((l - 1 + y) ** 3
                             - 3 * (l - 1) * one_minus**2 * (l - 2 + 2 * y)
                             - (l - 1) * one_minus**3)
    q = (MPoly.const(-30) + 49 * l - 21 * l**2 + 2 * l**3
         + (MPoly.const(90) - 123 * l + 33 * l**2) * y
         + (MPoly.const(-90) + 99 * l - 12 * l**2) * y**2
         + (MPoly.const(30) - 25 * l) * y**3)
    return H, q


def certify_k2111() -> CertificateReport:
    """Replay the K_{2,1,1,1} optimisation and strictness checks exactly."""
    rep = CertificateReport("k2111")
    spec = ObjectiveSpec.partite_density([2, 1, 1, 1])
    lam0 = LAMBDA_2111
    a8 = PartiteVector.uniform(8)
    y = MPoly.var("y")
    l = MPoly.var("l")
    H, q = _h_clique_family()

    # (1) derivative identity for the equal-parts profile family
    rep.add("profile_derivative_identity",
            (H.partial("y") - 10 * (y - 1) * q).is_zero(),
            "l^4 h_l'(y) = 10 (y-1) q(y,l)")
    profile_ok = True
    for ell in (1, 2, 3, 8):
        for yv in (Fraction(0), Fraction(1, 4), Fraction(3, 5)):
            vec = PartiteVector([(1 - yv) / ell] * ell)
            want = density_formula([2, 1, 1, 1], vec)
            got = H.evaluate({"y": yv, "l": Fraction(ell)}) / Fraction(ell**4)
            profile_ok = profile_ok and got == want
    rep.add("profile_matches_closed_form", profile_ok,
            "H(y,l)/l^4 equals the density closed form at sampled points")

    # (2) positivity of q for l >= 8 via shifted coefficient signs
    q0 = q.substitute("y", Fraction(0)).to_upoly("l")
    q1 = q.substitute("y", Fraction(1)).to_upoly("l")
    dq = q.partial("y")
    dq0 = dq.substitute("y", Fraction(0)).to_upoly("l")
    dq1 = dq.substitute("y", Fraction(1)).to_upoly("l")
    rep.add("q_at_0_shifted", q0.shift(Fraction(8)).coeffs == (Fraction(42), Fraction(97), Fraction(27), Fraction(2)),
            "q(0) = 42 + 97m + 27m^2 + 2m^3 in m = l - 8")
    rep.add("q_at_1", q1 == UPoly([0, 0, 0, 2]), "q(1) = 2 l^3")
    rep.add("dq_at_0_shifted", dq0.shift(Fraction(8)).coeffs == (Fraction(1218), Fraction(405), Fraction(33)),
            "q'(0) = 1218 + 405m + 33m^2")
    rep.add("dq_at_1", dq1 == UPoly([0, 0, 9]), "q'(1) = 9 l^2")
    lead = dq.coeffs_in("y").get(2, MPoly.const(0)).to_upoly("l")
    shifted_lead = lead.shift(Fraction(8))
    rep.add("dq_leading_negative_for_l_ge_8",
            all(c <= 0 for c in shifted_lead.coeffs) and shifted_lead(Fraction(0)) < 0,
            "y^2-coefficient of q' is negative for l >= 8")

    # (3) the equal-parts value k(l) = h_l(0) decreases beyond l = 8
    H0 = H.substitute("y", Fraction(0)).to_upoly("l")
    dH0 = H.partial("l").substitute("y", Fraction(0)).to_upoly("l")
    j = UPoly([30, 60, 15, 1]).shift(Fraction(-9))     # j(l) in powers of l
    lhs = UPoly.x() * dH0 - 4 * H0
    rep.add("k_prime_identity", lhs == -10 * j, "l H_l(0,l) - 4 H(0,l) = -10 j(l)")
    rep.add("j_positive_beyond_9",
            all(c > 0 for c in j.shift(Fraction(9)).coeffs),
            "j has positive coefficients in powers of (l - 9)")
    k8 = H0(Fraction(8)) / Fraction(8**4)
    k9 = H0(Fraction(9)) / Fraction(9**4)
    rep.add("k9_below_k8", k9 == Fraction(1120, 2187) and k8 == lam0 and k9 < k8,
            "k(9) = 1120/2187 < 525/1024 = k(8)")

    # (4) small equal-part counts: eliminant root counts plus interval bounds
    z = MPoly.var("z")
    for ell in range(1, 8):
        qs = q.substitute("l", Fraction(ell))
        p1 = (y - 1) * qs
        h_ell = H.substitute("l", Fraction(ell)) * Fraction(1, ell**4)
        p2 = Fraction(ell**4) * z - H.substitute("l", Fraction(ell))
        elim = resultant(p1, p2, "y").to_upoly("z")
        if ell == 1:
            target = UPoly([0, -216, 625]) * UPoly([0, 1])   # z (625 z - 216)
            rep.add("eliminant_divisible_l1", elim.divmod(target)[1].is_zero(),
                    "z(625z - 216) divides the l=1 eliminant")
        count = elim.count_roots(lam0, Fraction(1))
        rep.add(f"no_critical_value_above_l{ell}", count == 0,
                f"eliminant root count in (525/1024, 1] is {count}")
        k_ell = h_ell.evaluate({"y": Fraction(0)})
        rep.add(f"endpoints_below_l{ell}",
                k_ell < lam0 and h_ell.evaluate({"y": Fraction(1)}) == 0,
                f"h_{ell}(0) = {k_ell}, h_{ell}(1) = 0")
        bb = intervals.bb_max_bound(h_ell, {"y": (Fraction(0), Fraction(1))}, Fraction(1, 10**6))
        rep.inconclusive |= not bb.conclusive
        rep.add(f"interval_bound_l{ell}", bb.conclusive and bb.upper < lam0,
                f"certified max < {lam0}")

    # (5) the near-balanced two-part split scores strictly less
    near = PartiteVector([Fraction(1, 8)] * 7 + [Fraction(1, 16), Fraction(1, 16)])
    lv = lambda_of_vector(spec, near)
    dv = density_formula([2, 1, 1, 1], near)
    rep.add("near_split_below", lv == dv and lv < lam0,
            f"lambda(1/8^7, 1/16, 1/16) = {lv} < 525/1024")

    # (6) strictness data at the uniform split; the parts have equal masses,
    # so the patterns b with kk ones form one orbit for each kk
    strict = strictness_certificate(spec, [a8])
    cand = strict.candidates[0]
    rep.add("flip_cross", cand.pairs[1, 2] == Fraction(150, 512))
    rep.add("flip_within", cand.pairs[1, 1] == Fraction(84, 512))
    table = {len(m.b_support): m.attach(1) for m in cand.patterns}
    table_ok = sorted(table) == list(range(9))
    argmax = None
    best = None
    for kk, got in sorted(table.items()):
        if got != Fraction(24, 8**4) * comb(kk, 3) * (Fraction(19, 2) - kk):
            table_ok = False
        if best is None or got > best:
            best, argmax = got, kk
    rep.add("attachment_table", table_ok and argmax == 7 and best == lam0,
            "lambda(a,(b,1)) = (4!/8^4) C(k,3)(19/2 - k), unique max 525/1024 at k = 7")
    rep.add("strictness_certificate", strict.passed, f"c = {strict.c}")

    # (7) verdict
    lam = lambda_of_vector(spec, a8)
    rep.add("maximiser_value", lam == lam0 == density_formula([2, 1, 1, 1], a8))
    rep.lambda_max = lam0
    rep.maximiser = a8.to_jsonable()
    return rep


# ---------------------------------------------------------------------------
# K_{3,1,1}
# ---------------------------------------------------------------------------

def _h311() -> MPoly:
    y = MPoly.var("y")
    z = MPoly.var("z")
    return (2 * y**3 - 2 * y**4 - 2 * y**3 * z + 5 * z**2 - 2 * y * z**2
            - 3 * y**2 * z**2 - 12 * z**3 + 4 * y * z**3 + 7 * z**4
            - MPoly.const(Fraction(108, 625)))


def certify_k311() -> CertificateReport:
    """Replay the K_{3,1,1} certificate: region exclusion, the two-route
    negativity claim (SOS and eliminant), boundary analysis, the final
    one-dimensional maximisation and strictness with c = 108/125."""
    rep = CertificateReport("k311")
    spec = ObjectiveSpec.partite_density([3, 1, 1])
    lam0 = LAMBDA_311
    data = _read_k311_data(_load_k311_data())
    y = MPoly.var("y")
    z = MPoly.var("z")
    s_var = MPoly.var("s")
    u = MPoly.var("u")
    tol = Fraction(1, 10**6)

    # (0) the displayed expansion of h agrees with its definition
    h = _h311()
    f_at = Fraction(1, 2) * z**2 * (1 - 2 * z)          # f(1-z) with f(x) = (1-x)^2 (x-z)/2
    h_def = 12 * (Fraction(1, 4) * z**2 * ((1 - z) ** 2 - y**2)
                  + Fraction(1, 6) * y**3 * (1 - y - z)
                  + Fraction(1, 3) * (1 - y - z) * f_at
                  - MPoly.const(Fraction(9, 625)))
    rep.add("h_expansion", (h - h_def).is_zero())

    # (1) excluding a second large part
    rep.add("am_gm_identity", ((y + z) ** 2 - 4 * y * z - (y - z) ** 2).is_zero())
    g = UPoly([0, 0, 0, Fraction(1, 24), Fraction(1, 24), Fraction(1, 120)])
    rep.add("tail_term_monotone", all(c >= 0 for c in g.derivative().coeffs))
    rep.add("tail_term_value", g(Fraction(1, 5)) == Fraction(151, 375000))
    psi = (s_var**5 * Fraction(1, 120) + s_var**4 * (1 - s_var) * Fraction(1, 24)
           + s_var**3 * y * (1 - s_var - y) * Fraction(1, 6))
    bb1 = intervals.bb_max_bound(
        psi, {"s": (Fraction(0), Fraction(1, 5)), "y": (Fraction(0), Fraction(1))},
        tol, constraints=[y - (1 - s_var)])
    rep.inconclusive |= not bb1.conclusive
    rep.add("tail_term_interval_bound", bb1.conclusive and bb1.upper <= Fraction(151, 375000) + tol,
            f"certified max <= 151/375000 + {tol}")

    r_poly = Fraction(1, 12) * s_var**2 * ((Fraction(3, 5) - s_var) ** 3 + MPoly.const(Fraction(8, 125)))
    t_poly = UPoly([14, -81, 180, -125])
    rp = r_poly.partial("s")
    rep.add("pair_term_derivative", (rp - Fraction(1, 300) * s_var *
                                     MPoly.from_upoly(t_poly, "s")).is_zero(),
            "r'(s) = s t(s)/300")
    rep.add("t_sign_change", t_poly(Fraction(1)) < 0 < t_poly(Fraction(4, 5)))
    tp = t_poly.derivative()
    factored = -3 * UPoly([-3, 5]) * UPoly([-9, 25])
    rep.add("t_derivative_factorisation", tp == factored, "t' = -3(5s-3)(25s-9)")
    rep.add("t_critical_points_right_of_fifth",
            min(Fraction(3, 5), Fraction(9, 25)) > Fraction(1, 5)
            and t_poly(Fraction(9, 25)) >= 0)
    rep.add("pair_term_value", r_poly.evaluate({"s": Fraction(1, 5)}) == Fraction(160, 375000))
    bb2 = intervals.bb_max_bound(r_poly, {"s": (Fraction(0), Fraction(1, 5))}, tol)
    rep.inconclusive |= not bb2.conclusive
    rep.add("pair_term_interval_bound", bb2.conclusive and bb2.upper <= Fraction(160, 375000) + tol)

    balanced = u**3 * (1 - u) + u * (1 - u) ** 3
    gap = MPoly.const(Fraction(1, 8)) - balanced
    rep.add("balanced_profile_max", gap.to_upoly("u").nonneg_on(0, 1)
            and balanced.evaluate({"u": Fraction(1, 2)}) == Fraction(1, 8))
    srise = s_var * (1 - s_var) ** 4
    drise = srise.partial("s") - (1 - s_var) ** 3 * (1 - 5 * s_var)
    rep.add("mass_factor_derivative", drise.is_zero())
    rep.add("mass_factor_value", srise.evaluate({"s": Fraction(1, 5)}) == Fraction(256, 3125))
    phi = srise * balanced * Fraction(1, 6)
    rep.add("split_term_value",
            phi.evaluate({"s": Fraction(1, 5), "u": Fraction(1, 2)}) == Fraction(640, 375000))
    bb3 = intervals.bb_max_bound(
        phi, {"s": (Fraction(0), Fraction(1, 5)), "u": (Fraction(0), Fraction(1))}, tol)
    rep.inconclusive |= not bb3.conclusive
    rep.add("split_term_interval_bound", bb3.conclusive and bb3.upper <= Fraction(640, 375000) + tol)
    total = Fraction(120) * Fraction(151 + 160 + 640, 375000)
    rep.add("exclusion_total", total < lam0, f"{total} < 216/625")

    # (2a) sum-of-squares route
    grams = data["gram_matrices"]
    for name in _K311_GRAMS:
        rep.add(f"psd_{name}", matrices.psd_check(grams[name]))
    basis = [MPoly.const(1), y, z, y**2, y * z, z**2]
    sos = {}
    for name, mat in grams.items():
        total_poly = MPoly.const(0)
        for i in range(6):
            for jj in range(6):
                total_poly = total_poly + mat[i][jj] * basis[i] * basis[jj]
        sos[name] = total_poly
    alpha = data["shift"]
    eps = (-h - z * sos["Q1"] - (y - z) * sos["Q2"] - (alpha - y) * sos["Q3"]
           - sos["R0"])
    const = eps.terms.get((0,) * len(eps.vars), Fraction(0))
    others = sum(abs(c) for e, c in eps.terms.items() if any(e))
    rep.add("epsilon_margin", const - others >= data["epsilon_lower_bound"] > 0,
            f"constant minus other coefficient mass = {const - others} >= 1/50")

    # (2b) eliminant route
    q_fix = UPoly(data["q_coefficients_ascending"])
    elim = resultant(h, h.partial("z"), "z")
    elim_u = elim.to_upoly("y")
    rep.add("eliminant_divisible_by_q", not q_fix.is_zero() and elim_u.divmod(q_fix)[1].is_zero())
    p_shift = q_fix.shift(alpha)
    r1 = UPoly(data["r1_coefficients_ascending"])
    rep.add("r1_coefficients_positive", not r1.is_zero() and all(c > 0 for c in r1.coeffs))
    prod = p_shift * r1
    rep.add("product_coefficients_positive", all(c > 0 for c in prod.coeffs),
            f"deg {prod.degree} product of q(y + 272/1000) with the multiplier")
    hy0 = h.substitute("z", Fraction(0)).to_upoly("y")
    rep.add("boundary_z0_form", hy0 == UPoly([Fraction(-108, 625), 0, 0, 2, -2]),
            "h(y,0) = 2y^3(1-y) - 108/625")
    rep.add("boundary_z0_signs",
            hy0.count_roots_open(0, Fraction(3, 5)) == 0
            and hy0(Fraction(0)) < 0 and hy0(Fraction(3, 5)) == 0,
            "negative left of 3/5, zero at 3/5")
    hyy = h.substitute("z", MPoly.var("y")).to_upoly("y")
    rep.add("boundary_diag_form", hyy == UPoly([Fraction(-108, 625), 0, 5, -12, 4]),
            "h(y,y) = y^2(2y-1)(2y-5) - 108/625")
    rep.add("boundary_diag_negative",
            hyy.count_roots(0, 1) == 0 and hyy(Fraction(0)) < 0)
    cap = Fraction(3, 5) - Fraction(1, 1000)
    bb4 = intervals.bb_max_bound(h, {"y": (Fraction(0), cap), "z": (Fraction(0), cap)},
                                 tol, constraints=[z - y, y + z - 1])
    rep.inconclusive |= not bb4.conclusive
    rep.add("h_negative_interval_bound", bb4.conclusive and bb4.upper < 0,
            "certified max < 0 on the y <= 3/5 - 1e-3 region")

    # (3) replacing the second part by clique vertices only helps
    zz = UPoly([0, 1])
    chi = (zz**3 * (UPoly([1, -1]) ** 2) * Fraction(1, 12)
           - Fraction(27, 125) * zz**2 * Fraction(1, 12)
           + Fraction(229, 40500) * zz**2)
    ident = zz**2 * Fraction(1, 12) * (zz * UPoly([1, -1]) ** 2 - UPoly([Fraction(4, 27)]))
    rep.add("clique_replacement_identity", chi == ident)
    psi_z = UPoly([Fraction(4, 27)]) - zz * UPoly([1, -1]) ** 2
    factored_psi = UPoly([Fraction(-1, 3), 1]) ** 2 * UPoly([Fraction(4, 3), -1])
    rep.add("clique_replacement_factorisation", psi_z == factored_psi,
            "4/27 - z(1-z)^2 = (z - 1/3)^2 (4/3 - z)")
    rep.add("clique_replacement_nonneg", psi_z.nonneg_on(0, Fraction(2, 5)))

    # (4) the one-part-plus-clique profile peaks at 3/5
    prof = 10 * UPoly([0, 0, 0, 1]) * UPoly([1, -1]) ** 2
    dprof = prof.derivative()
    rep.add("final_profile_derivative",
            dprof == 10 * UPoly([0, 0, 1]) * UPoly([1, -1]) * UPoly([3, -5]),
            "(10 y^3 (1-y)^2)' = 10 y^2 (1-y)(3-5y)")
    gap2 = UPoly([lam0]) - prof
    rep.add("final_profile_max",
            gap2.nonneg_on(0, 1) and prof(Fraction(3, 5)) == lam0
            and gap2.squarefree_part().count_roots_open(0, 1) == 1,
            "10 y^3 (1-y)^2 <= 216/625 on [0,1], touching only at 3/5")

    # (5) strictness with c = 108/125
    a = PartiteVector([Fraction(3, 5)])
    strict = strictness_certificate(spec, [a])
    cand = strict.candidates[0]
    ok_flips = all(g == pair_density(spec, a, *pair) and g > 0
                   for pair, g in cand.pairs.items())
    rep.add("str1_flips_kill_copies", ok_flips,
            "; ".join(f"{p}: {v}" for p, v in sorted(cand.pairs.items())))
    rep.add("str1_constant", cand.c1 == Fraction(27, 125), f"min flip gradient {cand.c1}")

    # attachment polynomials in alpha (independent of the pattern's alpha) for b = 1, 0
    att = {m.b_support: m.attach for m in cand.patterns}
    att1, att0 = att[(1,)], att[()]
    rep.add("attach_poly_joined", att1 == UPoly([0, lam0]),
            "lambda(a, (b=1, alpha)) = (216/625) alpha")
    rep.add("attach_poly_unjoined", att0 == UPoly([0, 0, lam0]),
            "lambda(a, (b=0, alpha)) = (216/625) alpha^2")
    bound_poly = UPoly([0, lam0])
    rep.add("attach_dominated", (bound_poly - att1).nonneg_on(0, 1)
            and (bound_poly - att0).nonneg_on(0, 1),
            "both attachment values lie below (216/625) alpha on [0,1]")
    rep.add("str2_constant", cand.c2 == Fraction(108, 125), f"certified c2 = {cand.c2}")
    rep.add("strictness_certificate", strict.passed, f"c = {strict.c}")

    # (6) verdict
    lam = lambda_of_vector(spec, a)
    rep.add("maximiser_value", lam == lam0 == density_formula([3, 1, 1], a))
    rep.lambda_max = lam0
    rep.maximiser = a.to_jsonable()
    return rep
