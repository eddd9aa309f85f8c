import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from inducibility import certificates, intervals, perturbation, strictness
from inducibility.certificates import (certify_k2111, certify_k311, certify_krt, certify_kst,
                                       krt_value, positive_multiplier_lp)
from inducibility.intervals import bb_max_bound
from inducibility.partite import PartiteVector, density_formula
from inducibility.polynomials import UPoly


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"no check named {name}: {[c.name for c in report.checks]}")


def test_positive_multiplier_lp_examples():
    assert positive_multiplier_lp(UPoly([1, 1]), 0) == UPoly([1])
    r1 = positive_multiplier_lp(UPoly([1, -1, 1]), 2)
    assert r1 is not None and r1.degree == 2
    assert all(c > 0 for c in r1.coeffs + (UPoly([1, -1, 1]) * r1).coeffs)
    with pytest.raises(ValueError):
        positive_multiplier_lp(UPoly([-1, 1]), 2)


def test_positive_multiplier_lp_failure_is_none():
    # p negative somewhere on (0, inf): no multiplier of any degree exists
    assert positive_multiplier_lp(UPoly([1, -3]), 3) is None


def test_positivity_rule():
    """The LP accepts only products whose every coefficient is positive:
    (1 + y)(1 - y + y^2) = 1 + y^3 has zero coefficients, and no degree-1
    multiplier does better, since it would need b1 - b0 > 0 and b0 - b1 > 0."""
    assert positive_multiplier_lp(UPoly([1, -1, 1]), 1) is None


def test_positive_multiplier_lp_regenerates_k311_multiplier(monkeypatch):
    """The LP at degree 16 on the shifted eliminant gives a multiplier that
    certify k311 accepts in place of the shipped one."""
    data = certificates._load_k311_data()
    q = UPoly([F(c) for c in data["q_coefficients_ascending"]])
    p = q.shift(F(data["shift"]))
    assert F(data["shift"]) == F(272, 1000)
    r1 = positive_multiplier_lp(p, 16)
    assert r1 is not None
    prod = p * r1
    assert prod.degree == 28 and all(c > 0 for c in prod.coeffs)
    assert all(c > 0 for c in r1.coeffs)
    data["r1_coefficients_ascending"] = [str(c) for c in r1.coeffs]
    monkeypatch.setattr(certificates, "_load_k311_data", lambda: data)
    rep = certify_k311()
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert _check(rep, "product_coefficients_positive").passed


@pytest.mark.parametrize("cut", ["square 5x5", "ragged"])
def test_certify_k311_malformed_gram_is_a_usage_error(monkeypatch, capsys, cut):
    """A Gram matrix that is not 6x6 ends in exit 3, not in a traceback."""
    from inducibility.cli import main
    data = certificates._load_k311_data()
    q2 = data["gram_matrices"]["Q2"]
    q2 = [r[:5] for r in q2[:5]] if cut == "square 5x5" else q2[:5] + [q2[5][:4]]
    data["gram_matrices"] = dict(data["gram_matrices"], Q2=q2)
    monkeypatch.setattr(certificates, "_load_k311_data", lambda: data)
    assert main(["certify", "k311", "--quiet"]) == 3
    assert "6x6" in capsys.readouterr().err


def test_certify_kst_cases():
    for s, t in ((2, 2), (2, 3), (3, 2)):
        rep = certify_kst(s, t)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert certify_kst(2, 2).lambda_max == F(3, 8)
    assert certify_kst(2, 3).lambda_max == F(10, 16)


def test_certify_kst_14():
    rep = certify_kst(1, 4)
    assert rep.passed
    assert _check(rep, "four_fifths_not_stationary").passed
    assert _check(rep, "alpha_is_three_plus_sqrt3_over_6").passed
    assert rep.maximiser and "alpha_interval" in rep.maximiser
    assert rep.notes


def test_certify_krt_cases():
    rep = certify_krt(2, 2)
    assert rep.passed and rep.lambda_max == F(3, 8)
    rep = certify_krt(2, 3)
    assert rep.passed and rep.lambda_max == F(5, 16)


def test_certify_krt_reads_classes_lazily():
    """krt(2, 3) reads a few 6-vertex classes, so it files only their vertex
    orders: at most 30,000 subset codes, where filing all 156 classes takes 112,643."""
    script = """
from inducibility.certificates import certify_krt
from inducibility.graphs import Graph
calls = 0
subset_code = Graph.subset_code
def counted(self, verts):
    global calls
    calls += 1
    return subset_code(self, verts)
Graph.subset_code = counted
assert certify_krt(2, 3).passed
print(calls)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert int(proc.stdout) <= 30_000


def test_krt_uniqueness_examines_every_grid_vector(monkeypatch):
    """krt(2,4) scores each vector of denominator 3r = 6 with at most 3
    parts and mass up to 1, the uniform split aside; every one of them has
    mass below rt = 8."""
    from helpers import count_calls
    calls = count_calls(monkeypatch, "density_formula")
    assert _check(certify_krt(2, 4), "uniqueness_on_grid").passed
    uniform = PartiteVector.uniform(2)
    grid = sum(1 for used in range(1, 7) for n in range(1, 4)
               for parts in itertools.combinations_with_replacement(range(1, used + 1), n)
               if sum(parts) == used) - 1
    assert sum(1 for _, vec in calls if vec != uniform) == grid == 21


def test_certify_krt_hypothesis_failure():
    rep = certify_krt(3, 2)
    assert not rep.passed
    assert not _check(rep, "hypothesis_t_above_1_plus_log_r").passed
    assert _check(rep, "value_identity").passed
    assert any("not to be optimal" in n for n in rep.notes)


def test_krt_value_consistency():
    assert krt_value(2, 2) == F(3, 8)
    assert krt_value(3, 2) == density_formula([2, 2, 2], PartiteVector.uniform(3))
    assert krt_value(3, 2) == F(10, 81)


def test_certify_k2111(report_k2111):
    assert report_k2111.passed
    assert report_k2111.lambda_max == F(525, 1024)
    assert _check(report_k2111, "eliminant_divisible_l1").passed
    assert _check(report_k2111, "attachment_table").passed
    for ell in range(1, 8):
        assert _check(report_k2111, f"interval_bound_l{ell}").passed


def test_certify_k311(report_k311):
    assert report_k311.passed
    assert report_k311.lambda_max == F(216, 625)
    for name in ("psd_R0", "psd_Q1", "psd_Q2", "psd_Q3", "epsilon_margin",
                 "eliminant_divisible_by_q", "product_coefficients_positive",
                 "h_negative_interval_bound", "str2_constant"):
        assert _check(report_k311, name).passed, name
    assert report_k311.maximiser == {"x0": "2/5", "parts": ["3/5"]}


def test_k311_bounds_stay_cheap(monkeypatch):
    """The four k311 branch-and-bound calls stay conclusive within 300 boxes
    together (they need 204). certificates reads the bound as
    ``intervals.bb_max_bound`` at each call."""
    results = []

    def counted(*args, **kwargs):
        results.append(bb_max_bound(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(intervals, "bb_max_bound", counted)
    assert certificates.certify_k311().passed
    assert len(results) == 4 and all(r.conclusive for r in results)
    assert sum(r.boxes for r in results) <= 300


def test_interval_details_state_thresholds(report_k311, report_k2111):
    for ell in range(1, 8):
        assert _check(report_k2111, f"interval_bound_l{ell}").detail == "certified max < 525/1024"
    assert _check(report_k311, "tail_term_interval_bound").detail == \
        "certified max <= 151/375000 + 1/1000000"
    assert _check(report_k311, "h_negative_interval_bound").detail == \
        "certified max < 0 on the y <= 3/5 - 1e-3 region"


def test_reports_deterministic(report_k2111):
    from inducibility.certificates import certify_kst
    a = certify_kst(2, 2).to_json()
    b = certify_kst(2, 2).to_json()
    assert a == b
    obj = json.loads(report_k2111.to_json())
    assert obj["passed"] is True and obj["lambda_max"] == "525/1024"


def test_fixture_data_is_symmetric():
    from inducibility.certificates import _load_k311_data
    data = _load_k311_data()
    for name, rows in data["gram_matrices"].items():
        for i in range(6):
            for j in range(6):
                assert rows[i][j] == rows[j][i], (name, i, j)
    assert len(data["q_coefficients_ascending"]) == 13
    assert len(data["r1_coefficients_ascending"]) == 17


def test_certify_kst_full_range_closed_forms():
    """The closed-form strictness route covers every s + t <= 12."""
    for s, t in ((2, 5), (3, 4), (5, 6), (1, 9), (4, 6), (5, 5)):
        rep = certify_kst(s, t)
        assert rep.passed, (s, t, [c.name for c in rep.checks if not c.passed])
    rep = certify_kst(2, 5)
    assert rep.lambda_max == F(28, 81)
    assert rep.maximiser == {"x0": "0", "parts": ["2/3", "1/3"]}


@pytest.mark.parametrize("t", [14, 20])
def test_certify_kst_one_sided_past_fixed_precision(t):
    """kst(1,t) passes where t/(t+1) - alpha is below 2^-48 (1.1e-15 at
    t = 14, 1.7e-25 at t = 20): every claim about alpha is a sign_of."""
    rep = certify_kst(1, t)
    assert rep.passed, [c.name for c in rep.checks if not c.passed]
    assert _check(rep, "beta_above_one_over_t_plus_1").passed


def test_certify_kst_crosscheck_present_small():
    rep = certify_kst(2, 3)
    assert _check(rep, "closed_form_crosscheck").passed


def test_kst_one_sided_interval_bounds():
    """1 - alpha > 1/(t+1) decided exactly by sign_of for s = 1."""
    from inducibility.optsearch import kst_maximiser
    for t in (4, 5, 6, 7, 8, 9):
        res = kst_maximiser(1, t)
        assert res.alpha.sign_of(UPoly([F(t, t + 1), -1])) > 0


# sha256 of to_json() for each certificate report; pinned when the pipelines
# started reading flips, attachment values and margins from their one
# strictness pass, so any change to a report's bytes shows here; every
# kst pair with s <= t, s*t >= 2 and s + t <= 12 is pinned, and four pairs
# at the cap s + t = 40, each a few sign_of queries on alpha of degree up to 40
REPORT_SHA256 = [
    ("k311", "2e446f3baf5a3574c267c81f4cae3349d615f9a0f438c4f9c4dfd1474ecab8c4"),
    ("k2111", "c845c3d9db694d687b7c3dab4669bfb9186adad179c2344d707e0f29f28100e9"),
    ("krt(2,3)", "8c748a1534186984209f64b33488246bc177bc82226bec6e002840d257296b93"),
    ("krt(3,2)", "47fb348d13b347d176971b2e9c5a4cf23ee92b05ae0bd1d44327fbe4c60b2e24"),
    ("kst(2,3)", "1c101827c5862322ae4e9e2b670451aed8efe2b8dc3efcc9f78bf7103352a880"),
    ("kst(3,2)", "1c101827c5862322ae4e9e2b670451aed8efe2b8dc3efcc9f78bf7103352a880"),
    ("kst(1,4)", "31840d52d0f40d4f8801a3af83f2769a7e141a71d72548ca100e9e4b3ff6a6e0"),
    ("kst(2,2)", "8c7d66ceeefc682d394ab6055fdcfd9cc9ce8904e482618f90c70b9dc3fc1823"),
    ("kst(2,5)", "23a10713e79061538323bf3097fbc23ac5a576770634edcb1e93063bb97d903b"),
    ("kst(3,4)", "5bf407fd74efc1b49e1171ad45836ff6279391fd96301f305450d74baf63538e"),
    ("kst(5,6)", "62e5b48903ac7fad7816bcd1e0c48d10e3c219ccdfef2edd562ffcd6823e5565"),
    ("kst(1,9)", "b7399f7e8d1de42797263695bf8f31290db88adb506e3ebce6f9f05456952b75"),
    ("kst(4,6)", "f581d45af0e358aa59bc8114dfa81bf5f52e01f0be45bf57affdaf59514928ca"),
    ("kst(5,5)", "25ee21d06e4b204d24d85a30d102403fd6c3f82af216ff1151de68806ce6aa19"),
    ("kst(1,2)", "2f03385b8e9075e4eddfdf8ba12448f95ca166594afbbc62f8f4de968cc3995a"),
    ("kst(1,3)", "74d79d2420805904a39f48a3b54106b657ad3c1fb8f19069c76c0cf7c4ef556b"),
    ("kst(1,5)", "8e7208f8288b19d826f3c6154ededd64105666bc771ed0437ca8ccc4a5b39882"),
    ("kst(1,6)", "d6c067215f0670175684943a57feb1d88cbb68b3b16a2e4f174367fe1f53370b"),
    ("kst(1,7)", "a067ad6e925d4b597c1c4ebd0402a01e852a2b7c52df21f7558b8b90c8ac9602"),
    ("kst(1,8)", "6dcd81510ca677da0edc9106e54e1c9951b84792cb951404814542414729fc2a"),
    ("kst(1,10)", "f38a7356ee9b9b1009ee2d8ac0e6afab6b644da4c1f537dff727be39d4269b67"),
    ("kst(1,11)", "2e95baf8df23939c9fe6d654cab1512607bb8f49a40a8784ffe472013181cfd0"),
    ("kst(2,4)", "f93491867fce3cbf70efe127dad019124a09d94cc82a49353c76bd9665198853"),
    ("kst(2,6)", "1694e5a6bd800a50509aff387f9e9aa2efa4fbb62389a2d41476133c83b4a4c5"),
    ("kst(2,7)", "420ac0861152e39b6ab7dbccfc8951c864577599764914183ff5da60a71a8076"),
    ("kst(2,8)", "78ff36a32ce8c475e58f708cf7ddae241775f913a4e9c801e847c9710d8cf1b2"),
    ("kst(2,9)", "132f88dd0e4ea63b45e0835a47de62a5a36666392ce32d42a8e09c58f37d86c7"),
    ("kst(2,10)", "4bd4d834d1451a6fad366635ed06d5ad74b2513f7330756a88b8d7410cb6b5be"),
    ("kst(3,3)", "dd5ecd7aa3a8937e380d5e79428e8d53f67bb20d45b880a243654afb94278602"),
    ("kst(3,5)", "38260cb637e442c9895b6656b7110101270fb50e40b3a0c1b53159229b424284"),
    ("kst(3,6)", "396750152b3e56caa3e23d9b285357bc2fbda746895ed77a28538c53a67f9db6"),
    ("kst(3,7)", "df3e799b73f36baa0278526a410b55a1148516bd0ddfc3fff2a56ac9360f5d9c"),
    ("kst(3,8)", "e28a58296bf2bf54049b345b543220c138946ab0008c9df2ce533ca201da94d3"),
    ("kst(3,9)", "a19009db5ceff0162793df327e5d8c3da94aa7688bd48793035b2bfcaf5396d5"),
    ("kst(4,4)", "ce6c3bf48c2f0d37215f1ea019bcd3af0b3beb397535cd22b83d8c268ffe5fc3"),
    ("kst(4,5)", "d99255f2aaede8b0f7d68ac57a2d0c13dcbbc5d6f5f2477507a645963e2518fb"),
    ("kst(4,7)", "f5f03263928785919829f64fbd7ba83fe9dd4fe2f0be2225dc9766af691d0f68"),
    ("kst(4,8)", "d0cf2f4aa8fd79875617d160becae96c693c073a59253835502d8fcf85dfdb68"),
    ("kst(5,7)", "8cc89f75abbb2a0c367ce3452eea02cb9ef6f79b0d328bb737dd0af182da7dec"),
    ("kst(6,6)", "459cae0be916835b94c88c338bbe53aa3406fb440ad4ce0b0f678d08c8a2a389"),
    ("kst(1,39)", "1031e64e8cfd69662b139236615e940294e88cdcfc26c7c851d4c088c5c68339"),
    ("kst(7,33)", "56d177c90d485203881c78ee4550291f13a77180c3117a31640728b2cb271a6c"),
    ("kst(13,27)", "6fc904e020160d27246dc2cc8fb6a2fab6775835ff8103a1476f887b7a55e450"),
    ("kst(20,20)", "cb450f4439c485eb11630af0a9a6e450c93c25e4b49f98cf856f5ffcc5f95c87"),
]


def _certify(name):
    if name == "k311":
        return certify_k311()
    if name == "k2111":
        return certify_k2111()
    kind, args = name[:3], name[4:-1].split(",")
    return {"krt": certify_krt, "kst": certify_kst}[kind](*map(int, args))


@pytest.mark.parametrize("name,digest", REPORT_SHA256, ids=[n for n, _ in REPORT_SHA256])
def test_certificate_report_bytes_are_pinned(name, digest):
    assert hashlib.sha256(_certify(name).to_json().encode()).hexdigest() == digest


def test_certificates_read_their_one_strictness_pass(monkeypatch):
    counts = Counter()
    originals = {"attach_value": perturbation.attach_value,
                 "flip_gradient": perturbation.flip_gradient,
                 "check_str1": strictness.check_str1,
                 "check_str2": strictness.check_str2}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {name: counted(name, fn) for name, fn in originals.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "inducibility":
            continue
        for name, fn in originals.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrappers[name])

    def calls(name):
        counts.clear()
        assert _certify(name).passed == (name != "krt(3,2)")
        return dict(counts)

    assert calls("k311") == {"check_str1": 1, "check_str2": 1,
                             "flip_gradient": 3, "attach_value": 2}
    assert calls("k2111") == {"check_str1": 1, "check_str2": 1,
                              "flip_gradient": 2, "attach_value": 9}
    assert calls("krt(3,2)")["flip_gradient"] == 2
    # one attachment walk per count of ones, read from the strictness margins
    assert calls("krt(3,2)")["attach_value"] == 4
    assert calls("krt(2,3)")["attach_value"] == 3
