"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, install, summarise  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_nested():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 9.0, 0)]
    s = summarise(spans)
    assert s["a"]["self_s"] == pytest.approx(3.0)
    assert s["b"]["self_s"] == pytest.approx(2.0)
    assert s["c"]["self_s"] == pytest.approx(1.0)
    assert s["d"]["self_s"] == pytest.approx(4.0)
    assert all(s[n]["calls"] == 1 for n in "abcd")
    assert sum(r["self_s"] for r in s.values()) == pytest.approx(10.0)


def test_self_time_recursive_counts_outermost_calls():
    spans = [("f", 0.0, 10.0, -1), ("f", 1.0, 6.0, 0), ("f", 2.0, 3.0, 1),
             ("g", 7.0, 8.0, 0), ("f", 7.2, 7.7, 3)]
    s = summarise(spans)
    assert s["f"]["self_s"] == pytest.approx(4.0 + 4.0 + 1.0 + 0.5)
    assert s["g"]["self_s"] == pytest.approx(0.5)
    # f inside g has an f ancestor, so only the root call counts
    assert s["f"]["calls"] == 1 and s["f"]["total_s"] == pytest.approx(10.0)
    assert sum(r["self_s"] for r in s.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 6.0, -1), ("q", 1.0, 5.0, 0), ("r", 3.0, 7.0, 0)]
    assert summarise(spans)["p"]["self_s"] == pytest.approx(1.0)


def test_tracer_records_parents_and_counters():
    tr = Tracer()

    def fib(n):
        return n if n < 2 else rec(n - 1) + rec(n - 2)

    rec = tr.wrap(fib, "fib", count=lambda c, out: c.__setitem__("fib.out", c["fib.out"] + out))
    assert rec(4) == 3
    spans = tr.spans()
    assert len(spans) == 9 and spans[0][3] == -1
    assert all(0 <= p < i for i, (_, _, _, p) in enumerate(spans) if i)
    assert summarise(spans)["fib"]["calls"] == 1
    assert tr.counters["fib.out"] == sum((3, 2, 1, 1, 0, 1, 1, 0, 1))


def test_install_replaces_every_binding(monkeypatch):
    def work():
        return 1

    class Box:
        def method(self):
            return 2

        @classmethod
        def make(cls):
            return cls()

    pkg = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.sub")
    user = types.ModuleType("fakepkg.user")
    sub.work, sub.Box = work, Box
    user.work, user.alias = work, work
    pkg.work = work
    for m in (pkg, sub, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    tr = Tracer()
    install(tr, "fakepkg", [("fakepkg.sub", "work", "sub.work", None),
                            ("fakepkg.sub:Box", "method", "sub.box", None),
                            ("fakepkg.sub:Box", "make", "sub.box", None)])
    assert sub.work is not work and user.work is sub.work and user.alias is sub.work
    assert pkg.work is sub.work
    assert user.work() == 1 and Box.make().method() == 2
    s = summarise(tr.spans())
    assert s["sub.work"]["calls"] == 1 and s["sub.box"]["calls"] == 2


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_change_with_it(workload):
    a, b = inputs.generate(workload, 11), inputs.generate(workload, 11)
    assert a == b and inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(a) != inputs.digest(inputs.generate(workload, 12))


def test_inputs_are_valid_program_inputs():
    from inducibility.partite import PartiteVector
    ev = inputs.generate("evaluate", 5)
    for spec_in in ev["specs"]:
        spec = gate.spec_builder(spec_in["objective"], ev["files"])()
        assert spec.k in (4, 5)
        for v in spec_in["vectors"]:
            x = PartiteVector.from_json(v["json"])
            assert len(x.parts) <= 6
    assert [len(inputs.iso_class_representatives(k)) for k in range(1, 6)] == [1, 2, 4, 11, 34]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

K311_STDOUT = "pass: k311 lambda_max = 216/625\n" + json.dumps({
    "verdict": "pass",
    "result": {"lambda_max": "216/625", "maximiser": {"x0": "2/5", "parts": ["3/5"]}}})


def test_gate_passes_the_expected_outcome():
    assert gate.check_cli({"type": "k311"}, 0, K311_STDOUT) == []


def test_gate_fails_a_tampered_expected_value(monkeypatch):
    monkeypatch.setitem(gate.CONSTANTS, "k311", (Fraction(217, 625), (3, 1, 1)))
    assert gate.check_cli({"type": "k311"}, 0, K311_STDOUT)
    monkeypatch.setitem(gate.KST_VALUES, (2, 2), Fraction(1, 2))
    stdout = "pass\n" + json.dumps({"verdict": "pass", "result": {
        "lambda_max": "3/8", "maximiser": {"x0": "0", "parts": ["1/2", "1/2"]}}})
    assert gate.check_cli({"type": "kst", "s": 2, "t": 2}, 0, stdout)


def test_gate_fails_wrong_exit_verdict_and_missing_report():
    assert gate.check_cli({"type": "k311"}, 1, K311_STDOUT)
    assert gate.check_cli({"type": "krt", "r": 3, "t": 2}, 0, K311_STDOUT)
    assert gate.check_cli({"type": "k311"}, 0, "Traceback (most recent call last):")


def test_failed_operation_is_counted_and_the_run_goes_on(monkeypatch):
    monkeypatch.setitem(gate.CONSTANTS, "k311", (Fraction(1, 2), (3, 1, 1)))
    ops = inputs.generate("certify", 0)
    ops["ops"] = ops["ops"][:2]
    results = [{"exit": 0, "stdout": K311_STDOUT, "wall_s": 1.0},
               {"error": "Traceback ...", "wall_s": 1.0}]
    checked = run.check_outputs(ops, results)
    assert len(checked) == 2 and all(op["problems"] for op in checked)


def test_gate_fails_a_wrong_evaluation():
    ev = inputs.generate("evaluate", 3)
    spec_in = ev["specs"][0]
    spec = gate.spec_builder(spec_in["objective"], ev["files"])()
    good = str(gate.density_route(spec, _vector(spec_in)))
    rec = {"op": "lambda_of_vector", "vector": 0}
    assert gate.check_evaluate(spec_in, ev["files"], [dict(rec, value=good)]) == [[]]
    bad = str(Fraction(good) + Fraction(1, 10**9))
    assert gate.check_evaluate(spec_in, ev["files"], [dict(rec, value=bad)]) != [[]]
    assert gate.check_evaluate(spec_in, ev["files"], [dict(rec, error="ValueError()")]) != [[]]


def _vector(spec_in):
    from inducibility.partite import PartiteVector
    return PartiteVector.from_json(spec_in["vectors"][0]["json"])


# ---------------------------------------------------------------------------
# BENCHMARK.json matches what the runs print
# ---------------------------------------------------------------------------

def test_benchmark_json_names_match_the_runs():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def units(metrics):
        return {m["name"]: m["unit"] for m in metrics}

    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    e2e = run.end_to_end([0.3], [{"wall_s": 1.0, "peak_rss_mb": 50.0}])
    assert units(bench["end_to_end"]) == {k: u for k, (_, u) in e2e.items()}
    plain = {"wall_s": 1.0, "ops": [], "results": [{}]}
    traced = {"wall_s": 1.2, "ops": [{"name": "x", "problems": []}], "results": [{}]}
    layer = run.per_layer(plain, traced)
    assert units(bench["per_layer"]) == {k: u for k, (_, u) in layer.items()}
    assert set(layers.SPAN_NAMES) <= {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]}
