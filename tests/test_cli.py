import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from inducibility.cli import main, parse_objective, validate_report
from inducibility.graphs import Graph, write_graph_text

from helpers import count_calls, pattern_e


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_objective_forms():
    assert parse_objective("KP 2,1,1,1").k == 5
    spec = parse_objective("SUM 1*KP 3 + -1*KP 1,1,1")
    assert spec.k == 3
    with pytest.raises(Exception):
        parse_objective("nope")


def test_density_vector(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, out = run_cli(["density", "--objective", "KP 2,2",
                         "--vector", '{"x0":"0","parts":["1/2","1/2"]}',
                         "--quiet", "--out", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == "3/8"
    report = json.loads(out_file.read_text())
    validate_report(report)
    assert report["result"]["lambda"] == "3/8"


def test_density_graph(capsys, tmp_path):
    g = Graph.complete_partite([3, 3])
    p = tmp_path / "g.txt"
    p.write_text(write_graph_text(g))
    code, out = run_cli(["density", "--objective", "KP 2,2", "--graph", str(p),
                         "--quiet"], capsys)
    assert code == 0 and out.strip() == "3/5"


def test_symmetrise_zero_steps(capsys, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(write_graph_text(Graph.complete_partite([2, 2])))
    trace = tmp_path / "t.json"
    code, out = run_cli(["symmetrise", "--objective", "KP 2,2", "--graph", str(p),
                         "--trace-out", str(trace), "--quiet"], capsys)
    assert code == 0
    assert json.loads(trace.read_text())["steps"] == []


def test_certify_exit_codes(capsys, tmp_path):
    out_file = tmp_path / "c.json"
    code, out = run_cli(["certify", "kst", "--s", "2", "--t", "2",
                         "--quiet", "--out", str(out_file)], capsys)
    assert code == 0
    rep = json.loads(out_file.read_text())
    validate_report(rep)
    assert rep["verdict"] == "pass"
    assert rep["result"]["lambda_max"] == "3/8"
    code, _ = run_cli(["certify", "krt", "--r", "3", "--t", "2", "--quiet"], capsys)
    assert code == 1


KRT_PAIRS = [(r, t) for r in range(2, 7) for t in range(2, 7) if r * t <= 12]


@pytest.mark.parametrize("r,t", KRT_PAIRS, ids=[f"krt({r},{t})" for r, t in KRT_PAIRS])
def test_certify_krt_runs_every_accepted_size(r, t, capsys):
    """Every rt <= 12 ends in a verdict (exit 0 or 1), never a usage error;
    below t > 1 + log r only the hypothesis check fails."""
    code = main(["certify", "krt", "--r", str(r), "--t", str(t), "--quiet"])
    captured = capsys.readouterr()
    assert code == (1 if t == 2 and r >= 3 else 0), captured.err
    assert captured.err == ""


def test_certify_kst_rejects_negative_sizes(capsys):
    """Two negative sizes have a product >= 2, so only s, t >= 1 keeps them
    from reaching the root isolation."""
    for s, t in (("-1", "-3"), ("-2", "-2"), ("-1", "3"), ("0", "3")):
        assert main(["certify", "kst", "--s", s, "--t", t, "--quiet"]) == 3, (s, t)
        captured = capsys.readouterr()
        assert captured.err.startswith("error: need s") and "Traceback" not in captured.err
        assert captured.out == ""


def test_strictness_exit_codes(capsys):
    code, _ = run_cli(["strictness", "--objective", "KP 2,2",
                       "--vector", '{"x0":"0","parts":["1/2","1/2"]}',
                       "--quiet"], capsys)
    assert code == 0
    code, _ = run_cli(["strictness",
                       "--objective", "SUM 1*KP 3 + 1*KP 2,1 + 1*KP 1,1,1",
                       "--vector", '{"x0":"1","parts":[]}', "--quiet"], capsys)
    assert code == 1


def test_opt_finite(capsys):
    code, out = run_cli(["opt", "--objective", "KP 2,2", "--mode", "finite",
                         "--n", "8", "--quiet"], capsys)
    assert code == 0 and "[4, 4]" in out


def test_opt_verdict_line_takes_lambda_of_the_printed_vector(capsys, tmp_path):
    """The first candidate does not snap here; the verdict line prints the
    first snapped vector with that candidate's exact lambda."""
    out_file = tmp_path / "r.json"
    code, out = run_cli(["opt", "--objective", "KP 2,2,1", "--max-support", "1",
                         "--starts", "40", "--seed", "1", "--out", str(out_file)], capsys)
    assert code == 0
    candidates = json.loads(out_file.read_text())["result"]["candidates"]
    assert not candidates[0]["snapped"]
    best = next(c for c in candidates if c["snapped"])
    assert (best["vector"], best["lambda_exact"]) == ({"x0": "1/10", "parts": ["9/10"]}, "0")
    assert out.strip() == 'best {"x0": "1/10", "parts": ["9/10"]} lambda = 0'


def test_oracle(capsys):
    code, out = run_cli(["oracle", "--objective", "KP 2,1", "--n", "5", "--quiet"], capsys)
    assert code == 0


# sha256 of the `oracle --out` report for each objective of the benchmark's
# oracle pool, at n = 7 and at n = k; pinned while the brute force still
# scanned iso_classes(n), so a scan that finds another value, another
# witness count or another verdict shows here
ORACLE_REPORT_SHA256 = [
    ("KP 2,1,1", 4, "86411bd49b13db4b191427a5b105587ebe5cd14bd539e3f32b1e0601a9721a39"),
    ("KP 2,1,1", 7, "76c3180a78bee992487866a088a25a90010af26d22807d2aff49d1794dd9a1a2"),
    ("KP 3,1", 4, "ca1095277f1ee20b43f12923f58711f90da794905014a886727ed9ae412d5e49"),
    ("KP 3,1", 7, "ca9c28366dec3f9c1b1c3ef8a0523e4e5e643edf7dfe40dcccb81d54dbdab125"),
    ("KP 2,2,1", 5, "6de41a05d2be9f29a538bf2b731f475a575c9b6b1cd123053db6298f4f83a977"),
    ("KP 2,2,1", 7, "92cb68fe07729af50c7dcd5ce7946ab19e5ed088198c8c14a1dd730483e1cea4"),
    ("KP 3,1,1", 5, "57014183729bdd0001ef686dc15008f38bb7baeaa4b1964cad619d21d714fd54"),
    ("KP 3,1,1", 7, "7f461762dfd505fe82e9f5c2cb87550971807eecbcc0979d61825c50329834ba"),
    ("KP 3,2", 5, "8d191799021856a5a04f8ceeb5ee722ce5ded0e83f2055e03cd631e256124b98"),
    ("KP 3,2", 7, "1862ada8e7f1207fcfee32649b90c8e6ba4134d424515ccc631ddbcd72f6aa4e"),
    ("SUM 1*KP 2,2 + 1*KP 4", 4,
     "64a5a3b4cb510b68a3d7623a97f1eee7b70a1000371018043b8425f871f9e19a"),
    ("SUM 1*KP 2,2 + 1*KP 4", 7,
     "6d19528cf966f0e993a8120da846fe92cfe71b7c8dec8a2bf66864765ee252b1"),
    ("SUM 1*KP 2,1,1 + -1/2*KP 1,1,1,1", 4,
     "8349cc8b9a7a2191443e96e5cd34120d45796bc6b97e5b5b567f1e0b60964837"),
    ("SUM 1*KP 2,1,1 + -1/2*KP 1,1,1,1", 7,
     "e63d1b4f06672dd37ef452b8d85b40492df0e36383238c5d64c43dcbe9cf284a"),
]


@pytest.mark.parametrize("objective,n,digest", ORACLE_REPORT_SHA256,
                         ids=[f"{o} n={n}" for o, n, _ in ORACLE_REPORT_SHA256])
def test_oracle_report_bytes_are_pinned(objective, n, digest, capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run_cli(["oracle", "--objective", objective, "--n", str(n),
                       "--out", str(out_file), "--quiet"], capsys)
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_edit_distance_vectors(capsys):
    code, out = run_cli(["edit-distance",
                         "--vector", '{"x0":"0","parts":["1/2","1/2"]}',
                         "--vector", '{"x0":"1","parts":[]}', "--quiet"], capsys)
    assert code == 0 and out.strip() == "1/2"


def test_usage_errors(capsys):
    assert run_cli(["density", "--objective", "KP 2,2", "--quiet"], capsys)[0] == 3
    assert run_cli(["density", "--objective", "BAD", "--vector",
                    '{"x0":"1","parts":[]}', "--quiet"], capsys)[0] == 3
    assert main(["nonsense"]) == 3
    assert main(["--threads", "1", "density", "--objective", "KP 2,1", "--vector",
                 '{"x0":"1","parts":[]}']) == 3
    capsys.readouterr()
    for cmd in (["density", "--vector", '{"x0":"1","parts":[]}'], ["opt"]):
        assert main(cmd + ["--objective", "KP 5,4", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: objective arity k = 9 exceeds the 8-vertex limit")
    # hostile objective and vector strings: a usage error, never a traceback or a pass
    for objective, vector, message in [
            ("SUM 1/0*KP 2,1", '{"x0":"1","parts":[]}', "bad SUM coefficient: '1/0' is not"),
            ("KP 2,1", '{"x0":"0","parts":["1/0"]}', "vector JSON: '1/0' is not a rational"),
            ("KP 2,1", '{"x0":"1/0","parts":[]}', "vector JSON: '1/0' is not a rational"),
            ("KP 2,1", '[1]', 'expected an object with a "parts" list'),
            ("KP 2,1", '{"x0":"0","parts":"1"}', 'expected an object with a "parts" list'),
            ("KP 2,1", '{"x0":"0","parts":[0.5, 0.5]}', "0.5 is not a rational string"),
            ("KP 2,1", '{"x0":"0","parts":[true]}', "True is not a rational string"),
            ("KP 2,1", '{"parts":["1e-2"]}', "vector JSON: '1e-2' is not a rational"),
            ("SUM 1E0*KP 2,1", '{"x0":"1","parts":[]}', "bad SUM coefficient: '1E0' is not")]:
        assert main(["density", "--objective", objective, "--vector", vector, "--quiet"]) == 3
        assert message in capsys.readouterr().err
    gradients = ["gradients", "--objective", "KP 2,1", "--vector",
                 '{"x0":"1/2","parts":["1/4","1/4"]}', "--quiet", "--pattern"]
    assert main(gradients + ['{"b": {"1": 1, "2": 0}, "alpha": "1/2"}']) == 0
    capsys.readouterr()
    for pattern, message in [
            ('[1]', 'pattern JSON: expected an object whose "b" maps'),
            ('{"b": [1]}', 'pattern JSON: expected an object whose "b" maps'),
            ('{"b": {"1": true}}', 'pattern JSON: expected an object whose "b" maps'),
            ('{"b": {"x": 1}}', 'pattern JSON: expected an object whose "b" maps'),
            ('{"b": {"1": 0}, "alpha": "1/0"}', "pattern JSON: 'alpha' '1/0' is not a rational"),
            ('{"b": {"1": 0}, "alpha": 0.5}', "pattern JSON: 'alpha' 0.5 is not a rational")]:
        assert main(gradients + [pattern]) == 3
        assert message in capsys.readouterr().err
    for option, value in [("--max-support", "0"), ("--max-support", "11"), ("--starts", "-1")]:
        assert main(["opt", "--objective", "KP 2,1", option, value, "--quiet"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {option} must be")


@pytest.mark.parametrize("objective, message", [
    ("SUM 1*KP 2,1 +", "empty SUM term in 'SUM 1*KP 2,1 +'"),
    ("SUM + 1*KP 2,1", "empty SUM term"),
    ("SUM 1*KP 2,1 ++ 1*KP 3", "empty SUM term"),
    ("SUM ", "empty SUM objective"),
    ("KP 2,,1", "bad partition ' 2,,1'"),
    ("KP 2,1,", "bad partition ' 2,1,'"),
    ("KP ,2,1", "bad partition ' ,2,1'"),
    ("KP 2 1", "bad partition ' 2 1'"),  # not K_21
    ("KP 2_1", "bad partition ' 2_1'"),  # not K_21 either
    ("SUM 1*KP 2,1, + 1*KP 3", "bad partition ' 2,1,'"),
])
def test_objective_grammar_refuses_empty_chunks(objective, message, capsys):
    """An empty SUM term or partition part is a usage error, not skipped."""
    assert main(["density", "--objective", objective, "--vector", '{"parts":["1"]}',
                 "--quiet"]) == 3
    assert message in capsys.readouterr().err
    assert main(["density", "--objective", "SUM 1*KP 2, 1 + -1*KP 3", "--vector",
                 '{"parts":["1"]}', "--quiet"]) == 0  # spaces around parts stay fine


def test_gamma_table_file(capsys, tmp_path):
    from inducibility.graphs import iso_classes
    table = {"k": 3, "values": []}
    for g in iso_classes(3):
        table["values"].append({"n": 3, "edges": [list(e) for e in g.edges()],
                                "value": "1" if len(g.edges()) == 3 else "0"})
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps(table))
    code, out = run_cli(["density", "--objective", f"@{p}",
                         "--vector", '{"x0":"1","parts":[]}', "--quiet"], capsys)
    assert code == 0 and out.strip() == "1"   # clique mass only: every triple is a triangle


def _k3_table(first=None, extra=None):
    """A valid k = 3 gamma table (value 1 on the triangle), with its first
    entry replaced by ``first`` and ``extra`` appended."""
    entries = [{"n": 3, "edges": e, "value": "0"} for e in ([], [[0, 1]], [[0, 1], [1, 2]])]
    entries.append({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "value": "1"})
    if first is not None:
        entries[0] = first
    return {"k": 3, "values": entries + ([extra] if extra else [])}


@pytest.mark.parametrize("table", [
    {"k": 3, "values": {"a": 1}},
    [1, 2, 3],
    {"k": None, "values": []},
    {"k": 10**12, "values": [{"edges": [], "value": "0"}]},
    _k3_table({"n": 3, "edges": [5], "value": "0"}),
    _k3_table({"n": None, "edges": [], "value": "0"}),
    _k3_table({"n": 3, "edges": [], "value": None}),
    _k3_table({"n": 3, "edges": [], "value": 0.5}),
    _k3_table({"n": 3, "edges": [], "value": "1/0"}),
    _k3_table({"n": 3, "edges": [], "value": "one"}),
    _k3_table("[]"),
    _k3_table({"n": 4, "edges": [], "value": "0"}),
    # the single-edge class listed again: relabelled, and verbatim
    _k3_table(extra={"n": 3, "edges": [[1, 2]], "value": "7"}),
    _k3_table(extra={"n": 3, "edges": [[0, 1]], "value": "7"}),
], ids=["values-object", "top-level-list", "k-null", "k-huge", "edge-not-pair", "n-null", "value-null",
        "value-float", "value-div-zero", "value-text", "entry-not-object", "wrong-order",
        "class-twice", "graph-twice"])
def test_bad_gamma_table_is_usage_error(capsys, tmp_path, table):
    p = tmp_path / "gamma.json"
    p.write_text(json.dumps(table))
    code = main(["density", "--objective", f"@{p}", "--vector", '{"x0":"1","parts":[]}', "--quiet"])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err and err.startswith("error: ")


def test_report_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for f in (a, b):
        run_cli(["opt", "--objective", "KP 2,2", "--starts", "25",
                 "--max-support", "4", "--seed", "3", "--quiet", "--out", str(f)],
                capsys)
    assert a.read_bytes() == b.read_bytes()


def test_opt_starts_is_a_floor(capsys, tmp_path):
    """The fixed starts always run; --starts only adds random ones up to it."""
    out = tmp_path / "r.json"
    for starts, ran in (("0", 32), ("40", 40)):
        run_cli(["opt", "--objective", "KP 2,1", "--max-support", "3", "--starts", starts,
                 "--quiet", "--out", str(out)], capsys)
        assert json.loads(out.read_text())["result"]["provenance"]["starts"] == ran


def test_module_entry_point(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "inducibility", "density", "--objective", "KP 2,2",
         "--vector", '{"x0":"0","parts":["1/2","1/2"]}', "--quiet"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3/8"


def test_vertex_symmetrise_tied_clones_fail_within_step_bound(tmp_path):
    """Tied clones alternate forever under this non-eligible objective (g - 6
    has parts {0}, {1,2,3}, {4,5}); the C(n,2) step bound ends the run with
    exit 1 and a fail verdict."""
    edges = [(0, v) for v in range(1, 7)] + [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5),
                                             (2, 6), (3, 4), (3, 5), (5, 6)]
    path = tmp_path / "g.txt"
    path.write_text(write_graph_text(Graph.from_edges(7, edges)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "inducibility", "symmetrise", "--objective",
         "SUM -1*KP 2,2 + 1*KP 1,1,1,1", "--graph", str(path), "--vertex", "6"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout.startswith("fail: ")
    report = json.loads(proc.stdout.split("\n", 1)[1])
    assert report["verdict"] == "fail"


def test_gradients_report(capsys, tmp_path):
    out_file = tmp_path / "g.json"
    code, _ = run_cli(["gradients", "--objective", "KP 2,1,1,1",
                       "--vector", json.dumps({"x0": "0", "parts": ["1/8"] * 8}),
                       "--quiet", "--out", str(out_file)], capsys)
    assert code == 0
    rep = json.loads(out_file.read_text())
    validate_report(rep)
    assert rep["result"]["flip_gradients"]["1,2"] == "75/256"
    assert rep["result"]["lagrange_residual"] == "0"


def test_gradients_alpha_without_clique_mass(capsys, tmp_path):
    """Without clique mass the attachment polynomial is constant, so a
    pattern with alpha = 1/2 gives the vertex gradient of alpha = 1."""
    grads = {}
    for alpha in ("1/2", "1"):
        out_file = tmp_path / "g.json"
        pattern = json.dumps({"b": {"1": 1, "2": 0}, "alpha": alpha})
        code, _ = run_cli(["gradients", "--objective", "KP 2,1,1", "--vector",
                           '{"x0":"0","parts":["1/2","1/4","1/4"]}', "--quiet",
                           "--pattern", pattern, "--out", str(out_file)], capsys)
        assert code == 0
        grads[alpha] = json.loads(out_file.read_text())["result"]["vertex_gradients"][pattern]
    assert grads["1/2"] == grads["1"] and len(grads["1"]["alpha_poly"]) <= 1
    assert grads["1"]["value"] != "0"


def test_certify_k2111_cli_report(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run_cli(["certify", "k2111", "--quiet", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    assert '"lambda_max": "525/1024"' in text
    validate_report(json.loads(text))


def test_density_kp221_thirty_parts(capsys, tmp_path):
    """lambda on 30 parts plus clique mass: 31^5 draw multisets would be far
    too many to enumerate, the closed form needs none."""
    from fractions import Fraction as F
    from inducibility.partite import PartiteVector, density_formula
    parts = sorted((F(1 + i % 4, 90) for i in range(30)), reverse=True)
    x = PartiteVector(parts)
    assert x.x0 > 0
    out_file = tmp_path / "d.json"
    code, _ = run_cli(["density", "--objective", "KP 2,2,1", "--vector", x.to_json(),
                       "--quiet", "--out", str(out_file)], capsys)
    assert code == 0
    rep = json.loads(out_file.read_text())
    validate_report(rep)
    assert rep["result"]["lambda"] == str(density_formula([2, 2, 1], x))


def test_gradients_kp221_clone_values_match_attach(capsys, tmp_path, monkeypatch):
    """Clone values and the Lagrange residual of the report equal the
    attachment route, k - 1 draws per clone pattern; the report reads lambda
    from its clone values, with no lambda_of_vector call."""
    from fractions import Fraction as F
    from inducibility.partite import PartiteVector, lambda_of_vector
    from inducibility.perturbation import attach_value
    x = PartiteVector([F(1, 8), F(1, 8), F(1, 10), F(1, 10), F(1, 10), F(1, 12), F(1, 12),
                       F(1, 20)])
    assert x.x0 > 0
    out_file = tmp_path / "g.json"
    calls = count_calls(monkeypatch, "lambda_of_vector")
    code, _ = run_cli(["gradients", "--objective", "KP 2,2,1", "--vector", x.to_json(),
                       "--quiet", "--out", str(out_file)], capsys)
    assert code == 0 and calls == []
    rep = json.loads(out_file.read_text())
    validate_report(rep)
    spec = parse_objective("KP 2,2,1")
    clones = {i: attach_value(spec, x, pattern_e(i, x)).value for i in x.supp_star}
    assert rep["result"]["clone_values"] == {str(i): str(v) for i, v in clones.items()}
    lam = lambda_of_vector(spec, x)
    assert rep["result"]["lagrange_residual"] == str(max(abs(v - lam) for v in clones.values()))


def test_vertex_symmetrise_non_partite_end_reports_null_shape(capsys, tmp_path):
    # g - 6 is complete partite with parts {0}, {1, 2}, {3, 4, 5}; vertex 6 ends
    # joined to {1, 2} and not to the other two parts, so g is not complete partite
    p = tmp_path / "g.txt"
    p.write_text("n 7\n0 1\n0 2\n0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n"
                 "2 3\n2 4\n2 5\n2 6\n3 6\n")
    out_file = tmp_path / "r.json"
    code, out = run_cli(["symmetrise", "--objective", "SUM 1*KP 3 + 1*KP 2,1",
                         "--graph", str(p), "--vertex", "6", "--out", str(out_file)], capsys)
    assert code == 0
    assert out.strip() == "pass: 2 steps, final parts None"
    result = json.loads(out_file.read_text())["result"]
    assert result["final_part_sizes"] is None
    assert result["lambda_final"] == "26/35"
