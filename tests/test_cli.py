import json
import subprocess
import sys

import pytest

from inducibility.cli import main, parse_objective, validate_report
from inducibility.graphs import Graph, write_graph_text


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


def test_oracle(capsys):
    code, out = run_cli(["oracle", "--objective", "KP 2,1", "--n", "5", "--quiet"], capsys)
    assert code == 0


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


def test_gamma_table_file(capsys, tmp_path):
    from inducibility.graphs import iso_classes
    table = {"k": 3, "values": []}
    for g in iso_classes(3):
        table["values"].append({"n": 3, "edges": [list(e) for e in g.edges()],
                                "value": "1" if g.edge_count() == 3 else "0"})
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


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "inducibility", "density", "--objective", "KP 2,2",
         "--vector", '{"x0":"0","parts":["1/2","1/2"]}', "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3/8"


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


def test_certify_k2111_cli_report(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, _ = run_cli(["certify", "k2111", "--quiet", "--out", str(out_file)], capsys)
    assert code == 0
    text = out_file.read_text()
    assert '"lambda_max": "525/1024"' in text
    validate_report(json.loads(text))
