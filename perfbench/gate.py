"""Correctness gate: each operation's outcome against its expected outcome
and against an independent route to the same exact value.

``check_cli`` and ``check_evaluate`` return a list of problems; an empty list
means the operation passed. They run in the benchmark process, after the
child has exited, so nothing here is timed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

from inducibility.cli import parse_objective
from inducibility.graphs import CompletePartiteShape, Graph, canonical_key, parse_graph_text
from inducibility.objectives import ObjectiveSpec
from inducibility.partite import (PartiteVector, density_formula, lambda_of_shape,
                                  sampling_density)
from inducibility.certificates import krt_value

import inputs
from evaluate import spec_builder

# Exact values the paper proves and the tests pin.
CONSTANTS = {"k311": (Fraction(216, 625), (3, 1, 1)), "k2111": (Fraction(525, 1024), (2, 1, 1, 1))}
KST_VALUES = {(2, 2): Fraction(3, 8), (2, 3): Fraction(5, 8), (3, 2): Fraction(5, 8),
              (2, 5): Fraction(28, 81)}
# s = 1 maximisers are irrational; the report currently prints lambda_max = None
KST_WITHOUT_VALUE = {(1, 4), (1, 9)}
# krt(3, 2) violates the t > 1 + log r hypothesis: verdict fail, exit 1, by design
KRT_FAILING = {(3, 2)}


def check_cli(check: dict, exit_code, stdout: str) -> list[str]:
    kind = check["type"]
    want_exit = 1 if kind == "krt" and (check["r"], check["t"]) in KRT_FAILING else 0
    problems = []
    if exit_code != want_exit:
        problems.append(f"exit {exit_code}, expected {want_exit}")
    try:
        report = json.loads(stdout.split("\n", 1)[1])
        result = report["result"]
    except (IndexError, ValueError, KeyError, TypeError):
        return problems + ["no JSON report on stdout"]
    want_verdict = "value" if kind in ("opt", "finite") else ("fail" if want_exit else "pass")
    if report.get("verdict") != want_verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {want_verdict!r}")
    try:
        problems += CHECKS[kind](check, result)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        problems.append(f"malformed result: {e!r}")
    return problems


def _value(text) -> Fraction | None:
    return None if text is None else Fraction(text)


def _vector(obj: dict) -> PartiteVector:
    return PartiteVector.from_json(json.dumps(obj))


def _certify_constant(check: dict, result: dict) -> list[str]:
    value, partition = CONSTANTS[check["type"]]
    lam = _value(result["lambda_max"])
    problems = [] if lam == value else [f"lambda_max {lam}, expected {value}"]
    at_max = density_formula(partition, _vector(result["maximiser"]))
    if at_max != value:
        problems.append(f"density at the reported maximiser is {at_max}, expected {value}")
    return problems


def _certify_krt(check: dict, result: dict) -> list[str]:
    want = krt_value(check["r"], check["t"])
    lam = _value(result["lambda_max"])
    return [] if lam == want else [f"lambda_max {lam}, krt_value gives {want}"]


def _certify_kst(check: dict, result: dict) -> list[str]:
    s, t = check["s"], check["t"]
    lam = _value(result["lambda_max"])
    if lam is None:
        return [] if (s, t) in KST_WITHOUT_VALUE else ["lambda_max missing"]
    problems = []
    if (s, t) in KST_VALUES and lam != KST_VALUES[s, t]:
        problems.append(f"lambda_max {lam}, expected {KST_VALUES[s, t]}")
    at_max = density_formula((s, t), _vector(result["maximiser"]))
    if at_max != lam:
        problems.append(f"density at the reported maximiser is {at_max}, not {lam}")
    return problems


def _opt(check: dict, result: dict) -> list[str]:
    spec = parse_objective(check["objective"])
    problems = []
    for cand in result["candidates"]:
        if cand["vector"] is None:
            continue
        via = density_route(spec, _vector(cand["vector"]))
        if via != _value(cand["lambda_exact"]):
            problems.append(f"candidate value {cand['lambda_exact']}, density route gives {via}")
    return problems


def _finite(check: dict, result: dict) -> list[str]:
    spec = parse_objective(check["objective"])
    lam = _value(result["lambda_n"])
    problems = [] if result["shapes"] else ["no extremal shape"]
    for sizes in result["shapes"]:
        via = lambda_of_shape(spec, CompletePartiteShape(sizes))
        if sum(sizes) != check["n"] or via != lam:
            problems.append(f"shape {sizes} has value {via}, reported {lam}")
    return problems


def _oracle(check: dict, result: dict) -> list[str]:
    brute, scan = result["lambda_all_graphs"], result["lambda_complete_partite"]
    return [] if brute == scan else [f"brute force {brute} differs from partite scan {scan}"]


CHECKS = {"k311": _certify_constant, "k2111": _certify_constant, "krt": _certify_krt,
          "kst": _certify_kst, "opt": _opt, "finite": _finite, "oracle": _oracle}


# ---------------------------------------------------------------------------
# evaluate workload
# ---------------------------------------------------------------------------

def density_route(spec: ObjectiveSpec, x: PartiteVector) -> Fraction:
    """lambda(x) as sum over partitions b of k of gamma(K_b) * p(K_b, x):
    a sample from a partite vector always induces a complete partite graph."""
    return sum((spec.on_complete_partite(b) * density_formula(b, x)
                for b in inputs.partitions(spec.k)), Fraction(0))


def check_evaluate(spec_in: dict, files: dict, records: list[dict]) -> list[list[str]]:
    """Problems per record of one spec's evaluations, in record order."""
    spec = spec_builder(spec_in["objective"], files)()
    graph = parse_graph_text(files[spec_in["graph"]])
    out = []
    for rec in records:
        if rec.get("error"):
            out.append([f"raised {rec['error']}"])
            continue
        op = rec["op"]
        if op == "lambda_of_vector":
            x = PartiteVector.from_json(spec_in["vectors"][rec["vector"]]["json"])
            out.append(_lambda_routes(spec_in["objective"], spec, x, Fraction(rec["value"])))
        elif op == "lambda_graph":
            via = _lambda_graph_direct(spec, graph)
            out.append([] if via == Fraction(rec["value"])
                       else [f"lambda_graph {rec['value']}, subset average gives {via}"])
        elif op == "symmetrise_full":
            out.append(_symmetrise_trace(spec, graph, json.loads(rec["value"])))
        else:
            out.append([])
    return out


def _lambda_routes(objective: dict, spec: ObjectiveSpec, x: PartiteVector,
                   value: Fraction) -> list[str]:
    routes = {"density_route": density_route(spec, x)}
    if objective["kind"] == "KP":
        routes["density_formula"] = density_formula(objective["parts"], x)
        routes["sampling_density"] = sampling_density(objective["parts"], x)
    elif objective["kind"] == "SUM":
        routes["signed_density_sum"] = sum(
            (Fraction(c) * density_formula(a, x) for c, a in objective["terms"]), Fraction(0))
    return [f"lambda_of_vector {value}, {name} gives {via}"
            for name, via in routes.items() if via != value]


def _lambda_graph_direct(spec: ObjectiveSpec, g: Graph) -> Fraction:
    subsets = list(combinations(range(g.n), spec.k))
    total = sum((spec.gamma[canonical_key(g.induced(s))] for s in subsets), Fraction(0))
    return total / len(subsets)


def _symmetrise_trace(spec: ObjectiveSpec, g: Graph, trace: dict) -> list[str]:
    problems = []
    lam = _lambda_graph_direct(spec, g)
    for step in trace["steps"]:
        before, after = Fraction(step["lambda_before"]), Fraction(step["lambda_after"])
        if before != lam or after < before:
            problems.append(f"step {step} is not monotone from {lam}")
        lam = after
    sizes = trace["final_part_sizes"]
    if sizes is None or lambda_of_shape(spec, CompletePartiteShape(sizes)) != lam:
        problems.append(f"final shape {sizes} does not have the final value {lam}")
    return problems
