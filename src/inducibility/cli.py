"""Command line interface.

One binary, one subcommand per pipeline: density evaluation, symmetrisation,
gradient/strictness reports, finite and continuous maximiser search, the four
certificate pipelines, brute-force oracle cross-checks and edit distances.

All machine output is a JSON report (schema inducibility.report/1, rationals
as "p/q" strings); the human-readable verdict goes to stdout. Exit codes:
0 success/pass, 1 check failed, 2 inconclusive (budget exhausted), 3 usage
error. Reports are deterministic for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import (certificates, graphs, objectives, optsearch, partite, perturbation,
               polynomials, strictness, symmetrise)

SCHEMA_ID = "inducibility.report/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

MAX_STARTS = 10_000  # opt --starts: 50 times the default 200, so a run stays bounded


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def parse_objective(text: str) -> objectives.ObjectiveSpec:
    """Mini-language: "KP a1,a2,..." | "SUM c1*KP ... + c2*KP ..." | @table.json"""
    text = text.strip()
    if text.startswith("@"):
        return _objective_from_table_file(Path(text[1:]))
    if text.upper().startswith("KP"):
        return objectives.ObjectiveSpec.partite_density(_parse_partition(text[2:]))
    if text.upper().startswith("SUM"):
        if not text[3:].strip():
            raise UsageError("empty SUM objective")
        terms = []
        for chunk in text[3:].split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise UsageError(f"empty SUM term in {text!r}: '+' must join two c*KP terms")
            if "*" not in chunk:
                raise UsageError(f"bad SUM term {chunk!r}: expected c*KP a,b,...")
            coeff_txt, kp = chunk.split("*", 1)
            kp = kp.strip()
            if not kp.upper().startswith("KP"):
                raise UsageError(f"bad SUM term {chunk!r}: expected c*KP a,b,...")
            try:
                coeff = polynomials.parse_rational(coeff_txt.strip())
            except ValueError as e:
                raise UsageError(f"bad SUM coefficient: {e}") from e
            terms.append((coeff, _parse_partition(kp[2:])))
        return objectives.ObjectiveSpec.combination(terms)
    raise UsageError(f"cannot parse objective {text!r}")


def _parse_partition(text: str) -> list[int]:
    """Positive decimal integers joined by commas; spaces only around them."""
    chunks = [x.strip() for x in text.split(",")]
    if not all(x.isascii() and x.isdigit() for x in chunks):
        raise UsageError(f"bad partition {text!r}: expected positive integers joined by commas")
    parts = [int(x) for x in chunks]
    if any(p <= 0 for p in parts):
        raise UsageError(f"bad partition {text!r}")
    return parts


def _objective_from_table_file(path: Path) -> objectives.ObjectiveSpec:
    """{"k": int, "values": [{"n": int (default k), "edges": [[u, v], ...],
    "value": rational string or integer}, ...]}, one entry per class."""
    obj = json.loads(path.read_text())
    if not (isinstance(obj, dict) and _is_int(obj.get("k")) and 3 <= obj["k"] <= graphs.CANON_MAX
            and isinstance(obj.get("values"), list)):
        raise UsageError(f"gamma table {path.name}: expected an object with an integer 'k' "
                         f"from 3 to {graphs.CANON_MAX} and a 'values' list")
    k = obj["k"]
    table = {}
    for i, entry in enumerate(obj["values"]):
        where = f"gamma table {path.name}, values[{i}]"
        if not (isinstance(entry, dict) and _is_int(entry.get("n", k)) and entry.get("n", k) == k
                and isinstance(entry.get("edges"), list)
                and all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
                        for e in entry["edges"])):
            raise UsageError(f"{where}: expected 'n' = k = {k} and 'edges' as [u, v] pairs")
        try:
            value = polynomials.parse_rational(entry.get("value"))
        except ValueError as e:
            raise UsageError(f"{where}: 'value' {e}") from e
        g = graphs.Graph.from_edges(k, [tuple(e) for e in entry["edges"]])
        if g in table:
            raise UsageError(f"{where}: repeats the graph of an earlier entry")
        table[g] = value
    return objectives.ObjectiveSpec.from_table(k, table, label=f"@{path.name}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def parse_vector(text: str) -> partite.PartiteVector:
    text = text.strip()
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return partite.PartiteVector.from_json(text)


def _parse_pattern(text: str) -> perturbation.AttachmentPattern:
    """{"b": {"<part index>": 0 or 1, ...}, "alpha": rational string (default "1")}."""
    obj = json.loads(text)
    b = obj.get("b") if isinstance(obj, dict) else None
    if not (isinstance(b, dict) and all(k.isdecimal() and _is_int(v) and v in (0, 1)
                                        for k, v in b.items())):
        raise UsageError('pattern JSON: expected an object whose "b" maps integer '
                         'strings to 0 or 1')
    try:
        alpha = polynomials.parse_rational(obj.get("alpha", "1"))
    except ValueError as e:
        raise UsageError(f"pattern JSON: 'alpha' {e}") from e
    return perturbation.AttachmentPattern({int(k): v for k, v in b.items()}, alpha)


def read_graph(path: str) -> graphs.Graph:
    if path == "-":
        return graphs.parse_graph_text(sys.stdin.read())
    return graphs.parse_graph_text(Path(path).read_text())


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

def make_report(command: str, verdict: str, result: dict,
                objective: Optional[str] = None) -> dict:
    return {"schema": SCHEMA_ID, "command": command, "objective": objective,
            "verdict": verdict, "result": result}


def validate_report(report: dict) -> None:
    """Validate a report against the shipped schema (envelope subset)."""
    schema = json.loads((Path(__file__).parent / "data" / "report.schema.json").read_text())
    for key in schema["required"]:
        if key not in report:
            raise ValueError(f"report missing key {key!r}")
    if report["schema"] != SCHEMA_ID:
        raise ValueError("wrong schema id")
    if report["verdict"] not in schema["properties"]["verdict"]["enum"]:
        raise ValueError("bad verdict")
    if not isinstance(report["result"], dict):
        raise ValueError("result must be an object")
    _validate_rationals(report["result"])


def _validate_rationals(node) -> None:
    if isinstance(node, dict):
        for v in node.values():
            _validate_rationals(v)
    elif isinstance(node, list):
        for v in node:
            _validate_rationals(v)
    elif isinstance(node, str) and _looks_rational(node):
        Fraction(node)  # raises on malformed p/q


def _looks_rational(s: str) -> bool:
    body = s[1:] if s.startswith("-") else s
    if "/" in body:
        a, _, b = body.partition("/")
        return a.isdigit() and b.isdigit()
    return False


def emit(report: dict, args, verdict_line: str) -> None:
    validate_report(report)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(verdict_line)
    if not args.quiet and not args.out:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_density(args) -> int:
    spec = parse_objective(args.objective)
    if args.vector:
        x = parse_vector(args.vector)
        lam = partite.lambda_of_vector(spec, x)
        result = {"lambda": str(lam), "vector": x.to_jsonable()}
    elif args.graph:
        g = read_graph(args.graph)
        lam = objectives.lambda_graph(spec, g)
        result = {"lambda": str(lam), "n": g.n}
    else:
        raise UsageError("density needs --vector or --graph")
    emit(make_report("density", "value", result, spec.label), args, str(lam))
    return EXIT_PASS


def cmd_symmetrise(args) -> int:
    spec = parse_objective(args.objective)
    g = read_graph(args.graph)
    try:
        if args.vertex is not None:
            trace = symmetrise.symmetrise_vertex(spec, g, args.vertex)
        else:
            trace = symmetrise.symmetrise_full(spec, g)
    except symmetrise.SymmetrisationError as e:
        emit(make_report("symmetrise", "fail", {"error": str(e)}, spec.label),
             args, f"fail: {e}")
        return EXIT_FAIL
    if args.trace_out:
        Path(args.trace_out).write_text(trace.to_json() + "\n")
    if trace.steps:
        lam_initial, lam_final = trace.steps[0].lam_before, trace.steps[-1].lam_after
    else:
        lam_initial = lam_final = objectives.lambda_graph(spec, g)
    result = {
        "steps": len(trace.steps),
        "monotone": trace.monotone,
        "final_part_sizes": trace.final_shape.part_sizes if trace.final_shape else None,
        "lambda_initial": str(lam_initial),
        "lambda_final": str(lam_final),
        "final_graph": graphs.write_graph_text(trace.final_graph),
    }
    emit(make_report("symmetrise", "pass", result, spec.label), args,
         f"pass: {len(trace.steps)} steps, final parts {result['final_part_sizes']}")
    return EXIT_PASS


def cmd_gradients(args) -> int:
    spec = parse_objective(args.objective)
    x = parse_vector(args.vector)
    strictness.check_budget("gradients", x, "flip", strictness.flip_terms(spec, x))
    flips = {f"{i1},{i2}": str(v) for (i1, i2), v in strictness.check_str1(spec, x)[1].items()}
    clone = perturbation.clone_values(spec, x)
    res = perturbation.clone_residual(x, clone)
    clones = {str(i): str(v) for i, v in clone.items()}
    extras = {}
    for pat in args.pattern or []:
        vg = perturbation.vertex_gradient(spec, x, _parse_pattern(pat))
        extras[pat] = {"value": str(vg.value),
                       "alpha_poly": [str(c) for c in vg.poly.coeffs]}
    result = {"flip_gradients": flips, "clone_values": clones,
              "lagrange_residual": str(res), "vertex_gradients": extras,
              "vector": x.to_jsonable()}
    emit(make_report("gradients", "value", result, spec.label), args,
         f"lagrange residual {res}")
    return EXIT_PASS


def cmd_strictness(args) -> int:
    spec = parse_objective(args.objective)
    candidates = [parse_vector(v) for v in args.vector]
    report = strictness.strictness_certificate(spec, candidates)
    verdict = "pass" if report.passed else "fail"
    emit(make_report("strictness", verdict, report.to_jsonable(), spec.label), args,
         f"{verdict}: c = {report.c}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_opt(args) -> int:
    spec = parse_objective(args.objective)
    if args.mode == "finite":
        if args.n is None:
            raise UsageError("finite mode needs --n")
        val, shapes = optsearch.finite_opt(spec, args.n)
        result = {"n": args.n, "lambda_n": str(val),
                  "shapes": [s.part_sizes for s in shapes]}
        emit(make_report("opt", "value", result, spec.label), args,
             f"lambda({args.n}) = {val} at {[s.part_sizes for s in shapes]}")
        return EXIT_PASS
    if not 1 <= args.max_support <= 10:
        raise UsageError("--max-support must be from 1 to 10")
    if not 0 <= args.starts <= MAX_STARTS:
        raise UsageError(f"--starts must be from 0 to {MAX_STARTS}")
    extra = [parse_vector(v) for v in (args.seeds or [])]
    cs = optsearch.continuous_opt(spec, args.max_support, starts=args.starts, seed=args.seed,
                                  extra_seeds=extra)
    result = cs.to_jsonable()
    if args.seeds:
        result["provenance"]["extra_seeds"] = args.seeds
    best = cs.best_snapped()
    line = (f"best {best.vector.to_json()} lambda = {best.lam_exact}"
            if best is not None else f"best (unsnapped) lambda ~ {cs.lam_best:.9f}")
    emit(make_report("opt", "value", result, spec.label), args, line)
    return EXIT_PASS


def cmd_certify(args) -> int:
    if args.kind == "kst":
        if args.s is None or args.t is None:
            raise UsageError("certify kst needs --s and --t")
        rep = certificates.certify_kst(args.s, args.t)
    elif args.kind == "krt":
        if args.r is None or args.t is None:
            raise UsageError("certify krt needs --r and --t")
        rep = certificates.certify_krt(args.r, args.t)
    elif args.kind == "k2111":
        rep = certificates.certify_k2111()
    elif args.kind == "k311":
        rep = certificates.certify_k311()
    else:
        raise UsageError(f"unknown certificate {args.kind!r}")
    result = rep.to_jsonable()
    if rep.passed:
        verdict, code = "pass", EXIT_PASS
    elif rep.inconclusive:
        verdict, code = "inconclusive", EXIT_INCONCLUSIVE
    else:
        verdict, code = "fail", EXIT_FAIL
    emit(make_report("certify", verdict, result), args,
         f"{verdict}: {rep.name} lambda_max = {rep.lambda_max}")
    return code


def cmd_oracle(args) -> int:
    spec = parse_objective(args.objective)
    val_all, witnesses = objectives.brute_lambda_max(spec, args.n)
    val_partite, shapes = optsearch.finite_opt(spec, args.n)
    partite_witness = any(graphs.complete_partite_shape_of(g) is not None for g in witnesses)
    agree = val_all == val_partite
    ok = agree and (partite_witness or not spec.eligible)
    result = {
        "n": args.n,
        "lambda_all_graphs": str(val_all),
        "lambda_complete_partite": str(val_partite),
        "witness_classes": len(witnesses),
        "partite_witness_present": partite_witness,
        "extremal_shapes": [s.part_sizes for s in shapes],
    }
    verdict = "pass" if ok else "fail"
    emit(make_report("oracle", verdict, result, spec.label), args,
         f"{verdict}: lambda({args.n}) = {val_all} (partite scan {val_partite})")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_edit_distance(args) -> int:
    if args.vector and len(args.vector) == 2:
        x, y_ = parse_vector(args.vector[0]), parse_vector(args.vector[1])
        d = partite.edit_distance_vectors(x, y_)
        result = {"distance": str(d), "x": x.to_jsonable(), "y": y_.to_jsonable()}
    elif args.graph and len(args.graph) == 2:
        g, h = read_graph(args.graph[0]), read_graph(args.graph[1])
        d = graphs.edit_distance_exact(g, h)
        result = {"distance": str(d), "n": g.n}
    else:
        raise UsageError("edit-distance needs two --vector or two --graph")
    emit(make_report("edit-distance", "value", result), args, str(d))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="inducibility",
        description="exact computation, search and certification of maximisers "
                    "of symmetrisable graph parameters")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--quiet", action="store_true",
                       help="print only the verdict line")

    p = sub.add_parser("density", help="lambda of a vector or a graph")
    p.add_argument("--objective", required=True)
    p.add_argument("--vector", help='JSON {"x0": "p/q", "parts": [...]} or @file')
    p.add_argument("--graph", help="graph text file ('-' for stdin)")
    common(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("symmetrise", help="drive a graph complete partite")
    p.add_argument("--objective", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, help="single-vertex mode at this vertex")
    p.add_argument("--trace-out", help="write the step trace here")
    common(p)
    p.set_defaults(fn=cmd_symmetrise)

    p = sub.add_parser("gradients", help="flip/vertex gradient tables")
    p.add_argument("--objective", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--pattern", action="append",
                   help='extra attachment JSON {"b": {"1": 0}, "alpha": "1/2"}')
    common(p)
    p.set_defaults(fn=cmd_gradients)

    p = sub.add_parser("strictness", help="certify strictness of candidates")
    p.add_argument("--objective", required=True)
    p.add_argument("--vector", action="append", required=True)
    common(p)
    p.set_defaults(fn=cmd_strictness)

    p = sub.add_parser("opt", help="finite or continuous maximiser search")
    p.add_argument("--objective", required=True)
    p.add_argument("--mode", choices=["finite", "continuous"], default="continuous")
    p.add_argument("--n", type=int)
    p.add_argument("--starts", type=int, default=200,
                   help=f"least number of ascent starts, 0 to {MAX_STARTS} (default 200): "
                        "the fixed starts (uniform splits, the clique grid, finite-n shapes "
                        "and --seeds) always run, and random starts fill up to this number; "
                        "provenance.starts gives the count run")
    p.add_argument("--max-support", type=int, default=8,
                   help="most parts a candidate may have, 1 to 10 (default 8)")
    p.add_argument("--seeds", action="append", help="extra seed vectors (JSON)")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser("certify", help="run a certificate pipeline")
    p.add_argument("kind", choices=["kst", "krt", "k2111", "k311"])
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int)
    common(p)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("oracle", help="brute-force cross-check at small n")
    p.add_argument("--objective", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("edit-distance", help="exact edit distance")
    p.add_argument("--vector", action="append")
    p.add_argument("--graph", action="append")
    common(p)
    p.set_defaults(fn=cmd_edit_distance)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
