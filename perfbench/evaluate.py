"""The evaluate workload: library calls the way a script makes them.

Runs inside one child process. For each generated objective it builds the
spec once, then makes a few exact evaluations with it. Every call is timed
on its own; the values go back to the benchmark process, which checks them.
Functions are looked up on their modules at call time, so the wrappers of a
traced run see every call.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path


def spec_builder(objective: dict, files: dict):
    """A function that builds the ObjectiveSpec ``objective`` describes; a
    gamma table file is read here, before the build is timed."""
    from inducibility import graphs, objectives
    if objective["kind"] == "KP":
        return lambda: objectives.ObjectiveSpec.partite_density(objective["parts"])
    if objective["kind"] == "SUM":
        terms = [(Fraction(c), a) for c, a in objective["terms"]]
        return lambda: objectives.ObjectiveSpec.combination(terms)
    raw = json.loads(files[objective["file"]])
    table = {graphs.Graph.from_edges(v["n"], [tuple(e) for e in v["edges"]]): Fraction(v["value"])
             for v in raw["values"]}
    return lambda: objectives.ObjectiveSpec.from_table(raw["k"], table, label=objective["file"])


def run(inputs: dict, workdir: Path) -> dict:
    from inducibility import graphs, objectives, partite, perturbation, strictness, symmetrise

    files = {name: (workdir / name).read_text() for name in inputs["files"]}
    clock = time.perf_counter
    per_spec: list[list[dict]] = []
    eval_s = 0.0
    build_s = 0.0

    def call(spec_records, op, vector, fn, *args, show=str):
        nonlocal eval_s
        rec = {"op": op, "vector": vector}
        t = clock()
        try:
            rec["value"] = show(fn(*args))
        except Exception as e:  # a failed evaluation is recorded, the loop goes on
            rec["error"] = repr(e)
        eval_s += clock() - t
        spec_records.append(rec)

    for spec_in in inputs["specs"]:
        spec_records: list[dict] = []
        per_spec.append(spec_records)
        build = spec_builder(spec_in["objective"], files)
        t = clock()
        spec = build()
        build_s += clock() - t

        for vi, v in enumerate(spec_in["vectors"]):
            x = partite.PartiteVector.from_json(v["json"])
            pattern = perturbation.AttachmentPattern(
                {int(i): b for i, b in v["pattern"]["b"].items()}, Fraction(v["pattern"]["alpha"]))
            call(spec_records, "lambda_of_vector", vi, partite.lambda_of_vector, spec, x)
            call(spec_records, "lagrange_residual", vi, perturbation.lagrange_residual, spec, x)
            call(spec_records, "flip_gradient", vi, perturbation.flip_gradient, spec, x, *v["flip"])
            call(spec_records, "attach_value", vi, perturbation.attach_value, spec, x, pattern,
                 show=lambda av: [str(c) for c in av.poly.coeffs])
            if v["strictness"]:
                call(spec_records, "strictness_certificate", vi,
                     strictness.strictness_certificate, spec, [x], show=lambda r: r.to_json())
        g = graphs.parse_graph_text(files[spec_in["graph"]])
        call(spec_records, "lambda_graph", None, objectives.lambda_graph, spec, g)
        if spec_in["symmetrise"]:
            call(spec_records, "symmetrise_full", None, symmetrise.symmetrise_full, spec, g,
                 show=lambda tr: tr.to_json())

    return {"per_spec": per_spec, "evals": sum(map(len, per_spec)), "eval_s": eval_s,
            "specs": len(per_spec), "build_s": build_s}
