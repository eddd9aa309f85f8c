"""Which program functions the traced run wraps, and the per-layer metrics.

Each span name is ``<module>.<function>`` (or a group name such as
``polynomials.sturm``), so the metric ``<span>.calls`` / ``<span>.self_s``
names the layer it belongs to. Counters are read from returned values.
"""

from __future__ import annotations


def _bb(counters: dict, result) -> None:
    counters["intervals.bb_max_bound.boxes"] += result.boxes
    counters["intervals.bb_max_bound.conclusive"] += bool(result.conclusive)


def _search(counters: dict, result) -> None:
    counters["optsearch.starts"] += result.provenance.get("starts", 0)
    counters["optsearch.snapped"] += sum(1 for c in result.candidates if c.snapped)


def _certificate(counters: dict, result) -> None:
    counters["certificates.checks"] += len(result.checks)
    counters["certificates.checks_failed"] += sum(1 for c in result.checks if not c.passed)


def _steps(counters: dict, result) -> None:
    counters["symmetrise.steps"] += len(result.steps)


def _coeff_bits(counters: dict, result) -> None:
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in result.terms.values()), default=0)
    key = "polynomials.resultant.max_coeff_bits"
    counters[key] = max(counters[key], bits)  # MAX_COUNTERS: merged by max, not sum


P = "inducibility."
TARGETS = [
    (P + "graphs", "canonical_key", "graphs.canonical_key", None),
    (P + "graphs", "iso_classes", "graphs.iso_classes", None),
    (P + "graphs", "induced_count", "graphs.induced_count", None),
    (P + "objectives:ObjectiveSpec", "__init__", "objectives.spec_build", None),
    (P + "objectives:ObjectiveSpec", "from_table", "objectives.spec_build", None),
    (P + "objectives:ObjectiveSpec", "combination", "objectives.spec_build", None),
    (P + "objectives:ObjectiveSpec", "partite_density", "objectives.spec_build", None),
    (P + "objectives:ObjectiveSpec", "partition_values", "objectives.partition_values", None),
    (P + "objectives:ObjectiveSpec", "code_table", "objectives.code_table", None),
    (P + "objectives", "lambda_graph", "objectives.lambda_graph", None),
    (P + "partite", "lambda_of_vector", "partite.lambda_of_vector", None),
    (P + "partite", "count_partite", "partite.count_partite", None),
    (P + "partite", "density_formula", "partite.density_formula", None),
    (P + "perturbation", "attach_value", "perturbation.attach_value", None),
    (P + "perturbation", "attach_value_generic", "perturbation.attach_value", None),
    (P + "perturbation", "flip_gradient", "perturbation.flip_gradient", None),
    (P + "perturbation", "flip_gradient_generic", "perturbation.flip_gradient", None),
    (P + "perturbation", "lagrange_residual", "perturbation.lagrange_residual", None),
    (P + "symmetrise", "symmetrise_full", "symmetrise.symmetrise_full", _steps),
    (P + "strictness", "strictness_certificate", "strictness.strictness_certificate", None),
    (P + "optsearch", "continuous_opt", "optsearch.continuous_opt", _search),
    (P + "optsearch", "finite_opt", "optsearch.finite_opt", None),
    (P + "optsearch", "kst_maximiser", "optsearch.kst_maximiser", None),
    (P + "polynomials", "resultant", "polynomials.resultant", _coeff_bits),
    (P + "polynomials", "sturm_root_count", "polynomials.sturm", None),
    (P + "polynomials:UPoly", "sturm_chain", "polynomials.sturm", None),
    (P + "polynomials:UPoly", "count_roots", "polynomials.sturm", None),
    (P + "polynomials:UPoly", "count_roots_open", "polynomials.sturm", None),
    (P + "polynomials:UPoly", "isolate_roots", "polynomials.sturm", None),
    (P + "polynomials:UPoly", "nonneg_on", "polynomials.sturm", None),
    (P + "intervals", "bb_max_bound", "intervals.bb_max_bound", _bb),
    (P + "matrices", "psd_check", "matrices.psd_check", None),
    (P + "certificates", "certify_kst", "certificates", _certificate),
    (P + "certificates", "certify_krt", "certificates", _certificate),
    (P + "certificates", "certify_k2111", "certificates", _certificate),
    (P + "certificates", "certify_k311", "certificates", _certificate),
    (P + "certificates", "positive_multiplier_lp", "certificates.positive_multiplier_lp", None),
    (P + "cli", "parse_objective", "cli.parse", None),
    (P + "cli", "parse_vector", "cli.parse", None),
    (P + "cli", "read_graph", "cli.parse", None),
    (P + "cli", "emit", "cli.emit", None),
]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})

# counter name -> unit; derived ratios are added by layer_metrics
COUNTERS = {
    "intervals.bb_max_bound.boxes": "count",
    "optsearch.starts": "count",
    "optsearch.snapped": "count",
    "certificates.checks": "count",
    "certificates.checks_failed": "count",
    "symmetrise.steps": "count",
    "polynomials.resultant.max_coeff_bits": "bits",
}


MAX_COUNTERS = {"polynomials.resultant.max_coeff_bits"}


def merge(traces: list[dict]) -> tuple[dict, dict]:
    """One summary and one set of counters from the traces of several children."""
    summary: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for tr in traces:
        for name, rec in tr.get("summary", {}).items():
            acc = summary.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for name, value in tr.get("counters", {}).items():
            old = counters.get(name, 0)
            counters[name] = max(old, value) if name in MAX_COUNTERS else old + value
    return summary, counters


def layer_metrics(summary: dict, counters: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run: calls and self time of every span
    name, the work counters, and ratios built from them."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        rec = summary.get(name, {})
        out[f"{name}.calls"] = (rec.get("calls", 0), "count")
        out[f"{name}.self_s"] = (rec.get("self_s", 0.0), "s")
    for name, unit in COUNTERS.items():
        out[name] = (counters.get(name, 0), unit)
    boxes = counters.get("intervals.bb_max_bound.boxes", 0)
    bb = summary.get("intervals.bb_max_bound", {})
    out["intervals.bb_max_bound.ms_per_box"] = (1000 * _ratio(bb.get("self_s", 0.0), boxes), "ms")
    out["intervals.bb_max_bound.conclusive_ratio"] = (
        _ratio(counters.get("intervals.bb_max_bound.conclusive", 0), bb.get("calls", 0)), "ratio")
    out["optsearch.snap_ratio"] = (
        _ratio(counters.get("optsearch.snapped", 0), counters.get("optsearch.starts", 0)), "ratio")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
