"""Benchmark of the inducibility toolkit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify|search|evaluate|all \\
        --seed N --seconds S --trace 0|1

Each workload is a single-client closed loop: every operation runs in a
fresh child process, and the next one starts when the previous one has
exited. The inputs come from the seed (inputs.py); every output is checked
(gate.py). With --trace 0 the run repeats the workload's whole sequence
while the next repetition fits in S seconds and reports the end-to-end
metrics; with --trace 1 it runs the sequence once plainly and once with
spans around the program's layers, and reports the per-layer metrics. The
last line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs as generator
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("certify", "search", "evaluate")
SETUP_PROBES = 5  # before the passes, and as many after
TIME_LIMIT_S = 170  # a run must end within 180 s

# metrics of the traced run that come from its plain pass, by workload
COMMAND_METRICS = {"k311_s": "s", "k2111_s": "s", "krt_s": "s", "kst_s": "s",
                   "opt_s": "s", "finite_s": "s", "oracle_s": "s"}


class OutOfTime(Exception):
    pass


class Runner:
    """Starts child processes in one work directory, under one deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.jobs = 0

    def child(self, job: dict) -> dict:
        """Run one job; returns the child's result plus its start and wall_s."""
        self.jobs += 1
        job = dict(job, src=str(SRC), workdir=str(self.work),
                   result=str(self.work / f"result{self.jobs}.json"))
        job_path = self.work / f"job{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(job_path)],
                                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise OutOfTime(f"{job['kind']} {job.get('argv', '')} did not finish in time")
        wall = time.monotonic() - start
        try:
            out = json.loads(Path(job["result"]).read_text())
        except (OSError, ValueError):
            out = {"error": f"child exited with {proc.returncode} and no result: {err[-2000:]}"}
        out["start"], out["wall_s"] = start, wall
        return out


def setup_seconds(runner: Runner, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        out = runner.child({"kind": "setup"})
        if "ready" not in out:
            raise RuntimeError(out.get("error", "setup probe failed"))
        samples.append(out["ready"] - out["start"])
    return samples


def run_sequence(runner: Runner, inputs: dict, trace: bool) -> dict:
    """One pass over the workload's operations, back to back."""
    if inputs["workload"] == "evaluate":
        results = [runner.child({"kind": "evaluate", "trace": trace, "inputs": inputs})]
    else:
        results = [runner.child({"kind": "cli", "trace": trace, "argv": op["argv"]})
                   for op in inputs["ops"]]
    wall = results[-1]["start"] + results[-1]["wall_s"] - results[0]["start"]
    return {"wall_s": wall, "results": results, "digest": output_digest(inputs, results),
            "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in results)}


def check_passes(inputs: dict, passes: list[dict]) -> None:
    """Sets each pass's checked operations. Runs after the last pass, so
    checking takes no measuring time; a pass whose outputs equal the first
    pass's takes its verdicts."""
    for p in passes:
        same = p is not passes[0] and p["digest"] == passes[0]["digest"]
        p["ops"] = passes[0]["ops"] if same else check_outputs(inputs, p["results"])


def output_digest(inputs: dict, results: list[dict]) -> str:
    """sha256 over every CLI report and exact value of a pass."""
    if inputs["workload"] == "evaluate":
        outputs = [results[0].get("evaluate", {}).get("per_spec")]
    else:
        outputs = [[r.get("exit"), r.get("stdout")] for r in results]
    errors = [r.get("error") for r in results]
    return _sha(json.dumps([outputs, errors], sort_keys=True))


def check_outputs(inputs: dict, results: list[dict]) -> list[dict]:
    """One entry per operation: its name, time and problems."""
    import gate  # imports the program, so only once src/ is known to exist
    if inputs["workload"] != "evaluate":
        return [{"name": op["metric"], "wall_s": res["wall_s"],
                 "problems": _child_problems(res) + gate.check_cli(
                     op["check"], res.get("exit"), res.get("stdout", ""))}
                for op, res in zip(inputs["ops"], results)]
    res = results[0]
    per_spec = res.get("evaluate", {}).get("per_spec", [])
    ops = []
    for spec_in, records in zip(inputs["specs"], per_spec):
        found = gate.check_evaluate(spec_in, inputs["files"], records)
        ops += [{"name": rec["op"], "wall_s": None, "problems": problems}
                for rec, problems in zip(records, found)]
    if len(per_spec) != len(inputs["specs"]) or _child_problems(res):
        ops.append({"name": "evaluate", "wall_s": res["wall_s"],
                    "problems": _child_problems(res) or ["specs missing"]})
    return ops


def _child_problems(res: dict) -> list[str]:
    problems = [res["error"]] if res.get("error") else []
    if "Traceback" in res.get("stderr", ""):
        problems.append(res["stderr"])
    return problems


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    summaries = [r.get("trace", {}) for r in traced["results"]]
    out = layers.layer_metrics(*layers.merge(summaries))
    for name, unit in COMMAND_METRICS.items():
        out[name] = (sum(op["wall_s"] for op in plain["ops"] if op["name"] == name), unit)
    ev = plain["results"][0].get("evaluate") if len(plain["results"]) == 1 else None
    out["evals_per_s"] = (ev["evals"] / ev["eval_s"] if ev else 0.0, "1/s")
    out["specs_per_s"] = (ev["specs"] / ev["build_s"] if ev else 0.0, "1/s")
    attempted = len(plain["ops"]) + len(traced["ops"])
    failed = sum(bool(op["problems"]) for op in plain["ops"] + traced["ops"])
    out["failed_frac"] = (failed / attempted, "ratio")
    out["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    inputs = generator.generate(workload, seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        work = Path(tmp)
        for name, text in inputs.get("files", {}).items():
            (work / name).write_text(text)
        runner = Runner(work, deadline)
        if trace:
            passes = [run_sequence(runner, inputs, False), run_sequence(runner, inputs, True)]
        else:
            # set-up probes before and after the passes, so they sample the
            # machine over the whole run
            setup = setup_seconds(runner, SETUP_PROBES)
            passes = [run_sequence(runner, inputs, False)]
            begun = passes[0]["results"][0]["start"]
            while (time.monotonic() - begun + passes[-1]["wall_s"] <= seconds
                   and time.monotonic() + 2 * passes[-1]["wall_s"] < deadline):
                passes.append(run_sequence(runner, inputs, False))
            setup += setup_seconds(runner, SETUP_PROBES)
    check_passes(inputs, passes)
    metrics = per_layer(*passes) if trace else end_to_end(setup, passes)

    ops = [op for p in passes for op in p["ops"]]
    # every pass, traced or not, must produce the same outputs
    digests = [p["digest"] for p in passes]
    evaluated = passes[0]["results"][0].get("evaluate") if workload == "evaluate" else None
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": len(passes),
        "inputs_sha256": generator.digest(inputs), "outputs_sha256": digests[0],
        "outputs_repeat": len(set(digests)) == 1,
        "evals_per_spec": evaluated and evaluated["evals"] / evaluated["specs"],
        "ops": [[op["name"], op["wall_s"]] for op in passes[0]["ops"] if op["wall_s"]],
        "problems": [[op["name"], op["problems"]] for op in ops if op["problems"]],
    }
    failed = sum(bool(op["problems"]) for op in ops)
    return {"record": record, "correct": failed == 0 and record["outputs_repeat"],
            "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "inducibility" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'inducibility'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        try:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
        except OutOfTime as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print("record " + json.dumps(results[w]["record"]))
        for name, (value, unit) in results[w]["metrics"].items():
            print(f"  {w:9} {name:45} {value:14.6g} {unit}")
    prefix = len(workloads) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
                    for w, r in results.items() for name, (value, unit) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
