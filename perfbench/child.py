"""One benchmark operation in a fresh process.

Usage: python3 perfbench/child.py JOB.json

The job file says what to run: ``setup`` (import the package and build the
CLI parser, then stop), ``cli`` (``inducibility.cli.main(argv)``) or
``evaluate`` (the loop in evaluate.py). With ``trace`` set, the wrappers of
layers.TARGETS are installed before any work. The result goes, as JSON, to
the job's ``result`` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set size of this process image. getrusage() is no use
    here: across exec it keeps the peak of the benchmark process that
    spawned the child."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import inducibility.cli as cli

    out: dict = {}
    if job["kind"] == "setup":
        cli.build_parser()
        out["ready"] = time.monotonic()
    else:
        tracer = None
        if job["trace"]:
            import layers
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer, "inducibility", layers.TARGETS)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if job["kind"] == "cli":
                    out["exit"] = cli.main(job["argv"])
                else:
                    import evaluate
                    out["evaluate"] = evaluate.run(job["inputs"], Path(job["workdir"]))
        except Exception:  # reported to the gate as a failed operation
            out["error"] = traceback.format_exc()
        out["peak_rss_mb"] = peak_rss_mb()
        out["stdout"], out["stderr"] = stdout.getvalue(), stderr.getvalue()
        if tracer is not None:
            out["trace"] = {"summary": tracing.summarise(tracer.spans()),
                            "counters": dict(tracer.counters)}
    Path(job["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
