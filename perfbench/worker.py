"""One closed-loop caller of `hoci estimate`, in its own interpreter.

run.py starts it as `python3 perfbench/worker.py SPEC.json` with the
checkout's src/ on PYTHONPATH.  It calls hoci.cli.main in-process, each
call starting only after the previous one returned, checks every report,
and writes what it measured to the result path named in the spec.  Its
peak resident memory is therefore that of a process doing ingest and
estimate only.

Timed calls run unpatched.  With trace on, untraced calls alternate with
calls made while the public entry points are wrapped (see spans.py); the
traced ones give the per-layer figures, the pairs the tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

from hostspeed import host_probe
from spans import Tracer, call_layers, cross_check, patched
from workloads import LEVEL_KEYS, WORKLOADS

MIN_CALLS = 3
MAX_FAILURE_NOTES = 20


def report_problem(doc, w, names: list[str]) -> str | None:
    """Why a parsed report is unusable, or None when it is well formed."""
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    if doc.get("channels") != names or doc.get("num_samples") != w.num_samples:
        return "report does not describe the input's channels and samples"
    config = doc.get("config")
    if not isinstance(config, dict) or config.get("order") != w.order:
        return "report order differs from the requested order"
    for level, key in LEVEL_KEYS.items():
        entry = doc.get(key)
        if level > w.order:
            if entry is not None:
                return f"{key} reported above the requested order"
            continue
        bits = entry.get("bits") if isinstance(entry, dict) else None
        if not isinstance(bits, (int, float)) or not math.isfinite(bits):
            return f"{key} missing or non-finite: {entry!r}"
    return None


class Caller:
    """Calls `hoci estimate` on one CSV and checks each report it writes."""

    def __init__(self, main, w, csv_path: str, out_path: str):
        self.main = main
        self.w = w
        self.args = w.estimate_args(csv_path, out_path)
        self.out_path = out_path
        self.names = [f"x{i + 1}" for i in range(w.n)]
        self.reference: bytes | None = None
        self.doc: dict | None = None
        self.last_raw = b""
        self.last_doc: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, span=contextlib.nullcontext) -> float:
        """One estimate call, CSV to JSON; returns its wall time in seconds."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)
        self.last_raw, self.last_doc = b"", None
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            with span():
                t0 = time.perf_counter()
                try:
                    rc = self.main(self.args)
                except Exception:  # a crash is a failed call, not a crashed benchmark
                    rc = None
                    traceback.print_exc()
                elapsed = time.perf_counter() - t0
        self.attempted += 1
        problem = self._check(rc, log.getvalue())
        if problem is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_NOTES:
                self.failures.append(problem)
        return elapsed

    def _check(self, rc, log: str) -> str | None:
        if rc != 0:
            return f"exit status {rc}: {log.strip()[-400:]}"
        try:
            with open(self.out_path, "rb") as fh:
                raw = fh.read()
        except OSError as err:
            return f"no report written: {err}"
        self.last_raw = raw
        try:
            doc = json.loads(raw)
        except ValueError as err:
            return f"unparsable report: {err}"
        self.last_doc = doc
        problem = report_problem(doc, self.w, self.names)
        if problem is not None:
            return problem
        if self.reference is None:
            self.reference, self.doc = raw, doc
        elif raw != self.reference:
            return "report is not byte-identical to the first report of this input"
        return None


def closed_loop(call, seconds: float) -> list[float]:
    """Call repeatedly for `seconds` (at least MIN_CALLS times); wall times."""
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_CALLS or time.perf_counter() < deadline:
        times.append(call())
    return times


def probed_loop(call, seconds: float) -> tuple[list[float], list[float]]:
    """closed_loop with a host probe before the first call and after each
    call; returns the call times and the probe times (one more)."""
    probes = [host_probe()]

    def call_then_probe() -> float:
        elapsed = call()
        probes.append(host_probe())
        return elapsed

    return closed_loop(call_then_probe, seconds), probes


def traced_run(caller: Caller, seconds: float, csv_bytes: int, spans_path: str) -> dict:
    """Alternate untraced and traced calls, so that host speed drifts hit both
    sides of trace.overhead_frac alike.  Returns the wall times of each side,
    per-layer medians over the traced calls and cross-check problems."""
    tracer = Tracer()
    per_call: list[dict[str, float]] = []
    problems: list[str] = []
    untraced: list[float] = []
    traced: list[float] = []

    def traced_call() -> float:
        first = len(tracer.spans)
        with patched(tracer):
            elapsed = caller.call(lambda: tracer.root("cli.main"))
        layers = call_layers(tracer.spans, first, len(tracer.spans))
        doc = caller.last_doc
        if not isinstance(doc, dict):
            problems.append("no report to cross-check")
            return elapsed
        try:
            problems.extend(cross_check(layers, doc))
        except (KeyError, TypeError) as err:
            problems.append(f"report lacks what the call count is rebuilt from: {err!r}")
        ingest_s = layers["cli.ingest_s"]
        surrogates = layers["sci.surrogates"]
        layers.update({
            "cli.ingest_mb_per_s": csv_bytes / 1e6 / ingest_s if ingest_s > 0 else 0.0,
            "cli.out_bytes": len(caller.last_raw),
            "channels.row_stride_bytes": tracer.row_stride_bytes,
            "pipeline.exclusions": len(doc.get("exclusions", [])),
            "sci.mi_calls_per_surrogate": layers["sci.mi_calls"] / surrogates if surrogates else 0.0,
            "sci.residual_max_bits": max((d["residual"] for d in doc.get("sci", [])), default=0.0),
        })
        per_call.append(layers)
        return elapsed

    def pair() -> float:
        untraced.append(caller.call())
        traced.append(traced_call())
        return untraced[-1] + traced[-1]

    closed_loop(pair, seconds)
    tracer.write(spans_path)
    medians = {k: statistics.median(c[k] for c in per_call) for k in per_call[0]} if per_call else {}
    return {"estimate_s": untraced, "traced_s": traced, "layers": medians, "crosscheck": problems}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import hoci
    import hoci.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(hoci.__file__).startswith(src + os.sep):
        print(f"hoci imported from {hoci.__file__}, not from {src}", file=sys.stderr)
        return 3
    w = WORKLOADS[spec["workload"]]
    caller = Caller(hoci.cli.main, w, spec["csv"], spec["out"])
    caller.call()  # warm-up: lazy imports and first-touch allocations
    if spec["trace"]:
        result = traced_run(caller, spec["seconds"], os.path.getsize(spec["csv"]), spec["spans"])
    else:
        times, probes = probed_loop(caller.call, spec["seconds"])
        result = {
            "estimate_s": times,
            "probe_s": probes,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    result.update(
        attempted=caller.attempted, failed=caller.failed, failures=caller.failures,
        report=caller.doc,
    )
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
