"""Outside-in span tracing of hoci's public entry points, for traced runs only.

`patched` swaps each entry point, at the name its caller imports it by, for a
wrapper that records a span [name, start, end, parent, kind, operand_bytes]
in memory, and restores the originals on exit.  No private function is
touched and nothing under src/ changes; the timed runs never enter
`patched`.

Estimator calls made directly under run_estimate are classified by operand
kind: channel x channel is pairwise, surrogate x channel is r3, surrogate x
surrogate is r4.  A surrogate is a T column that the wrapped build_sci
returned during the same run_estimate call.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager
from itertools import combinations
from math import comb
from time import perf_counter

NAME, START, END, PARENT, KIND, NBYTES = range(6)
ESTIMATOR_SPANS = frozenset(
    {"pipeline.mi_estimate", "pipeline.bidirectional_te_mi", "sci.mi_estimate", "sci.mi_estimate_full"}
)
LEVEL_KINDS = ("pairwise", "r3", "r4")
KIND_METRIC = {"pairwise": "pipeline.pairwise", "r3": "pipeline.r3_scan", "r4": "pipeline.r4_scan"}


class Tracer:
    """Span store plus the per-run state the classifying hooks need."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._surrogates: set[int] = set()
        self.row_stride_bytes: int | None = None

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            if before is not None:
                before(span, args)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(span, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """Span around one benchmark call; yields its index."""
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, -1, None, 0]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    # -- hooks ---------------------------------------------------------

    def _classify(self, span, args):
        x, y = args[0], args[1]
        span[NBYTES] = int(x.nbytes) + int(y.nbytes)
        if span[NAME].startswith("pipeline."):
            span[KIND] = LEVEL_KINDS[(id(x) in self._surrogates) + (id(y) in self._surrogates)]
        else:
            span[KIND] = "tune"

    def _new_run(self, span, args):
        self._surrogates.clear()

    def _keep_surrogate(self, span, result):
        self._surrogates.add(id(result[1]))

    def _row_stride(self, span, result):
        self.row_stride_bytes = int(result.data.strides[1])

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\tkind\toperand_bytes\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[KIND] or ''}\t{s[NBYTES]}\n")


@contextmanager
def patched(tracer: Tracer):
    """Wrap the public entry points for the duration of the block."""
    import hoci.channels
    import hoci.cli
    import hoci.pipeline
    import hoci.sci

    t = tracer
    targets = [
        (hoci.cli, "ingest_csv", "cli.ingest_csv", None, None),
        (hoci.cli, "emit_report", "cli.emit_report", None, None),
        (hoci.cli, "run_estimate", "pipeline.run_estimate", t._new_run, None),
        (hoci.channels.ChannelMatrix, "standardized", "channels.standardized", None, t._row_stride),
        (hoci.pipeline, "build_sci", "sci.build_sci", None, t._keep_surrogate),
        (hoci.pipeline, "mi_estimate", "pipeline.mi_estimate", t._classify, None),
        (hoci.pipeline, "bidirectional_te_mi", "pipeline.bidirectional_te_mi", t._classify, None),
        (hoci.sci, "mi_estimate", "sci.mi_estimate", t._classify, None),
        (hoci.sci, "mi_estimate_full", "sci.mi_estimate_full", t._classify, None),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
    try:
        for owner, attr, name, before, after in targets:
            setattr(owner, attr, t.wrap(name, getattr(owner, attr), before, after))
        yield t
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def call_layers(spans: list[list], root: int, end: int) -> dict[str, float]:
    """Per-layer figures for the spans of one call, spans[root:end]."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans[root + 1 : end]:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return dur(i) - _covered(children.get(i, []), spans[i][START], spans[i][END])

    by_name: dict[str, list[int]] = {}
    for i in range(root + 1, end):
        by_name.setdefault(spans[i][NAME], []).append(i)
    runs = set(by_name.get("pipeline.run_estimate", []))
    builds = set(by_name.get("sci.build_sci", []))
    est = [i for i in range(root + 1, end) if spans[i][NAME] in ESTIMATOR_SPANS]
    direct = {k: [i for i in est if spans[i][PARENT] in runs and spans[i][KIND] == k] for k in LEVEL_KINDS}
    under_sci = [i for i in est if spans[i][PARENT] in builds]
    out = {
        "cli.ingest_s": sum(dur(i) for i in by_name.get("cli.ingest_csv", [])),
        "cli.emit_s": sum(dur(i) for i in by_name.get("cli.emit_report", [])),
        "channels.standardize_s": sum(dur(i) for i in by_name.get("channels.standardized", [])),
        "pipeline.run_estimate_s": sum(dur(i) for i in runs),
        "pipeline.self_s": sum(self_time(i) for i in runs),
        "sci.surrogates": len(builds),
        "sci.tune_s": sum(dur(i) for i in builds),
        "sci.self_s": sum(self_time(i) for i in builds),
        "sci.mi_calls": len(under_sci),
        "estimators.calls": len(est),
        "estimators.busy_s": sum(dur(i) for i in est),
        "estimators.call_ms_p50": 1e3 * statistics.median(dur(i) for i in est) if est else 0.0,
        "estimators.computed_mb": sum(spans[i][NBYTES] for i in est) / 1e6,
    }
    for k in LEVEL_KINDS:
        out[f"{KIND_METRIC[k]}_calls"] = len(direct[k])
        out[f"{KIND_METRIC[k]}_s"] = sum(dur(i) for i in direct[k])
    return out


def expected_calls(doc: dict) -> dict[str, int]:
    """Estimator calls rebuilt from a report: C(n,2) pairwise, sum of
    (iterations + 1) over surrogates plus one per exclusion for tuning,
    (n - 2) per surrogate for r3, and disjoint surrogate pairs for r4."""
    n = len(doc["channels"])
    order = doc["config"]["order"]
    sci = doc["sci"]
    pairs = [{d["base_channel"], d["partner_channel"]} for d in sci]
    return {
        "pairwise": comb(n, 2),
        "tune": sum(d["iterations"] + 1 for d in sci) + len(doc["exclusions"]),
        "r3": (n - 2) * len(sci) if order >= 3 else 0,
        "r4": sum(1 for a, b in combinations(pairs, 2) if not a & b) if order >= 4 else 0,
    }


def cross_check(layers: dict[str, float], doc: dict) -> list[str]:
    """Mismatches between traced estimator calls and the report's count."""
    exp = expected_calls(doc)
    seen = {k: layers[f"{KIND_METRIC[k]}_calls"] for k in LEVEL_KINDS}
    seen["tune"] = layers["sci.mi_calls"]
    problems = [f"{k}: traced {seen[k]} vs report {exp[k]}" for k in exp if seen[k] != exp[k]]
    if layers["estimators.calls"] != sum(exp.values()):
        problems.append(f"total: traced {layers['estimators.calls']} vs report {sum(exp.values())}")
    return problems
