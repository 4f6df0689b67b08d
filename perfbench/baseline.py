"""One-off, ungated baseline table: the ROADMAP's reference cases, re-measured.

Run from the root of a checkout (takes a few minutes; nothing gates on it):

    python3 perfbench/baseline.py

Cases: Gaussian model, `gaussian` estimator, order 4 at n in {4, 8, 16} with
N = 1e5; `knn`, order 3 at n in {4, 6} with N = 2e4.  Each case is one
`hoci estimate` call, CSV to JSON, in this process after one warm-up call on
the smallest case.  Per case it records the call's wall time, the time inside
run_estimate and ingest_csv (one span each, wrapped at the names hoci.cli
imports them by), and the estimator call count rebuilt from the report, as
the traced benchmark cross-checks it.  Writes perfbench/baseline.json with
the host record.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from run import host_record
from spans import END, START, Tracer, expected_calls
from workloads import WORKLOADS, generate, write_csv

HERE = Path(__file__).resolve().parent
SEED = 1
# (estimator, order, n, N, ROADMAP figure: seconds, estimator calls or None)
CASES = [
    ("gaussian", 4, 4, 100_000, 0.28, 294),
    ("gaussian", 4, 8, 100_000, 1.9, 2_380),
    ("gaussian", 4, 16, 100_000, 27.7, 30_360),
    ("knn", 3, 4, 20_000, 15.1, None),
    ("knn", 3, 6, 20_000, 39.4, None),
]


def main() -> int:
    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    import hoci.cli

    work = root / ".perfbench_work" / "baseline"
    work.mkdir(parents=True, exist_ok=True)
    csv_path, out_path = str(work / "input.csv"), str(work / "report.json")
    template = WORKLOADS["gauss-o4-n12"]
    tracer = Tracer()
    originals = {name: getattr(hoci.cli, name) for name in ("run_estimate", "ingest_csv")}
    for name, fn in originals.items():
        setattr(hoci.cli, name, tracer.wrap(name, fn))

    def one_call(w) -> tuple[float, dict, dict]:
        write_csv(generate(w, SEED), csv_path)
        first = len(tracer.spans)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hoci.cli.main(w.estimate_args(csv_path, out_path))
        elapsed = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"{w.name}: hoci estimate exited {rc}")
        spans = {s[0]: s[END] - s[START] for s in tracer.spans[first:]}
        with open(out_path) as fh:
            return elapsed, spans, json.load(fh)

    rows = []
    try:
        for i, (est, order, n, num, roadmap_s, roadmap_calls) in enumerate(CASES):
            w = replace(
                template, name=f"baseline-{est}-o{order}-n{n}", n=n, num_samples=num,
                order=order, estimator=est,
            )
            if i == 0:
                one_call(w)
            elapsed, spans, doc = one_call(w)
            rows.append({
                "case": w.name, "estimator": est, "order": order, "n": n, "num_samples": num,
                "estimate_s": elapsed,
                "run_estimate_s": spans["run_estimate"],
                "ingest_s": spans["ingest_csv"],
                "estimator_calls": sum(expected_calls(doc).values()),
                "roadmap_s": roadmap_s, "roadmap_calls": roadmap_calls,
            })
            r = rows[-1]
            print(f"{w.name:28s} estimate {elapsed:8.3f} s  run_estimate {r['run_estimate_s']:8.3f} s  "
                  f"ingest {r['ingest_s']:6.3f} s  calls {r['estimator_calls']:6d}  "
                  f"(ROADMAP {roadmap_s} s / {roadmap_calls} calls)", flush=True)
    finally:
        for name, fn in originals.items():
            setattr(hoci.cli, name, fn)
        for path in (csv_path, out_path):
            Path(path).unlink(missing_ok=True)
    doc = {"host": host_record(), "data_seed": SEED, "model": "sigma_x2=1, sigma_n2=1, rho=0.3",
           "rows": rows}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
