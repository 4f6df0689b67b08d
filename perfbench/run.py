"""Benchmark of `hoci estimate`, the command users run: CSV in, JSON report out.

Run from the root of a checkout (it builds nothing; the package is imported
from ./src):

    python3 perfbench/run.py --workload gauss-o4-n12 --seed 1 --seconds 20 --trace 0

Workloads are listed in workloads.py.  --seed picks the generated input; the
`hoci estimate --seed` of each workload is fixed.  One worker interpreter
(worker.py) is the single closed-loop caller: it calls hoci.cli.main
in-process, the next call starting when the previous one has returned.

--trace 0 reports the end-to-end metrics:
  setup_s         median time to `import hoci.cli` in a fresh interpreter
  estimate_ref_s  median wall time of one estimate call after a warm-up call
  peak_rss_mb     peak resident memory of the worker (ingest + estimate)
Both times are rescaled to a reference host speed (hostspeed.py), because a
shared host's speed states make raw medians of separate runs spread by more
than any useful bound.  Each import is rescaled by a probe run in the same
interpreter right after it, each estimate call by the mean of the probes run
just before and after it.  The raw medians (setup_raw_s, estimate_s) and the
probe median (host_probe_s) are printed and stored too.

--trace 1 reports the per-layer metrics from traced calls that alternate
with untraced ones (spans.py), including trace.overhead_frac.

Every run also prints, by name and unit, rN_err_bits = |reported level -
oracle| for each level the order produces, on this run's input, and
error_rate = failed / attempted calls.  A call fails on a nonzero exit,
an unparsable report, a missing or non-finite level, or a report that is not
byte-identical to the first one of the same input.  The run is correct when
no call failed, R2 lies within R2_TOLERANCE_BITS of its oracle and, traced,
every estimator call the report implies was seen.

The host record (cores, CPU, BLAS and its threads, versions) is printed and
stored with the result under .perfbench_work/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import rescaled
from workloads import LEVEL_KEYS, WORKLOADS, generate, oracle_bits, write_csv

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0
R2_TOLERANCE_BITS = 0.15
# argv[1] is this directory, put on sys.path only after the timed import
IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import hoci.cli\n"
    "elapsed = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from hostspeed import host_probe\n"
    "print(elapsed, host_probe(), hoci.cli.__file__)\n"
)
END_TO_END_UNITS = {"setup_s": "s", "estimate_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.ingest_s": "s",
    "cli.ingest_mb_per_s": "MB/s",
    "cli.emit_s": "s",
    "cli.out_bytes": "bytes",
    "channels.standardize_s": "s",
    "channels.row_stride_bytes": "bytes",
    "pipeline.run_estimate_s": "s",
    "pipeline.self_s": "s",
    "pipeline.pairwise_calls": "count",
    "pipeline.pairwise_s": "s",
    "pipeline.r3_scan_calls": "count",
    "pipeline.r3_scan_s": "s",
    "pipeline.r4_scan_calls": "count",
    "pipeline.r4_scan_s": "s",
    "pipeline.exclusions": "count",
    "sci.surrogates": "count",
    "sci.tune_s": "s",
    "sci.self_s": "s",
    "sci.mi_calls_per_surrogate": "calls",
    "sci.residual_max_bits": "bits",
    "estimators.calls": "count",
    "estimators.busy_s": "s",
    "estimators.call_ms_p50": "ms",
    "estimators.computed_mb": "MB",
    "trace.overhead_frac": "fraction",
}


def host_record() -> dict:
    """What the figures depend on, so results from different hosts never
    get compared silently."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k, "unset (library default)")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def import_seconds(env: dict, src: Path, timeout: float) -> tuple[float, float]:
    """Time `import hoci.cli` in a fresh interpreter; (seconds, probe seconds)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importing hoci.cli failed:\n{proc.stderr.strip()}")
    seconds, probe, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(src):
        raise RuntimeError(f"hoci.cli imported from {path}, not from {src}")
    return float(seconds), float(probe)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "hoci" / "cli.py").is_file():
        print(f"no hoci package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def remaining() -> float:
        return TIME_LIMIT_S - (time.monotonic() - started)

    try:
        setup = []
        if not args.trace:
            setup = [import_seconds(env, src, remaining()) for _ in range(SETUP_REPEATS)]

        csv_path = work / "input.csv"
        write_csv(generate(w, args.seed), str(csv_path))
        spec = {
            "workload": w.name, "src": str(src), "csv": str(csv_path),
            "out": str(work / "report.json"), "result": str(work / "worker.json"),
            "spans": str(work / "spans.tsv"), "seconds": args.seconds, "trace": args.trace,
        }
        (work / "spec.json").write_text(json.dumps(spec))
        (work / "worker.json").unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
            env=env, capture_output=True, text=True, timeout=remaining(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
        res = json.loads((work / "worker.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        for name in ("input.csv", "report.json"):
            (work / name).unlink(missing_ok=True)

    host = host_record()
    report = res["report"]
    errors = {}
    if report is not None:
        oracle = oracle_bits(w)
        errors = {f"r{lvl}_err_bits": abs(report[LEVEL_KEYS[lvl]]["bits"] - v) for lvl, v in oracle.items()}
    problems = list(res["failures"]) + list(res.get("crosscheck", []))
    if report is None:
        problems.append("no well-formed report")
    elif errors["r2_err_bits"] > R2_TOLERANCE_BITS:
        problems.append(f"R2 off its oracle by {errors['r2_err_bits']:.4g} bits")

    estimate_s = statistics.median(res["estimate_s"])
    if args.trace:
        traced_s = statistics.median(res["traced_s"])
        metrics = dict(res["layers"], **{"trace.overhead_frac": (traced_s - estimate_s) / estimate_s})
        units = PER_LAYER_UNITS
        shown = {"estimate_s": (estimate_s, "s")}
    else:
        probes = res["probe_s"]
        calls = [
            rescaled(t, 0.5 * (before + after))
            for t, before, after in zip(res["estimate_s"], probes, probes[1:])
        ]
        metrics = {
            "setup_s": statistics.median(rescaled(t, p) for t, p in setup),
            "estimate_ref_s": statistics.median(calls),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        shown = {
            "setup_raw_s": (statistics.median(t for t, _ in setup), "s"),
            "estimate_s": (estimate_s, "s"),
            "host_probe_s": (statistics.median(probes), "s"),
        }
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
        metrics.update({k: 0.0 for k in missing})
    out = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"host": host, "workload": w.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "result": out, "oracle_errors_bits": errors,
         "estimate_s_samples": res["estimate_s"], "probe_s_samples": res.get("probe_s"),
         "setup_import_and_probe_s": setup,
         "problems": problems}, indent=1))

    print("host " + json.dumps(host))
    print(f"{w.name} seed={args.seed} n={w.n} N={w.num_samples} order={w.order} "
          f"estimator={w.estimator} hoci-seed={w.hoci_seed}")
    for name, unit in units.items():
        print(f"  {name:28s} {_fmt(metrics[name]):>12s} {unit}")
    for name, (value, unit) in shown.items():
        print(f"  {name:28s} {_fmt(value):>12s} {unit}")
    print(f"  {'estimate_s samples':28s} {len(res['estimate_s']):>12d} calls after 1 warm-up")
    for name, value in errors.items():
        print(f"  {name:28s} {_fmt(value):>12s} bits")
    print(f"  {'error_rate':28s} {_fmt(res['failed'] / res['attempted']):>12s} "
          f"({res['failed']} of {res['attempted']} calls failed)")
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
