"""Command-line interface: argument parsing, the subcommands and the writers.

Subcommands:

* ``gaussian`` — closed-form curve tables over (rho, sigma_n2) grids.
* ``discrete`` — exact verification of the discrete construction.
* ``estimate`` — end-to-end common-information report from a channel CSV.
* ``sci`` — tune and verify a single noise-injection variable for one pair.
* ``lagscan`` — per-channel lag-scanned correlation against a reference.

Importing this module loads what ``estimate`` runs; the ``gaussian`` and
``discrete`` subcommands import ``hoci.gaussian`` and ``hoci.discrete``
when they run.

Conventions: ``hoci.ingest`` reads the channel CSVs.  A channel on the
command line (``--pair``, ``--ref-channel``) is its name, never an index.
``lagscan`` takes its window in milliseconds at ``--sample-rate-hz``.
Divergent values are written as ``"inf"`` in CSV and as ``{"divergent":
true}`` objects in JSON; every output embeds the resolved configuration and
seed, and contains no timestamps, so identical runs produce byte-identical
files.  Errors exit nonzero with a machine-readable ``{"error": code,
"message": ...}`` line on stderr.  A run is set by its command line and its
input alone: the seed is ``--seed`` (default 0), and every file is written
as UTF-8 whatever the locale.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from functools import partial
from itertools import chain

import numpy as np

from . import __version__
from .channels import ChannelMatrix
from .errors import (
    ENUMERATION_CAP,
    CapacityError,
    ConfigurationError,
    HociError,
    ParameterDomainError,
)
from .estimators import EstimatorConfig
from .ingest import ingest_csv
from .pipeline import (
    SUPPORTED_ORDERS,
    _LAG_WINDOW_S,
    CommonInfoReport,
    _lag_range_samples,
    _pair_sci,
    lag_max_correlation,
    run_estimate,
)
from .sci import EPSILON, MAX_ITERATIONS, verify_sci

CURVE_HEADER = "rho,sigma_n2,I(X;Xi),I(Xi;Xj),I(Xi;Xj|Xk),R2,R3_lower,R4_lower"
LAGSCAN_HEADER = "channel,lag_samples,lag_ms,abs_corr"
_ESTIMATOR_NAMES = {"gaussian": "gaussian_logdet", "knn": "knn", "binned": "binned"}
# report key of each level, and the key of its witness channels
_LEVEL_KEYS = {2: "r2", 3: "r3_lower", 4: "r4_lower"}
_TUPLE_KEYS = {2: "pair", 3: "triple", 4: "quadruple"}
# the tuning constants, as every report's config records them
_BISECTION = {"epsilon": EPSILON, "max_iterations": MAX_ITERATIONS}
# the source variance of the closed-form curve table
_SIGMA_X2 = 1.0


# ------------------------------------------------------------------ output

def _jsonable(value):
    """Recursively convert to JSON-safe values; divergences become tagged objects."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isinf(f):
            return {"divergent": True}
        if math.isnan(f):
            return {"undefined": True}
        return f
    return value


def _write_json(doc: dict, path: str) -> None:
    """Write ``doc`` as JSON after the tool and version stamp."""
    doc = {"tool": "hoci", "version": __version__, **doc}
    text = json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, meta: dict, header: str, rows) -> None:
    """Write a CSV table: the tool and version stamp, one ``# key: value``
    line per ``meta`` entry, ``header``, then ``rows`` (each a line of text)."""
    lines = [f"# tool: hoci {__version__}", *(f"# {k}: {v}" for k, v in meta.items()), header]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in chain(lines, rows))


def _csv_num(value: float) -> str:
    f = float(value)
    if math.isinf(f):
        return "inf"
    if math.isnan(f):
        return "nan"
    return repr(f)


def _level_doc(estimate) -> dict | None:
    if estimate is None:
        return None
    if estimate.channels is None:
        return {"bits": estimate.bits, "reason": estimate.reason}
    return {
        "bits": estimate.bits,
        _TUPLE_KEYS[len(estimate.channels)]: list(estimate.channels),
    }


def emit_report(report: CommonInfoReport, path: str) -> None:
    """Write a full estimation report as deterministic, stable-key-order JSON."""
    doc = {
        "seed": report.seed,
        "config": {
            "order": max(report.levels),
            "time_series": report.time_series,
            "estimator": asdict(report.estimator),
            "bisection": _BISECTION,
        },
        "channels": list(report.channel_names),
        "num_samples": report.num_samples,
        # a level above the requested order is written as null
        **{key: _level_doc(report.levels.get(lvl)) for lvl, key in _LEVEL_KEYS.items()},
        "rbar": {str(k): v for k, v in sorted(report.rbar.items())},
        "rtilde": {str(k): v for k, v in sorted(report.rtilde.items())},
        "chain": {"slack_bits": report.chain_slack_bits, "ok": report.chain_ok},
        "sci": [asdict(d) for d in report.sci_descriptors],
        "exclusions": [
            {"pair": list(e.pair), "code": e.code, "message": e.message}
            for e in report.exclusions
        ],
    }
    _write_json(doc, path)


def _model(spec_type, *params):
    """The model ``spec_type(*params)``; None where it does not exist."""
    try:
        return spec_type(*params)
    except ParameterDomainError:
        return None


def _on_model(quantity, spec) -> float:
    """``quantity`` of ``spec``; nan where the model or the quantity does not exist."""
    if spec is None:
        return math.nan
    try:
        return quantity(spec)
    except ParameterDomainError:
        return math.nan


def emit_gaussian_curves(rho_grid, sigma_n2_grid, path: str) -> int:
    """Write the closed-form curve table over the grid; returns the row count.

    The source variance is 1: every column depends on sigma_n2 and rho only
    through sigma_n2/sigma_x2 and rho, so the noise grid is in its units.
    Divergent cells are written as "inf"; a cell whose model does not exist
    (the triple columns below rho = -1/2, R4_lower below -1/3) as "nan".
    """
    rhos = np.asarray(rho_grid, dtype=np.float64)
    noises = np.asarray(sigma_n2_grid, dtype=np.float64)
    if rhos.size == 0 or noises.size == 0:
        raise ConfigurationError("gaussian sweep needs non-empty rho and sigma_n2 grids")
    if rhos.size * noises.size > ENUMERATION_CAP:
        raise CapacityError(
            f"table of {rhos.size} x {noises.size} rows exceeds cap {ENUMERATION_CAP}"
        )
    from .gaussian import (
        GaussianEnsembleSpec,
        cond_mi_xi_xj_given_xk,
        mi_x_xi,
        mi_xi_xj,
        r3_lower,
        r4_lower,
    )

    rows = []
    for rho in rhos:
        for sn2 in noises:
            params = (_SIGMA_X2, float(sn2), float(rho))
            spec = GaussianEnsembleSpec(*params)
            triple = _model(GaussianEnsembleSpec, *params, 3)
            quadruple = _model(GaussianEnsembleSpec, *params, 4)
            pairwise = mi_xi_xj(spec)
            cells = (
                rho, sn2, mi_x_xi(spec), pairwise, _on_model(cond_mi_xi_xj_given_xk, triple),
                pairwise, _on_model(r3_lower, triple), _on_model(r4_lower, quadruple),
            )
            rows.append(",".join(_csv_num(c) for c in cells))
    meta = {
        "sigma_x2": _csv_num(_SIGMA_X2),
        "rho_grid": ",".join(_csv_num(r) for r in rhos),
        "sigma_n2_grid": ",".join(_csv_num(s) for s in noises),
    }
    _write_csv(path, meta, CURVE_HEADER, rows)
    return len(rows)


# ------------------------------------------------------------ configuration

def _parse_values(text: str, what: str) -> list[float]:
    """The numbers of the list "a,b,c"; an empty or non-numeric entry is
    refused, naming the input as ``what``."""
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise ConfigurationError(f"{what}: empty entry")
        try:
            values.append(float(piece))
        except ValueError:
            raise ConfigurationError(f"{what}: non-numeric entry {piece!r}") from None
    return values


def parse_grid(text: str) -> np.ndarray:
    """Parse a sweep grid: either "a,b,c" values or "lo:hi:num[:log]"."""
    t = text.strip()
    if ":" in t:
        parts = t.split(":")
        if len(parts) == 3:
            lo_s, hi_s, num_s = parts
            scale = "lin"
        elif len(parts) == 4:
            lo_s, hi_s, num_s, scale = parts
        else:
            raise ConfigurationError(f"grid {text!r}: expected lo:hi:num or lo:hi:num:log")
        try:
            lo, hi, num = float(lo_s), float(hi_s), int(num_s)
        except ValueError:
            raise ConfigurationError(f"grid {text!r}: non-numeric bound or count") from None
        if num < 1:
            raise ConfigurationError(f"grid {text!r}: need at least 1 point")
        if num > ENUMERATION_CAP:
            raise CapacityError(f"grid {text!r}: {num} points exceed cap {ENUMERATION_CAP}")
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise ConfigurationError(f"grid {text!r}: log spacing needs positive bounds")
            return np.geomspace(lo, hi, num)
        if scale == "lin":
            return np.linspace(lo, hi, num)
        raise ConfigurationError(f"grid {text!r}: unknown scale {scale!r}")
    return np.array(_parse_values(t, f"grid {text!r}"))


def _estimator_from_args(args, **fields) -> EstimatorConfig:
    return EstimatorConfig(method=_ESTIMATOR_NAMES[args.estimator], bins=args.bins, **fields)


def _channel(matrix: ChannelMatrix, token: str) -> int:
    """The index of the channel a command-line token names.  The token is
    read as UTF-8, whatever the locale decoded the argument as."""
    try:
        token = os.fsencode(token).decode("utf-8", "surrogateescape")
    except UnicodeEncodeError:  # text no argument decodes to, as main() may be passed
        pass
    return matrix.index_of(token)


def _parse_pair(matrix: ChannelMatrix, text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"--pair wants 'name,name', got {text!r}")
    i, j = (_channel(matrix, p.strip()) for p in parts)
    if i == j:
        raise ConfigurationError(f"--pair needs two distinct channels, got {text!r}")
    return i, j


# ------------------------------------------------------------- subcommands

def _cmd_gaussian(args) -> int:
    rows = emit_gaussian_curves(parse_grid(args.rho_grid), parse_grid(args.sigma_n2_grid), args.out)
    print(f"wrote {rows} closed-form rows to {args.out}")
    return 0


def _cmd_discrete(args) -> int:
    pmf = None if args.pmf is None else _parse_values(args.pmf, f"--pmf {args.pmf!r}")
    alphabet = args.alphabet if args.alphabet is not None else (2 if pmf is None else len(pmf))
    if alphabet > ENUMERATION_CAP:
        raise CapacityError(f"alphabet of {alphabet} symbols exceeds cap {ENUMERATION_CAP}")
    if pmf is None:
        if alphabet < 2:
            raise ParameterDomainError(f"--alphabet must be at least 2, got {alphabet}")
        pmf = [1.0 / alphabet] * alphabet
    elif len(pmf) != alphabet:
        raise ConfigurationError(f"--pmf has {len(pmf)} entries but --alphabet is {alphabet}")
    from .discrete import verify_theorem5

    result = verify_theorem5(args.n, pmf)
    doc = {
        "config": {"n": args.n, "alphabet": alphabet, "pmf": pmf},
        "entropy_bits": result.entropy_bits,
        "levels": [asdict(lv) for lv in result.levels],
        "passed": result.passed,
    }
    _write_json(doc, args.out)
    print(f"construction check n={args.n}: {'PASS' if result.passed else 'FAIL'} -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    report = run_estimate(
        matrix,
        _estimator_from_args(args, ts_lag=args.ts_lag),
        args.seed,
        order=args.order,
        time_series=args.time_series,
    )
    emit_report(report, args.out)
    values = (f"{_LEVEL_KEYS[lvl]}={_csv_num(est.bits)}" for lvl, est in report.levels.items())
    print(f"{', '.join(values)} bits -> {args.out}")
    return 0


def _cmd_sci(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    i, j = _parse_pair(matrix, args.pair)
    cfg = _estimator_from_args(args)
    desc, t = _pair_sci(matrix.names, matrix.data, i, j, cfg, args.seed)
    verification = verify_sci(t, matrix, i, j, cfg)
    doc = {
        "seed": args.seed,
        "config": {
            "pair": [matrix.names[i], matrix.names[j]],
            "estimator": asdict(cfg),
            "bisection": _BISECTION,
        },
        "channels": list(matrix.names),
        "num_samples": matrix.n_samples,
        "descriptor": asdict(desc),
        "verification": {
            "delta_bits": verification.delta_bits,
            "passed": verification.passed,
            # each check names its channel, in place of the index
            "checks": [
                {**{k: v for k, v in asdict(c).items() if k != "name"}, "channel": c.name}
                for c in verification.checks
            ],
        },
    }
    _write_json(doc, args.out)
    print(
        f"tuned noise variance {_csv_num(desc.noise_variance)} in {desc.iterations} "
        f"iterations, verification {'PASS' if verification.passed else 'FAIL'} -> {args.out}"
    )
    return 0


def _cmd_lagscan(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    ref = _channel(matrix, args.ref_channel)
    rate = args.sample_rate_hz
    if rate is None:  # the library's rule would name its parameter and speak of seconds
        raise ConfigurationError("lagscan needs --sample-rate-hz to place its millisecond window")
    window_s = (args.lag_min_ms / 1000.0, args.lag_max_ms / 1000.0)
    lag_min, lag_max = _lag_range_samples(*window_s, rate)
    meta = {
        "ref_channel": matrix.names[ref],
        "lag_range_samples": f"{lag_min},{lag_max}",
        "sample_rate_hz": _csv_num(rate),
    }
    rows = []
    for g in range(matrix.n_channels):
        if g == ref:
            continue
        res = lag_max_correlation(matrix.data[ref], matrix.data[g], *window_s, rate)
        lag_ms = _csv_num(res.lag_seconds * 1000.0)
        rows.append(f"{matrix.names[g]},{res.lag_samples},{lag_ms},{_csv_num(res.abs_corr)}")
    _write_csv(args.out, meta, LAGSCAN_HEADER, rows)
    print(f"scanned lags {lag_min}..{lag_max} samples for {matrix.n_channels - 1} channels -> {args.out}")
    return 0


# ------------------------------------------------------------------ parser

class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, except a default of None,
    whose help states the real default where there is one."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _add_io_flags(sub, needs_input: bool = True) -> None:
    if needs_input:
        sub.add_argument("--input", required=True, help="channel CSV (rows=time, header of names)")
        sub.add_argument(
            "--transpose",
            action="store_true",
            help="input rows are channels, first cell the channel name, no header",
        )
    sub.add_argument("--out", required=True, help="output file path")


def _add_estimator_flags(sub) -> None:
    sub.add_argument(
        "--estimator",
        choices=sorted(_ESTIMATOR_NAMES),
        default="gaussian",
        help="MI estimator",
    )
    sub.add_argument("--bins", type=int, default=EstimatorConfig.bins, help="bins per axis (binned)")
    sub.add_argument("--seed", type=int, default=0, help="run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoci",
        description="Higher-order common information: closed forms, exact discrete "
        "checks, and noise-injection estimation.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hoci {__version__}")
    subs = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=partial(argparse.ArgumentParser, formatter_class=_HelpFormatter),
    )

    g = subs.add_parser("gaussian", help="closed-form curve table over (rho, sigma_n2)")
    g.add_argument(
        "--sigma-n2-grid", default="5", help="noise variance grid: 'a,b,c' or lo:hi:num[:log]"
    )
    g.add_argument(
        "--rho-grid", default="-0.95:0.95:191", help="noise correlation grid, same syntax"
    )
    _add_io_flags(g, needs_input=False)
    g.set_defaults(func=_cmd_gaussian)

    d = subs.add_parser("discrete", help="exact check of the discrete construction")
    d.add_argument("--n", type=int, default=4, help="number of variables")
    d.add_argument("--alphabet", type=int, help="base alphabet size (default: len(--pmf), else 2)")
    d.add_argument("--pmf", default=None, help="base pmf 'p0,p1,...' (default: uniform)")
    _add_io_flags(d, needs_input=False)
    d.set_defaults(func=_cmd_discrete)

    e = subs.add_parser("estimate", help="common-information report from sampled channels")
    _add_io_flags(e)
    _add_estimator_flags(e)
    e.add_argument("--order", type=int, choices=SUPPORTED_ORDERS, default=3, help="highest level")
    e.add_argument(
        "--time-series",
        action="store_true",
        help="use the bidirectional lag-embedded estimator for pairwise terms",
    )
    e.add_argument(
        "--ts-lag", type=int, default=EstimatorConfig.ts_lag, help="time-series embedding lag, samples"
    )
    e.set_defaults(func=_cmd_estimate)

    s = subs.add_parser("sci", help="tune + verify one noise-injection variable")
    _add_io_flags(s)
    _add_estimator_flags(s)
    s.add_argument("--pair", required=True, help="channel pair 'name,name'")
    s.set_defaults(func=_cmd_sci)

    l = subs.add_parser("lagscan", help="max |correlation| over a lag range, per channel")
    _add_io_flags(l)
    l.add_argument("--ref-channel", required=True, help="reference channel name")
    lag_min_ms, lag_max_ms = (s * 1000.0 for s in _LAG_WINDOW_S)
    l.add_argument("--lag-min-ms", type=float, default=lag_min_ms, help="smallest lag, ms")
    l.add_argument("--lag-max-ms", type=float, default=lag_max_ms, help="largest lag, ms")
    l.add_argument("--sample-rate-hz", type=float, default=None, help="sample rate, Hz (no default)")
    l.set_defaults(func=_cmd_lagscan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HociError as err:
        print(json.dumps({"error": err.code, "message": str(err)}), file=sys.stderr)
        return 1
    except OSError as err:
        print(json.dumps({"error": "io_error", "message": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
