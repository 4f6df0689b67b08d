"""Command-line interface and file IO: CSV channels in, JSON/CSV results out.

Subcommands:

* ``gaussian`` — closed-form curve tables over (rho, sigma_n2) grids.
* ``discrete`` — exact verification of the discrete construction.
* ``estimate`` — end-to-end common-information report from a channel CSV.
* ``sci`` — tune and verify a single noise-injection variable for one pair.
* ``lagscan`` — per-channel lag-scanned correlation against a reference.

Conventions: channel CSVs are rows=time with a header of channel names
(``--transpose`` accepts channels-as-rows with the name in the first cell);
divergent values are written as ``"inf"`` in CSV and as ``{"divergent":
true}`` objects in JSON; every output embeds the resolved configuration and
seed, and contains no timestamps, so identical runs produce byte-identical
files.  Errors exit nonzero with a machine-readable ``{"error": code,
"message": ...}`` line on stderr.  The run seed falls back to the
``HOCI_SEED`` environment variable, then to 0.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .channels import MIN_SAMPLES, ChannelMatrix
from .discrete import verify_theorem5
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    HociError,
    IngestionError,
    ParameterDomainError,
)
from .estimators import EstimatorConfig
from .gaussian import (
    GaussianEnsembleSpec,
    cond_mi_xi_xj_given_xk,
    mi_x_xi,
    mi_xi_xj,
    r3_lower,
    r4_lower,
)
from .pipeline import (
    CommonInfoReport,
    _lag_range_samples,
    derive_sci_seed,
    lag_max_correlation_samples,
    run_estimate,
)
from .sci import BisectionConfig, build_sci, verify_sci

CURVE_HEADER = "rho,sigma_n2,I(X;Xi),I(Xi;Xj),I(Xi;Xj|Xk),R2,R3_lower,R4_lower"
LAGSCAN_HEADER = "channel,lag_samples,lag_ms,abs_corr"
_ESTIMATOR_NAMES = {"gaussian": "gaussian_logdet", "knn": "knn", "binned": "binned"}
_TUPLE_KEYS = {2: "pair", 3: "triple", 4: "quadruple"}


# ---------------------------------------------------------------- ingestion

def _parse_cell(cell: str, row_num: int, col_name: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(
            f"row {row_num}, column {col_name!r}: non-numeric cell {cell.strip()!r}"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(
            f"row {row_num}, column {col_name!r}: non-finite cell {cell.strip()!r}"
        )
    return value


def _check_names(names: list[str], where: str) -> None:
    for pos, name in enumerate(names, start=1):
        if not name:
            raise IngestionError(f"{where} {pos} has an empty channel name")
    seen: dict[str, int] = {}
    for pos, name in enumerate(names, start=1):
        if name in seen:
            raise IngestionError(
                f"duplicate channel name {name!r} ({where}s {seen[name]} and {pos})"
            )
        seen[name] = pos


def ingest_csv(path: str, transpose: bool = False) -> ChannelMatrix:
    """Read a channel CSV and return the standardized matrix.

    Default orientation: first row is the header of channel names, each
    later row one time sample.  With ``transpose`` each row is one channel,
    its name in the first cell, with no header row.  Comment lines starting
    with ``#`` and blank lines are skipped.  All shape and value problems
    raise an ingestion error naming the offending row and column.
    """
    try:
        with open(path, newline="") as fh:
            numbered = [
                (num, row)
                for num, row in enumerate(csv.reader(fh), start=1)
                if row
                and not all(c.strip() == "" for c in row)
                and not row[0].lstrip().startswith("#")
            ]
    except OSError as err:
        raise IngestionError(f"cannot read {path}: {err}") from err
    if not numbered:
        raise IngestionError(f"{path} contains no data rows")

    if transpose:
        names = [row[0].strip() for _, row in numbered]
        _check_names(names, "row")
        width = len(numbered[0][1]) - 1
        channels = []
        for (num, row), name in zip(numbered, names):
            if len(row) - 1 != width:
                raise IngestionError(
                    f"row {num} has {len(row) - 1} samples; expected {width}"
                )
            channels.append(
                [_parse_cell(c, num, name) for c in row[1:]]
            )
        data = np.array(channels)
    else:
        header_num, header = numbered[0]
        names = [c.strip() for c in header]
        _check_names(names, "column")
        samples = []
        for num, row in numbered[1:]:
            if len(row) != len(names):
                raise IngestionError(
                    f"row {num} has {len(row)} cells; expected {len(names)}"
                )
            samples.append(
                [_parse_cell(c, num, names[col]) for col, c in enumerate(row)]
            )
        data = np.array(samples).T if samples else np.empty((len(names), 0))

    if data.shape[1] < MIN_SAMPLES:
        raise IngestionError(
            f"{path} has {data.shape[1]} samples per channel; need at least {MIN_SAMPLES}"
        )
    try:
        return ChannelMatrix(names=tuple(names), data=data).standardized()
    except DegenerateInputError as err:
        raise IngestionError(str(err)) from err


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
    text = json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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


def _descriptor_doc(desc) -> dict:
    return {
        "base_channel": desc.base_channel,
        "partner_channel": desc.partner_channel,
        "noise_variance": desc.noise_variance,
        "seed": desc.seed,
        "residual": desc.residual,
        "iterations": desc.iterations,
        "order": desc.order,
    }


def _estimator_doc(cfg: EstimatorConfig) -> dict:
    return {"method": cfg.method, "k": cfg.k, "bins": cfg.bins, "ts_lag": cfg.ts_lag}


def _bisection_doc(bis: BisectionConfig) -> dict:
    return {
        "epsilon": bis.epsilon,
        "max_iterations": bis.max_iterations,
        "bracket_growth": bis.bracket_growth,
        "initial_variance": bis.initial_variance,
    }


def emit_report(report: CommonInfoReport, path: str) -> None:
    """Write a full estimation report as deterministic, stable-key-order JSON."""
    doc = {
        "tool": "hoci",
        "version": __version__,
        "seed": report.seed,
        "config": {
            "order": report.order,
            "time_series": report.time_series,
            "estimator": _estimator_doc(report.estimator),
            "bisection": _bisection_doc(report.bisection),
        },
        "channels": list(report.channel_names),
        "num_samples": report.num_samples,
        "r2": _level_doc(report.r2_hat),
        "r3_lower": _level_doc(report.r3_hat_lower),
        "r4_lower": _level_doc(report.r4_hat_lower),
        "rbar": {str(k): v for k, v in sorted(report.rbar.items())},
        "rtilde": {str(k): v for k, v in sorted(report.rtilde.items())},
        "chain": {"slack_bits": report.chain_slack_bits, "ok": report.chain_ok},
        "sci": [_descriptor_doc(d) for d in report.sci_descriptors],
        "exclusions": [
            {"pair": list(e.pair), "code": e.code, "message": e.message}
            for e in report.exclusions
        ],
    }
    _write_json(doc, path)


def emit_gaussian_curves(sigma_x2: float, rho_grid, sigma_n2_grid, path: str) -> int:
    """Write the closed-form curve table over the grid; returns the row count.

    Divergent cells are written as "inf"; parameter combinations where the
    conditional MI is undefined get "nan" in that column only.
    """
    rhos = np.asarray(rho_grid, dtype=np.float64)
    noises = np.asarray(sigma_n2_grid, dtype=np.float64)
    if rhos.size == 0 or noises.size == 0:
        raise ConfigurationError("gaussian sweep needs non-empty rho and sigma_n2 grids")
    lines = [
        f"# tool: hoci {__version__}",
        f"# sigma_x2: {_csv_num(sigma_x2)}",
        f"# rho_grid: {','.join(_csv_num(r) for r in rhos)}",
        f"# sigma_n2_grid: {','.join(_csv_num(s) for s in noises)}",
        CURVE_HEADER,
    ]
    for rho in rhos:
        for sn2 in noises:
            spec = GaussianEnsembleSpec(float(sigma_x2), float(sn2), float(rho))
            pairwise = mi_xi_xj(spec)
            try:
                cond = cond_mi_xi_xj_given_xk(spec)
            except ParameterDomainError:
                cond = math.nan
            cells = [
                _csv_num(rho),
                _csv_num(sn2),
                _csv_num(mi_x_xi(spec)),
                _csv_num(pairwise),
                _csv_num(cond),
                _csv_num(pairwise),
                _csv_num(r3_lower(spec)),
                _csv_num(r4_lower(spec)),
            ]
            lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return rhos.size * noises.size


# ------------------------------------------------------------ configuration

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
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise ConfigurationError(f"grid {text!r}: log spacing needs positive bounds")
            return np.geomspace(lo, hi, num)
        if scale == "lin":
            return np.linspace(lo, hi, num)
        raise ConfigurationError(f"grid {text!r}: unknown scale {scale!r}")
    values = []
    for piece in t.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise ConfigurationError(f"grid {text!r}: non-numeric entry {piece!r}") from None
    if not values:
        raise ConfigurationError(f"grid {text!r} is empty")
    return np.array(values)


def resolve_seed(explicit: int | None) -> int:
    """--seed flag, else HOCI_SEED environment variable, else 0."""
    if explicit is not None:
        seed = explicit
    elif "HOCI_SEED" in os.environ:
        raw = os.environ["HOCI_SEED"]
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigurationError(f"HOCI_SEED={raw!r} is not an integer") from None
    else:
        seed = 0
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return seed


def _estimator_from_args(args) -> EstimatorConfig:
    return EstimatorConfig(
        method=_ESTIMATOR_NAMES[args.estimator],
        k=args.k,
        bins=args.bins,
        ts_lag=args.ts_lag,
    )


def _bisection_from_args(args) -> BisectionConfig:
    return BisectionConfig(epsilon=args.epsilon, max_iterations=args.max_iters)


def _parse_pair(matrix: ChannelMatrix, text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigurationError(f"--pair wants 'i,j' (names or indices), got {text!r}")
    resolved = []
    for p in parts:
        try:
            key: int | str = int(p)
        except ValueError:
            key = p
        resolved.append(matrix.index_of(key))
    i, j = resolved
    if i == j:
        raise ConfigurationError(f"--pair needs two distinct channels, got {text!r}")
    return i, j


# ------------------------------------------------------------- subcommands

def _cmd_gaussian(args) -> int:
    rows = emit_gaussian_curves(
        args.sigma_x2, parse_grid(args.rho_grid), parse_grid(args.sigma_n2_grid), args.out
    )
    print(f"wrote {rows} closed-form rows to {args.out}")
    return 0


def _cmd_discrete(args) -> int:
    if args.pmf is not None:
        pmf = [float(p) for p in parse_grid(args.pmf)]
        if len(pmf) != args.alphabet:
            raise ConfigurationError(
                f"--pmf has {len(pmf)} entries but --alphabet is {args.alphabet}"
            )
    else:
        pmf = [1.0 / args.alphabet] * args.alphabet
    result = verify_theorem5(args.n, pmf)
    doc = {
        "tool": "hoci",
        "version": __version__,
        "config": {"n": args.n, "alphabet": args.alphabet, "pmf": pmf},
        "entropy_bits": result.entropy_bits,
        "levels": [
            {
                "level": lv.level,
                "expected_bits": lv.expected_bits,
                "min_mask_mi_bits": lv.min_mask_mi_bits,
                "exact_match": lv.exact_match,
                "enumeration_bits": lv.enumeration_bits,
                "enumeration_abs_err": lv.enumeration_abs_err,
            }
            for lv in result.levels
        ],
        "passed": result.passed,
    }
    _write_json(doc, args.out)
    print(f"construction check n={args.n}: {'PASS' if result.passed else 'FAIL'} -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    seed = resolve_seed(args.seed)
    report = run_estimate(
        matrix,
        _estimator_from_args(args),
        _bisection_from_args(args),
        seed,
        order=args.order,
        time_series=args.time_series,
    )
    emit_report(report, args.out)
    print(
        f"r2={_csv_num(report.r2_hat.bits)} bits"
        + (f", r3_lower={_csv_num(report.r3_hat_lower.bits)}" if report.r3_hat_lower else "")
        + (f", r4_lower={_csv_num(report.r4_hat_lower.bits)}" if report.r4_hat_lower else "")
        + f" -> {args.out}"
    )
    return 0


def _cmd_sci(args) -> int:
    matrix = ingest_csv(args.input, transpose=args.transpose)
    i, j = _parse_pair(matrix, args.pair)
    seed = resolve_seed(args.seed)
    cfg = _estimator_from_args(args)
    bis = _bisection_from_args(args)
    pair_seed = derive_sci_seed(seed, i, j, 2)
    desc, t = build_sci(
        matrix.data[i], matrix.data[j], cfg, bis, pair_seed,
        base_channel=j, partner_channel=i,
    )
    verification = verify_sci(t, matrix, i, j, cfg)
    doc = {
        "tool": "hoci",
        "version": __version__,
        "seed": seed,
        "config": {
            "pair": [matrix.names[i], matrix.names[j]],
            "estimator": _estimator_doc(cfg),
            "bisection": _bisection_doc(bis),
        },
        "channels": list(matrix.names),
        "num_samples": matrix.n_samples,
        "descriptor": _descriptor_doc(desc),
        "verification": {
            "delta_bits": verification.delta_bits,
            "passed": verification.passed,
            "checks": [
                {
                    "channel": c.name,
                    "mi_with_t_bits": c.mi_with_t_bits,
                    "bound_bits": c.bound_bits,
                    "margin_bits": c.margin_bits,
                    "passed": c.passed,
                }
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
    ref = matrix.index_of(args.ref_channel)
    rate = args.sample_rate_hz
    if rate is not None and not rate > 0:
        raise ConfigurationError(f"--sample-rate-hz must be positive, got {rate}")
    if args.lag_min_samples is not None or args.lag_max_samples is not None:
        if args.lag_min_samples is None or args.lag_max_samples is None:
            raise ConfigurationError(
                "--lag-min-samples and --lag-max-samples must be given together"
            )
        lag_min, lag_max = args.lag_min_samples, args.lag_max_samples
    else:
        if rate is None:
            raise ConfigurationError(
                "lag bounds in milliseconds need --sample-rate-hz "
                "(or use --lag-min-samples/--lag-max-samples)"
            )
        lag_min, lag_max = _lag_range_samples(
            args.lag_min_ms / 1000.0, args.lag_max_ms / 1000.0, rate
        )
    lines = [
        f"# tool: hoci {__version__}",
        f"# ref_channel: {matrix.names[ref]}",
        f"# lag_range_samples: {lag_min},{lag_max}",
        f"# sample_rate_hz: {_csv_num(rate) if rate is not None else 'none'}",
        LAGSCAN_HEADER,
    ]
    for g in range(matrix.n_channels):
        if g == ref:
            continue
        res = lag_max_correlation_samples(matrix.data[ref], matrix.data[g], lag_min, lag_max)
        lag_ms = res.lag_samples / rate * 1000.0 if rate is not None else math.nan
        lines.append(
            f"{matrix.names[g]},{res.lag_samples},{_csv_num(lag_ms)},{_csv_num(res.abs_corr)}"
        )
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"scanned lags {lag_min}..{lag_max} samples for {matrix.n_channels - 1} channels -> {args.out}")
    return 0


# ------------------------------------------------------------------ parser

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
    sub.add_argument("--k", type=int, default=4, help="neighbor count (knn)")
    sub.add_argument("--bins", type=int, default=16, help="bins per axis (binned)")
    sub.add_argument("--ts-lag", type=int, default=3, help="time-series embedding lag, samples")
    sub.add_argument("--epsilon", type=float, default=1e-3, help="tuning residual target, bits")
    sub.add_argument("--max-iters", type=int, default=60, help="tuning iteration budget")
    sub.add_argument("--seed", type=int, default=None, help="run seed (default: $HOCI_SEED, else 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoci",
        description="Higher-order common information: closed forms, exact discrete "
        "checks, and noise-injection estimation.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"hoci {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser(
        "gaussian",
        help="closed-form curve table over (rho, sigma_n2)",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    g.add_argument("--sigma-x2", type=float, default=1.0, help="source variance")
    g.add_argument(
        "--sigma-n2-grid", default="5", help="noise variance grid: 'a,b,c' or lo:hi:num[:log]"
    )
    g.add_argument(
        "--rho-grid", default="-0.95:0.95:191", help="noise correlation grid, same syntax"
    )
    _add_io_flags(g, needs_input=False)
    g.set_defaults(func=_cmd_gaussian)

    d = subs.add_parser(
        "discrete",
        help="exact check of the discrete construction",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    d.add_argument("--n", type=int, default=4, help="number of variables")
    d.add_argument("--alphabet", type=int, default=2, help="base alphabet size")
    d.add_argument("--pmf", default=None, help="base pmf 'p0,p1,...' (default: uniform)")
    _add_io_flags(d, needs_input=False)
    d.set_defaults(func=_cmd_discrete)

    e = subs.add_parser(
        "estimate",
        help="common-information report from sampled channels",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_flags(e)
    _add_estimator_flags(e)
    e.add_argument("--order", type=int, choices=(2, 3, 4), default=3, help="highest level")
    e.add_argument(
        "--time-series",
        action="store_true",
        help="use the bidirectional lag-embedded estimator for pairwise terms",
    )
    e.set_defaults(func=_cmd_estimate)

    s = subs.add_parser(
        "sci",
        help="tune + verify one noise-injection variable",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_flags(s)
    _add_estimator_flags(s)
    s.add_argument("--pair", required=True, help="channel pair 'i,j' (names or indices)")
    s.set_defaults(func=_cmd_sci)

    l = subs.add_parser(
        "lagscan",
        help="max |correlation| over a lag range, per channel",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_flags(l)
    l.add_argument("--ref-channel", required=True, help="reference channel (name or index)")
    l.add_argument("--lag-min-ms", type=float, default=190.0, help="smallest lag, ms")
    l.add_argument("--lag-max-ms", type=float, default=300.0, help="largest lag, ms")
    l.add_argument("--sample-rate-hz", type=float, default=None, help="sample rate for ms lags")
    l.add_argument("--lag-min-samples", type=int, default=None, help="smallest lag, samples")
    l.add_argument("--lag-max-samples", type=int, default=None, help="largest lag, samples")
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
