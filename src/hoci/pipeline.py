"""End-to-end estimation of common-information quantities over a channel matrix.

Given n channels, the second-order estimate is the minimum pairwise MI.
Higher orders are lower-bounded through tuned noise-injection variables: a
T built for pair (i, j) carries exactly the pair's shared information, so
min over k of MI(T_{i,j}; x_k) bounds the third-order quantity and min over
disjoint pairs of MI(T_{i,j}; T_{k,m}) the fourth.  ``run_estimate`` is the
one estimation path: it scans the pairs, tunes the surrogates and scans the
triples and disjoint pairs once, and reads every level and average off those
candidate lists.  The module also provides the closed-form scaling
approximation and lag-scanned correlation for time-aligned references.

Conventions used throughout:

* One estimator config per run; every MI evaluation inside a report uses it.
* Construction seeds are derived deterministically from (run seed, i, j,
  order), so identical inputs give bit-identical reports.
* Pairs whose target MI is below the tuning resolution are "no common
  information" signals: they are excluded from the min and recorded.  When
  every pair is such a signal the higher-order estimate is exactly 0 --
  undetectable pairwise common information cannot exceed the resolution.
* Construction failures (non-convergence) are likewise excluded and
  recorded; if every construction fails outright the run errors instead of
  silently reporting 0.
* Time-series mode swaps the pairwise estimator for the bidirectional
  lag-embedded variant; the noise-injection tuning itself always uses plain
  MI, since injected noise is i.i.d. and carries no temporal structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import ChannelMatrix
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    NoCommonInformationError,
    ParameterDomainError,
    PipelineError,
)
from .estimators import EstimatorConfig, bidirectional_te_mi, mi_estimate
from .sci import (
    SLACK_BITS_AT_REFERENCE,
    BisectionConfig,
    SciDescriptor,
    build_sci,
    chain_slack_bits,
    _check_seed,
)

__all__ = [
    "ChannelMatrix",
    "CommonInfoReport",
    "LagCorrelation",
    "LevelEstimate",
    "SciExclusion",
    "approx_rtilde",
    "chain_slack_bits",
    "derive_sci_seed",
    "lag_max_correlation",
    "lag_max_correlation_samples",
    "run_estimate",
]

_ALL_NCI_REASON = "no channel pair shares information above the tuning resolution"


def derive_sci_seed(run_seed: int, i: int, j: int, order: int) -> int:
    """Deterministic per-construction seed from the run seed and identity."""
    seq = np.random.SeedSequence([_check_seed(run_seed), i, j, order])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class LevelEstimate:
    """A single common-information level: value, minimizing channels, or
    the reason the value was fixed without a minimizing tuple."""

    bits: float
    channels: tuple[str, ...] | None
    reason: str | None = None


@dataclass(frozen=True)
class SciExclusion:
    """A construction excluded from a report's minima, and why."""

    pair: tuple[str, str]
    code: str
    message: str


@dataclass(frozen=True)
class LagCorrelation:
    """Best absolute correlation over a lag scan."""

    abs_corr: float
    lag_samples: int
    lag_seconds: float | None = None


@dataclass(frozen=True)
class CommonInfoReport:
    """Everything one estimation run produced, sufficient to reproduce it."""

    r2_hat: LevelEstimate
    r3_hat_lower: LevelEstimate | None
    r4_hat_lower: LevelEstimate | None
    rbar: dict[int, float]
    rtilde: dict[int, float]
    estimator: EstimatorConfig
    bisection: BisectionConfig
    seed: int
    order: int
    time_series: bool
    channel_names: tuple[str, ...]
    num_samples: int
    sci_descriptors: tuple[SciDescriptor, ...] = ()
    exclusions: tuple[SciExclusion, ...] = ()
    chain_slack_bits: float = SLACK_BITS_AT_REFERENCE
    chain_ok: bool = True


def _pair_value(
    channels: ChannelMatrix, a: int, b: int, cfg: EstimatorConfig, time_series: bool
) -> float:
    try:
        if time_series:
            return bidirectional_te_mi(channels.data[a], channels.data[b], cfg)
        return mi_estimate(channels.data[a], channels.data[b], cfg)
    except DegenerateInputError as err:
        raise DegenerateInputError(
            f"channel pair ({channels.names[a]}, {channels.names[b]}): {err}"
        ) from err


def _build_all_scis(
    channels: ChannelMatrix,
    cfg: EstimatorConfig,
    bis: BisectionConfig,
    seed: int,
) -> tuple[dict[tuple[int, int], tuple[SciDescriptor, np.ndarray]], list[SciExclusion]]:
    """Tune one T per ordered channel pair; collect failures as exclusions.

    Ordered pairs because the construction injects noise into the second
    channel and is therefore asymmetric.
    """
    built: dict[tuple[int, int], tuple[SciDescriptor, np.ndarray]] = {}
    exclusions: list[SciExclusion] = []
    for i in range(channels.n_channels):
        for j in range(channels.n_channels):
            if i == j:
                continue
            pair_seed = derive_sci_seed(seed, i, j, 2)
            try:
                built[(i, j)] = build_sci(
                    channels.data[i],
                    channels.data[j],
                    cfg,
                    bis,
                    pair_seed,
                    base_channel=j,
                    partner_channel=i,
                )
            except (NoCommonInformationError, ConvergenceError) as err:
                exclusions.append(
                    SciExclusion(
                        pair=(channels.names[i], channels.names[j]),
                        code=err.code,
                        message=str(err),
                    )
                )
    return built, exclusions


def _level(
    candidates: list[tuple[tuple[int, ...], float]],
    names: tuple[str, ...],
    exclusions: list[SciExclusion],
    what: str,
) -> LevelEstimate:
    """The minimum candidate, witnessed by its channels.

    With no candidates the level is the all-NCI zero when some pair was a
    no-common-information signal; otherwise every construction failed and
    the run errors instead of silently reporting 0.
    """
    if candidates:
        idx, best = min(candidates, key=lambda item: item[1])
        return LevelEstimate(bits=best, channels=tuple(names[i] for i in idx))
    if any(e.code == NoCommonInformationError.code for e in exclusions):
        return LevelEstimate(bits=0.0, channels=None, reason=_ALL_NCI_REASON)
    detail = "; ".join(f"({e.pair[0]},{e.pair[1]}): {e.message}" for e in exclusions)
    raise PipelineError(f"every construction needed for {what} failed: {detail}")


def _mean(candidates: list[tuple[tuple[int, ...], float]]) -> float:
    return float(sum(v for _, v in candidates) / len(candidates)) if candidates else 0.0


def approx_rtilde(r2_hat: float, n_vars: int, level: int) -> float:
    """Scaling approximation ((n - level)/(n - 2)) * r2_hat."""
    if not (isinstance(n_vars, (int, np.integer)) and n_vars > 2):
        raise ParameterDomainError(f"n_vars must be an integer > 2, got {n_vars}")
    if not (isinstance(level, (int, np.integer)) and 2 <= level <= n_vars):
        raise ParameterDomainError(f"level must lie in [2, {n_vars}], got {level}")
    if r2_hat < 0:
        raise ParameterDomainError(f"r2_hat must be nonnegative, got {r2_hat}")
    coeff = (n_vars - level) / (n_vars - 2)
    if coeff == 0.0:
        return 0.0  # exact zero even for divergent r2_hat
    return coeff * r2_hat


def _abs_corr(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    xs = x[: x.size - lag] if lag else x
    ys = y[lag:]
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    nx = float(np.sqrt(xc @ xc))
    ny = float(np.sqrt(yc @ yc))
    if nx == 0.0 or ny == 0.0:
        raise DegenerateInputError(f"constant overlap at lag {lag} samples")
    return min(1.0, abs(float((xc @ yc) / (nx * ny))))


def lag_max_correlation_samples(
    x, y, lag_min_samples: int, lag_max_samples: int
) -> LagCorrelation:
    """Max of |corr(x shifted by lag, y)| over an integer lag range."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise DegenerateInputError("x and y must be equal-length columns")
    if not np.isfinite(xa).all() or not np.isfinite(ya).all():
        raise DegenerateInputError("lag scan inputs contain non-finite values")
    if not 0 <= lag_min_samples <= lag_max_samples:
        raise ParameterDomainError(
            f"need 0 <= lag_min <= lag_max, got [{lag_min_samples}, {lag_max_samples}]"
        )
    if xa.size - lag_max_samples < 2:
        raise DegenerateInputError(
            f"series of length {xa.size} too short for max lag {lag_max_samples}"
        )
    best = None
    for lag in range(lag_min_samples, lag_max_samples + 1):
        c = _abs_corr(xa, ya, lag)
        if best is None or c > best[0]:
            best = (c, lag)
    return LagCorrelation(abs_corr=best[0], lag_samples=best[1])


def _lag_range_samples(lag_min_s: float, lag_max_s: float, rate_hz: float) -> tuple[int, int]:
    """Integer lags whose real time lies in [lag_min_s, lag_max_s]; none is a domain error."""
    if not (0 <= lag_min_s <= lag_max_s and math.isfinite(lag_max_s)):
        raise ParameterDomainError(
            f"need 0 <= lag_min_s <= lag_max_s, got [{lag_min_s}, {lag_max_s}]"
        )
    lag_min = math.ceil(lag_min_s * rate_hz - 1e-9)
    lag_max = math.floor(lag_max_s * rate_hz + 1e-9)
    if lag_min > lag_max:
        raise ParameterDomainError(
            f"no integer lag lies in [{lag_min_s}, {lag_max_s}] s at {rate_hz} Hz"
        )
    return lag_min, lag_max


def lag_max_correlation(
    x,
    y,
    lag_min_s: float = 0.190,
    lag_max_s: float = 0.300,
    sample_rate_hz: float | None = None,
) -> LagCorrelation:
    """Lag scan with the range given in seconds at a known sample rate.

    The scanned integer lags are those whose real time lies inside
    [lag_min_s, lag_max_s]; an empty set is a domain error.
    """
    if sample_rate_hz is None or not sample_rate_hz > 0:
        raise ConfigurationError("a positive sample_rate_hz is required for lags in seconds")
    lag_min, lag_max = _lag_range_samples(lag_min_s, lag_max_s, sample_rate_hz)
    res = lag_max_correlation_samples(x, y, lag_min, lag_max)
    return LagCorrelation(
        abs_corr=res.abs_corr,
        lag_samples=res.lag_samples,
        lag_seconds=res.lag_samples / sample_rate_hz,
    )


def run_estimate(
    channels: ChannelMatrix,
    cfg: EstimatorConfig = EstimatorConfig(),
    bis: BisectionConfig = BisectionConfig(),
    seed: int = 0,
    order: int = 3,
    *,
    time_series: bool = False,
) -> CommonInfoReport:
    """Full estimation run up to the requested order, with chain check.

    Order 2 reports the pairwise minimum and average only; order 3 adds the
    third-order bound (needs >= 3 channels), order 4 the fourth (>= 4).
    """
    if order not in (2, 3, 4):
        raise ConfigurationError(f"order must be 2, 3, or 4, got {order}")
    if channels.n_channels < order:
        raise ParameterDomainError(
            f"order {order} needs at least {order} channels, got {channels.n_channels}"
        )
    _check_seed(seed)

    n = channels.n_channels
    names = channels.names
    pairs = [
        ((a, b), _pair_value(channels, a, b, cfg, time_series))
        for a, b in combinations(range(n), 2)
    ]
    r2 = _level(pairs, names, [], "the pairwise minimum")
    rbar = {2: _mean(pairs)}

    r3 = r4 = None
    descriptors: tuple[SciDescriptor, ...] = ()
    exclusions: list[SciExclusion] = []
    if order >= 3:
        built, exclusions = _build_all_scis(channels, cfg, bis, seed)
        descriptors = tuple(desc for desc, _ in built.values())
        triples = [
            ((i, j, k), mi_estimate(t, channels.data[k], cfg))
            for (i, j), (_, t) in built.items()
            for k in range(n)
            if k not in (i, j)
        ]
        r3 = _level(triples, names, exclusions, "the third-order bound")
        rbar[3] = _mean(triples)
        if order >= 4:
            quads = [
                ((*pa, *pb), mi_estimate(ta, tb, cfg))
                for (pa, (_, ta)), (pb, (_, tb)) in combinations(built.items(), 2)
                if not set(pa) & set(pb)
            ]
            r4 = _level(quads, names, exclusions, "the fourth-order bound")

    rtilde = {}
    if n > 2:
        rtilde = {lvl: approx_rtilde(r2.bits, n, lvl) for lvl in range(2, order + 1)}

    slack = chain_slack_bits(channels.n_samples)
    ok = r3 is None or r3.bits <= r2.bits + slack
    if ok and r4 is not None:
        ok = r4.bits <= r3.bits + slack

    return CommonInfoReport(
        r2_hat=r2,
        r3_hat_lower=r3,
        r4_hat_lower=r4,
        rbar=rbar,
        rtilde=rtilde,
        estimator=cfg,
        bisection=bis,
        seed=int(seed),
        order=order,
        time_series=time_series,
        channel_names=channels.names,
        num_samples=channels.n_samples,
        sci_descriptors=descriptors,
        exclusions=tuple(exclusions),
        chain_slack_bits=slack,
        chain_ok=ok,
    )
