"""End-to-end estimation of common-information quantities over a channel matrix.

Given n channels, the second-order estimate is the minimum pairwise MI.
Higher orders are lower-bounded through tuned noise-injection variables: a
T built for pair (i, j) carries exactly the pair's shared information, so
min over k of MI(T_{i,j}; x_k) bounds the third-order quantity and min over
disjoint pairs of MI(T_{i,j}; T_{k,m}) the fourth.  ``run_estimate`` is the
one estimation path: it scans the pairs, tunes the surrogates and scans the
triples and disjoint pairs once, one candidate list per level, and reads
every level and average off those lists.  The module also provides the
closed-form scaling approximation and lag-scanned correlation for
time-aligned references.

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
from itertools import combinations, permutations, product

import numpy as np

from .channels import ChannelMatrix, check_seed
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    NoCommonInformationError,
    ParameterDomainError,
    PipelineError,
)
from .estimators import EstimatorConfig, PreparedColumns, bidirectional_te_mi, mi_estimate
from .estimators import _pair, _pearson
from .sci import (
    SLACK_BITS_AT_REFERENCE,
    BisectionConfig,
    SciDescriptor,
    build_sci,
    chain_slack_bits,
)

__all__ = [
    "ChannelMatrix",
    "CommonInfoReport",
    "LagCorrelation",
    "LevelEstimate",
    "SUPPORTED_ORDERS",
    "SciExclusion",
    "approx_rtilde",
    "chain_slack_bits",
    "derive_sci_seed",
    "lag_max_correlation",
    "lag_max_correlation_samples",
    "run_estimate",
]

_ALL_NCI_REASON = "no channel pair shares information above the tuning resolution"
# what each level's minimum is, as named in a failed run's error
_LEVEL_WHAT = {2: "the pairwise minimum", 3: "the third-order bound", 4: "the fourth-order bound"}
SUPPORTED_ORDERS = tuple(_LEVEL_WHAT)


def derive_sci_seed(run_seed: int, i: int, j: int, order: int) -> int:
    """Deterministic per-construction seed from the run seed and identity."""
    seq = np.random.SeedSequence([check_seed(run_seed), i, j, order])
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
    """Everything one estimation run produced, sufficient to reproduce it.

    ``levels`` holds one estimate per level, keyed 2..order: the pairwise
    minimum, then the lower bounds.
    """

    levels: dict[int, LevelEstimate]
    rbar: dict[int, float]
    rtilde: dict[int, float]
    estimator: EstimatorConfig
    bisection: BisectionConfig
    seed: int
    time_series: bool
    channel_names: tuple[str, ...]
    num_samples: int
    sci_descriptors: tuple[SciDescriptor, ...] = ()
    exclusions: tuple[SciExclusion, ...] = ()
    chain_slack_bits: float = SLACK_BITS_AT_REFERENCE
    chain_ok: bool = True


def _pair_error(channels: ChannelMatrix, a: int, b: int, err: Exception) -> DegenerateInputError:
    return DegenerateInputError(f"channel pair ({channels.names[a]}, {channels.names[b]}): {err}")


def _pair_value(
    channels: ChannelMatrix,
    rows: list[np.ndarray],
    a: int,
    b: int,
    columns: PreparedColumns,
    time_series: bool,
) -> float:
    try:
        if time_series:
            return bidirectional_te_mi(rows[a], rows[b], columns.cfg)
        return mi_estimate(rows[a], rows[b], columns.cfg, columns=columns)
    except DegenerateInputError as err:
        raise _pair_error(channels, a, b, err) from err


def _pair_sci(
    rows,
    i: int,
    j: int,
    cfg: EstimatorConfig,
    bis: BisectionConfig,
    seed: int,
    columns: PreparedColumns | None = None,
) -> tuple[SciDescriptor, np.ndarray]:
    """Tune the surrogate of ordered pair (i, j): noise goes into channel j."""
    pair_seed = derive_sci_seed(seed, i, j, 2)
    return build_sci(
        rows[i], rows[j], cfg, bis, pair_seed, base_channel=j, partner_channel=i, columns=columns
    )


def _build_all_scis(
    channels: ChannelMatrix,
    rows: list[np.ndarray],
    columns: PreparedColumns,
    bis: BisectionConfig,
    seed: int,
) -> tuple[dict[tuple[int, int], tuple[SciDescriptor, np.ndarray]], list[SciExclusion]]:
    """Tune one T per ordered channel pair; collect failures as exclusions
    and keep each T's preparation.  A degenerate input names its pair.

    Ordered pairs because the construction injects noise into the second
    channel and is therefore asymmetric.
    """
    built: dict[tuple[int, int], tuple[SciDescriptor, np.ndarray]] = {}
    exclusions: list[SciExclusion] = []
    for i, j in permutations(range(channels.n_channels), 2):
        try:
            desc, t = _pair_sci(rows, i, j, columns.cfg, bis, seed, columns)
        except (NoCommonInformationError, ConvergenceError) as err:
            pair = (channels.names[i], channels.names[j])
            exclusions.append(SciExclusion(pair=pair, code=err.code, message=str(err)))
        except DegenerateInputError as err:
            raise _pair_error(channels, i, j, err) from err
        else:
            built[(i, j)] = desc, t
            columns.keep(t)
    return built, exclusions


def _scan(entry_pairs, columns: PreparedColumns) -> list[tuple[tuple[int, ...], float]]:
    """MI of each pair of (channel-index tuple, column) entries whose channel
    sets are disjoint, keyed by the joined channel tuple, in input order."""
    return [
        ((*ia, *ib), mi_estimate(a, b, columns.cfg, columns=columns))
        for (ia, a), (ib, b) in entry_pairs
        if not set(ia) & set(ib)
    ]


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


def approx_rtilde(r2_bits: float, n_vars: int, level: int) -> float:
    """Scaling approximation ((n - level)/(n - 2)) * r2_bits."""
    if not (isinstance(n_vars, (int, np.integer)) and n_vars > 2):
        raise ParameterDomainError(f"n_vars must be an integer > 2, got {n_vars}")
    if not (isinstance(level, (int, np.integer)) and 2 <= level <= n_vars):
        raise ParameterDomainError(f"level must lie in [2, {n_vars}], got {level}")
    if r2_bits < 0:
        raise ParameterDomainError(f"r2_bits must be nonnegative, got {r2_bits}")
    coeff = (n_vars - level) / (n_vars - 2)
    if coeff == 0.0:
        return 0.0  # exact zero even for divergent r2_bits
    return coeff * r2_bits


def _abs_corr(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    try:
        return abs(_pearson(x[: x.size - lag], y[lag:]))
    except DegenerateInputError:  # finite columns are refused only when constant
        raise DegenerateInputError(f"constant overlap at lag {lag} samples") from None


def lag_max_correlation_samples(
    x, y, lag_min_samples: int, lag_max_samples: int
) -> LagCorrelation:
    """Max of |corr(x shifted by lag, y)| over an integer lag range."""
    xa, ya = _pair(x, y)
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


def _lag_range_samples(lag_min_s: float, lag_max_s: float, rate_hz: float | None) -> tuple[int, int]:
    """The one lag-window rule: integer lags whose real time lies in [lag_min_s, lag_max_s]
    at a positive, finite ``rate_hz``; none, or a window past float64's range in samples,
    is a domain error."""
    if rate_hz is None or not 0 < rate_hz < math.inf:
        raise ConfigurationError("a positive, finite sample_rate_hz is required for lags in seconds")
    if not 0 <= lag_min_s <= lag_max_s:
        raise ParameterDomainError(
            f"need 0 <= lag_min_s <= lag_max_s, got [{lag_min_s}, {lag_max_s}]"
        )
    if not math.isfinite(lag_max_s * rate_hz):
        raise ParameterDomainError(
            f"lag window [{lag_min_s}, {lag_max_s}] s at {rate_hz} Hz is not finite in samples"
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
    [lag_min_s, lag_max_s], by the rule of ``_lag_range_samples``.
    """
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
    if order not in SUPPORTED_ORDERS:
        raise ConfigurationError(f"order must be 2, 3, or 4, got {order}")
    if channels.n_channels < order:
        raise ParameterDomainError(
            f"order {order} needs at least {order} channels, got {channels.n_channels}"
        )
    seed = check_seed(seed)

    n = channels.n_channels
    # one view per channel row, so that the table finds each row by identity
    rows = list(channels.data)
    columns = PreparedColumns(cfg, rows)
    candidates = {
        2: [
            ((a, b), _pair_value(channels, rows, a, b, columns, time_series))
            for a, b in combinations(range(n), 2)
        ]
    }
    descriptors: tuple[SciDescriptor, ...] = ()
    exclusions: list[SciExclusion] = []
    if order >= 3:
        built, exclusions = _build_all_scis(channels, rows, columns, bis, seed)
        descriptors = tuple(desc for desc, _ in built.values())
        surrogates = [(pair, t) for pair, (_, t) in built.items()]
        singles = [((k,), rows[k]) for k in range(n)]
        candidates[3] = _scan(product(surrogates, singles), columns)
        if order >= 4:
            candidates[4] = _scan(combinations(surrogates, 2), columns)
    levels = {
        lvl: _level(found, channels.names, exclusions, _LEVEL_WHAT[lvl])
        for lvl, found in candidates.items()
    }
    rbar = {lvl: _mean(candidates[lvl]) for lvl in (2, 3) if lvl in candidates}

    rtilde = {lvl: approx_rtilde(levels[2].bits, n, lvl) for lvl in levels} if n > 2 else {}

    slack = chain_slack_bits(channels.n_samples)
    ok = all(levels[lvl].bits <= levels[lvl - 1].bits + slack for lvl in levels if lvl > 2)

    return CommonInfoReport(
        levels=levels,
        rbar=rbar,
        rtilde=rtilde,
        estimator=cfg,
        bisection=bis,
        seed=seed,
        time_series=time_series,
        channel_names=channels.names,
        num_samples=channels.n_samples,
        sci_descriptors=descriptors,
        exclusions=tuple(exclusions),
        chain_slack_bits=slack,
        chain_ok=ok,
    )
