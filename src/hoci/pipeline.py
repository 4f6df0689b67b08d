"""End-to-end estimation of common-information quantities over a channel matrix.

Given n channels, the second-order estimate is the minimum pairwise MI.
Higher orders are lower-bounded through tuned noise-injection variables: a
T built for pair (i, j) carries exactly the pair's shared information, so
min over k of MI(T_{i,j}; x_k) bounds the third-order quantity and min over
disjoint pairs of MI(T_{i,j}; T_{k,m}) the fourth.  ``run_estimate`` is the
one estimation path: it scans the pairs, then reads every higher level and
average off one set of candidates per level, in one scan order.

Under ``binned`` and ``knn`` it tunes one sampled surrogate per ordered pair
and scans the triples and disjoint pairs with one estimator call each.
Under ``gaussian_logdet`` every candidate is a closed form of the sample
correlation matrix R: T_{i,j} is tuned to corr(T_{i,j}, x_j)^2 = R_ij^2, so
its r3 candidate is -1/2 log2(1 - R_ij^2 R_jk^2) and its r4 candidate
-1/2 log2(1 - R_ij^2 R_jm^2 R_km^2).  Those are the sampled construction's
values once its noise is orthogonal to every channel and every other noise,
so the run samples no surrogate, lists no descriptor, and makes no estimator
call past the pairs.  The module also provides the lag-scanned correlation
for time-aligned references.

Conventions used throughout:

* One estimator config per run; every MI evaluation inside a report uses it.
* Noise seeds are derived deterministically from the run seed and the
  carrier channel's name, so identical inputs give bit-identical reports, a
  channel's noise does not depend on its column's place, and the n - 1
  surrogates of one carrier share one draw.  A ``gaussian_logdet`` report
  draws no noise and does not depend on the seed.
* Pairs whose target MI is at or below the tuning resolution, the
  constant ``sci.EPSILON``, are "no common information" signals: they are
  excluded from the min and recorded.  When every pair is such a signal
  the higher-order estimate is exactly 0 -- undetectable pairwise common
  information cannot exceed the resolution.
* Construction failures (non-convergence) are likewise excluded and
  recorded; if every construction fails outright the run errors instead of
  silently reporting 0.
* Time-series mode swaps the pairwise estimator for the bidirectional
  lag-embedded variant; the noise-injection tuning and the correlations
  always use plain MI, since injected noise is i.i.d. and carries no
  temporal structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .channels import ChannelMatrix, check_seed, is_integer, is_real
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    NoCommonInformationError,
    ParameterDomainError,
    PipelineError,
)
from .estimators import EstimatorConfig, PreparedColumns, bidirectional_te_mi, mi_estimate
from .estimators import _correlation, _gaussian_bits, _lagged_pair, _pearson
from .sci import (
    SLACK_BITS_AT_REFERENCE,
    SciDescriptor,
    _checked_target,
    build_sci,
    chain_slack_bits,
)

_ALL_NCI_REASON = "no channel pair shares information above the tuning resolution"
# what each level's minimum is, as named in a failed run's error
_LEVEL_WHAT = {2: "the pairwise minimum", 3: "the third-order bound", 4: "the fourth-order bound"}
SUPPORTED_ORDERS = tuple(_LEVEL_WHAT)
_LN2 = math.log(2.0)
# r4 candidates read off the correlations per block of first surrogates, so a
# block's arrays stay near 2 MiB each however many channels there are
_R4_BLOCK = 2**18
# the default lag window, seconds: where neural tracking of a stimulus envelope is read
_LAG_WINDOW_S = (0.190, 0.300)


def derive_sci_seed(run_seed: int, name: str) -> int:
    """Seed of the noise injected into the carrier channel ``name``, from the
    run seed and the name's UTF-8 bytes (their count first, so no two names
    give one entropy)."""
    if not isinstance(name, str):
        raise ConfigurationError(f"channel name must be text, got {name!r}")
    data = name.encode("utf-8")
    seq = np.random.SeedSequence([check_seed(run_seed), len(data), *data])
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
    """Best absolute correlation over a lag scan, and the lag that gives it,
    in samples and in seconds."""

    abs_corr: float
    lag_samples: int
    lag_seconds: float


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
    names: tuple[str, ...],
    rows,
    i: int,
    j: int,
    cfg: EstimatorConfig,
    seed: int,
    columns: PreparedColumns | None = None,
) -> tuple[SciDescriptor, np.ndarray]:
    """Tune the surrogate of ordered pair (i, j): noise goes into channel j,
    seeded by its name."""
    carrier_seed = derive_sci_seed(seed, names[j])
    return build_sci(
        rows[i], rows[j], cfg, carrier_seed, base_channel=j, partner_channel=i, columns=columns
    )


def _exclusion(channels: ChannelMatrix, i: int, j: int, err: Exception) -> SciExclusion:
    pair = (channels.names[i], channels.names[j])
    return SciExclusion(pair=pair, code=err.code, message=str(err))


def _build_all_scis(
    channels: ChannelMatrix,
    rows: list[np.ndarray],
    columns: PreparedColumns,
    seed: int,
) -> tuple[dict[tuple[int, int], tuple[SciDescriptor, np.ndarray]], list[SciExclusion]]:
    """Tune one T per ordered channel pair; collect failures as exclusions
    and keep each T's preparation.  A degenerate input names its pair.

    Ordered pairs because the construction injects noise into the second
    channel and is therefore asymmetric.  Tuning goes carrier by carrier, as
    permutation order first reaches them (1, ..., n - 1, then 0), so
    ``columns`` holds one carrier's noise at a time; the results keep
    permutation order.
    """
    n = channels.n_channels
    built: dict[tuple[int, int], tuple[SciDescriptor, np.ndarray]] = {}
    excluded: dict[tuple[int, int], SciExclusion] = {}
    for j in (*range(1, n), 0):
        for i in range(n):
            if i == j:
                continue
            try:
                desc, t = _pair_sci(channels.names, rows, i, j, columns.cfg, seed, columns)
            except (NoCommonInformationError, ConvergenceError) as err:
                excluded[(i, j)] = _exclusion(channels, i, j, err)
            except DegenerateInputError as err:
                raise _pair_error(channels, i, j, err) from err
            else:
                built[(i, j)] = desc, t
                columns.keep(t)
    columns.noise = (None, None, None)  # the scans read no noise
    # permutation order is the sorted order of the pairs
    return dict(sorted(built.items())), [excluded[pair] for pair in sorted(excluded)]


def _scan(entry_pairs, columns: PreparedColumns) -> list[tuple[tuple[int, ...], float]]:
    """MI of each pair of (channel-index tuple, column) entries whose channel
    sets are disjoint, keyed by the joined channel tuple, in input order."""
    return [
        ((*ia, *ib), mi_estimate(a, b, columns.cfg, columns=columns))
        for (ia, a), (ib, b) in entry_pairs
        if not set(ia) & set(ib)
    ]


def _gaussian_surrogates(
    channels: ChannelMatrix, rows: list[np.ndarray], columns: PreparedColumns
) -> tuple[np.ndarray, list[tuple[int, int]], list[SciExclusion]]:
    """Squared sample correlations R^2, and the ordered pairs (i, j) whose
    tuning target, the Gaussian MI of R_ij, passes the target rule.

    Each R_ij is the one the pairwise estimator reads off the prepared rows,
    so a target equals its plain pairwise MI bit for bit.  A pair that fails
    the rule is an exclusion, with the code and message tuning would give.
    """
    n = channels.n_channels
    r = np.eye(n)
    for a, b in combinations(range(n), 2):
        r[a, b] = r[b, a] = _correlation(*columns.pair(rows[a], rows[b]))
    surrogates: list[tuple[int, int]] = []
    exclusions: list[SciExclusion] = []
    for i, j in permutations(range(n), 2):
        try:
            _checked_target(_gaussian_bits(float(r[i, j])))
        except (NoCommonInformationError, ConvergenceError) as err:
            exclusions.append(_exclusion(channels, i, j, err))
        else:
            surrogates.append((i, j))
    return r * r, surrogates, exclusions


def _product_bits(p: np.ndarray) -> np.ndarray:
    """-1/2 log2(1 - p), elementwise, for squared correlations p in [0, 1]."""
    return np.log1p(-p) * (-0.5 / _LN2)


def _correlation_levels(
    rsq: np.ndarray, surrogates: list[tuple[int, int]], order: int
) -> tuple[dict[int, tuple[tuple[int, ...], float] | None], float]:
    """The r3 and r4 minima of the Gaussian construction, whose candidates
    the module docstring gives, read off squared correlations ``rsq`` for
    the given surrogates; and the mean of the r3 candidates.

    The candidates are the sampled scans', in their order, and the first
    minimum wins, as (channel indices, bits), or None with no candidate.
    An r4 product is R_jm^2 (R_ij^2 R_km^2), so both readings of a candidate
    give the same bits, and no level depends on column order.
    """
    n = rsq.shape[0]
    best: dict[int, tuple[tuple[int, ...], float] | None] = dict.fromkeys(range(3, order + 1))
    if not surrogates:
        return best, 0.0
    i, j = np.array(surrogates).T
    t = rsq[i, j]
    # r3: surrogate s against each channel k outside its pair, k ascending
    k = np.arange(n)
    outside = (k != i[:, None]) & (k != j[:, None])
    bits3 = _product_bits((t[:, None] * rsq[j])[outside])
    first = int(np.argmin(bits3))
    s, kk = divmod(int(np.flatnonzero(outside)[first]), n)
    best[3] = ((int(i[s]), int(j[s]), kk), float(bits3[first]))
    if order >= 4:
        # r4: each pair of surrogates a < b whose channel pairs are disjoint,
        # taken a block of first surrogates at a time
        m = len(surrogates)
        b = np.arange(m)
        step = max(1, _R4_BLOCK // m)
        for lo in range(0, m, step):
            a = np.arange(lo, min(lo + step, m))[:, None]
            ia, ja = i[a], j[a]
            disjoint = (b > a) & (i != ia) & (i != ja) & (j != ia) & (j != ja)
            bits4 = np.where(disjoint, _product_bits(rsq[ja, j] * (t[a] * t)), np.inf)
            cell = int(np.argmin(bits4))
            bits = float(bits4.flat[cell])
            if disjoint.flat[cell] and (best[4] is None or bits < best[4][1]):
                sa, sb = divmod(cell, m)
                sa += lo
                best[4] = ((int(i[sa]), int(j[sa]), int(i[sb]), int(j[sb])), bits)
    return best, math.fsum(bits3.tolist()) / bits3.size


def _minimum(
    candidates: list[tuple[tuple[int, ...], float]],
) -> tuple[tuple[int, ...], float] | None:
    """The first minimum candidate, or None with no candidate."""
    return min(candidates, key=lambda item: item[1], default=None)


def _level(
    best: tuple[tuple[int, ...], float] | None,
    names: tuple[str, ...],
    exclusions: list[SciExclusion],
    what: str,
) -> LevelEstimate:
    """A level's minimum candidate, witnessed by its channels.

    With no candidate the level is the all-NCI zero when some pair was a
    no-common-information signal; otherwise every construction failed and
    the run errors instead of silently reporting 0.
    """
    if best is not None:
        idx, bits = best
        return LevelEstimate(bits=bits, channels=tuple(names[i] for i in idx))
    if any(e.code == NoCommonInformationError.code for e in exclusions):
        return LevelEstimate(bits=0.0, channels=None, reason=_ALL_NCI_REASON)
    detail = "; ".join(f"({e.pair[0]},{e.pair[1]}): {e.message}" for e in exclusions)
    raise PipelineError(f"every construction needed for {what} failed: {detail}")


def _mean(candidates: list[tuple[tuple[int, ...], float]]) -> float:
    return float(sum(v for _, v in candidates) / len(candidates)) if candidates else 0.0


def _abs_corr(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    try:
        return abs(_pearson(x[: x.size - lag], y[lag:]))
    except DegenerateInputError:  # finite columns are refused only when constant
        raise DegenerateInputError(f"constant overlap at lag {lag} samples") from None


def _lag_range_samples(lag_min_s: float, lag_max_s: float, rate_hz: float | None) -> tuple[int, int]:
    """The one lag-window rule: integer lags whose real time lies in [lag_min_s, lag_max_s]
    at ``rate_hz``.  A rate that is not a positive, finite real number is a configuration
    error; bounds that are not real, no lag, or a window past float64's range in samples,
    a domain error."""
    if not (is_real(rate_hz) and 0 < rate_hz < math.inf):
        raise ConfigurationError("a positive, finite sample_rate_hz is required for lags in seconds")
    if not (is_real(lag_min_s) and is_real(lag_max_s) and 0 <= lag_min_s <= lag_max_s):
        raise ParameterDomainError(
            f"need 0 <= lag_min_s <= lag_max_s, got [{lag_min_s!r}, {lag_max_s!r}]"
        )
    if not math.isfinite(lag_max_s * rate_hz):
        raise ParameterDomainError(
            f"lag window [{lag_min_s}, {lag_max_s}] s at {rate_hz} Hz is not finite in samples"
        )
    # widen by 1e-9 of the window in samples, which absorbs the products' rounding
    # at any rate without reaching an integer lag the window leaves out
    slack = 1e-9 * lag_max_s * rate_hz
    lag_min = math.ceil(lag_min_s * rate_hz - slack)
    lag_max = math.floor(lag_max_s * rate_hz + slack)
    if lag_min > lag_max:
        raise ParameterDomainError(
            f"no integer lag lies in [{lag_min_s}, {lag_max_s}] s at {rate_hz} Hz"
        )
    return lag_min, lag_max


def lag_max_correlation(
    x,
    y,
    lag_min_s: float = _LAG_WINDOW_S[0],
    lag_max_s: float = _LAG_WINDOW_S[1],
    sample_rate_hz: float | None = None,
) -> LagCorrelation:
    """Max of |corr(x shifted by lag, y)| over the integer lags whose real
    time lies in [lag_min_s, lag_max_s] at ``sample_rate_hz``, by the rule of
    ``_lag_range_samples``; on a tie the smaller lag wins.  At 1 Hz the
    window in seconds is the window in samples."""
    lag_min, lag_max = _lag_range_samples(lag_min_s, lag_max_s, sample_rate_hz)
    xa, ya = _lagged_pair(x, y, lag_max, f"max lag {lag_max}")
    corr = [_abs_corr(xa, ya, lag) for lag in range(lag_min, lag_max + 1)]
    best = max(corr)
    lag = lag_min + corr.index(best)  # the first maximum
    return LagCorrelation(best, lag, lag / sample_rate_hz)


def run_estimate(
    channels: ChannelMatrix,
    cfg: EstimatorConfig = EstimatorConfig(),
    seed: int = 0,
    order: int = 3,
    *,
    time_series: bool = False,
) -> CommonInfoReport:
    """Full estimation run up to the requested order, with chain check.

    Order 2 reports the pairwise minimum and average only; order 3 adds the
    third-order bound (needs >= 3 channels), order 4 the fourth (>= 4).
    With n > 2 channels each level also gets rtilde, the scaling
    approximation ((n - level)/(n - 2)) r2.
    """
    if not (is_integer(order) and order in SUPPORTED_ORDERS):
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
    pairwise = [
        ((a, b), _pair_value(channels, rows, a, b, columns, time_series))
        for a, b in combinations(range(n), 2)
    ]
    minima = {2: _minimum(pairwise)}
    rbar = {2: _mean(pairwise)}
    descriptors: tuple[SciDescriptor, ...] = ()
    exclusions: list[SciExclusion] = []
    if order >= 3 and cfg.method == "gaussian_logdet":
        rsq, pairs, exclusions = _gaussian_surrogates(channels, rows, columns)
        found, rbar[3] = _correlation_levels(rsq, pairs, order)
        minima.update(found)
    elif order >= 3:
        built, exclusions = _build_all_scis(channels, rows, columns, seed)
        descriptors = tuple(desc for desc, _ in built.values())
        surrogates = [(pair, t) for pair, (_, t) in built.items()]
        singles = [((k,), rows[k]) for k in range(n)]
        candidates = _scan(product(surrogates, singles), columns)
        minima[3], rbar[3] = _minimum(candidates), _mean(candidates)
        if order >= 4:
            minima[4] = _minimum(_scan(combinations(surrogates, 2), columns))
    levels = {
        lvl: _level(best, channels.names, exclusions, _LEVEL_WHAT[lvl])
        for lvl, best in minima.items()
    }

    # exactly 0 at lvl = n, even for a divergent r2
    r2 = levels[2].bits
    rtilde = {lvl: (n - lvl) / (n - 2) * r2 if lvl < n else 0.0 for lvl in levels} if n > 2 else {}

    slack = chain_slack_bits(channels.n_samples)
    ok = all(levels[lvl].bits <= levels[lvl - 1].bits + slack for lvl in levels if lvl > 2)

    return CommonInfoReport(
        levels=levels,
        rbar=rbar,
        rtilde=rtilde,
        estimator=cfg,
        seed=seed,
        time_series=time_series,
        channel_names=channels.names,
        num_samples=channels.n_samples,
        sci_descriptors=descriptors,
        exclusions=tuple(exclusions),
        chain_slack_bits=slack,
        chain_ok=ok,
    )
