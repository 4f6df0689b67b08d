"""Pluggable mutual-information estimators for sampled data.

Three methods, selected by :class:`EstimatorConfig`:

* ``gaussian_logdet`` — parametric: -1/2 log2(1 - r^2) from the empirical
  correlation (log-det of the empirical correlation matrix in the block
  case).  Fast and low-variance; exact in law for jointly Gaussian data.
* ``binned`` — equal-width histogram plug-in.  Each column is binned over
  its own [min, max] with numpy's histogram edge rule (``bins + 1`` linspace
  edges, the right edge in the last bin, a constant column widened by +-0.5):
  one fused scale guesses each bin, and only a guess within ``_bin_index``'s
  rounding margin of an edge between two bins is placed by ``searchsorted``.
  A pairwise call counts its cells with one ``np.bincount`` and divides only
  the occupied ones; the counts equal ``np.histogram2d``/``np.histogramdd``'s
  exactly.  That table is dense, so a pairwise ``bins`` above 2048 is
  refused up front.  A block (the lag-embedded time-series path) bins each
  column the same way and counts only its occupied cells, with
  ``np.unique``, so its memory follows the sample count, not bins**width;
  the cell codes must still fit numpy's index type, so a grid of more than
  intp-max cells is a configuration error.  Only suitable for low
  dimensions; the plug-in bias grows with the number of occupied cells.
* ``knn`` — the KSG k-nearest-neighbor estimator at k = 4 (max-norm
  neighborhoods, digamma neighbor-count correction) for non-Gaussian data.
  One kernel serves a pair and a block; it alone imports scipy, on its
  first call.

``mi_estimate`` takes a column or a samples-by-columns block, and every
column passes ``_column``'s one check.  Every kernel reads what ``_prepare``
keeps of a validated column: for ``gaussian_logdet`` the centred column
``x - x.sum()/x.size`` and its norm (after the scale rule below, where it
applies), for ``binned`` the bin indices, for ``knn`` the standardized,
jittered values.  A pair is prepared per call unless the caller passes a
:class:`PreparedColumns` table, as ``run_estimate`` does once per run; no
bit moves.  A block (the time-series lag windows, as views) reads no
table; each column is checked and prepared as a pair's, though ``binned``
bins up to any intp-indexable grid.  A column whose min equals its max is
constant, even where its mean rounds off.

All estimates are in bits and nonnegative: a negative raw estimate (or -0.0)
is clamped to +0.0.  One scale rule covers every column statistic a kernel
reads (the knn deviation, the Gaussian centred norm, the binned range): where
it is not a finite float64 at or above ``UNDERFLOW_SPREAD``, the column is
multiplied by the power of two ``unit_scaled`` picks and the statistic taken
again.  A power of two moves no bit, so an estimate does not depend on a
power-of-two input scale.  Deterministic tie-breaking jitter for the knn
method is seeded from a hash of the raw column contents, which keeps every
estimate reproducible and symmetric (and lets a scale move its last digits).

``bidirectional_te_mi`` is the time-series proxy for pairwise MI: the sum of
the two directed estimates I(X_{t-l..t-1}; Y_t) + I(Y_{t-l..t-1}; X_t) over a
lag embedding of length ``ts_lag``.  It captures lagged, not instantaneous,
dependence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import UNDERFLOW_SPREAD, is_integer, unit_scaled
from .errors import ConfigurationError, DegenerateInputError

_METHODS = ("gaussian_logdet", "binned", "knn")
_LN2 = math.log(2.0)
_JITTER_SCALE = 1e-10
_DIVERGENT_ONE_MINUS_R2 = 4.0 * float(np.finfo(np.float64).eps)
# a block's 1 - R^2 rounds further: affine lagged copies read up to 9 eps,
# a lagged copy plus 1e-7 noise (about 45 eps) no less than 32 eps
_LOG_DIVERGENT_BLOCK = math.log(16.0 * float(np.finfo(np.float64).eps))
_MAX_PAIR_CELLS = 2**22  # bins = 2048; its tables peak near 105 MB
MIN_LENGTH = 10


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection plus the method-specific settings.  ``k``, the
    knn neighbor count, is fixed at 4 and recorded with the settings."""

    method: str = "gaussian_logdet"
    k: int = field(default=4, init=False)
    bins: int = 16
    ts_lag: int = 3

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown estimator {self.method!r}; choose from {_METHODS}"
            )
        if not (is_integer(self.bins) and self.bins >= 2):
            raise ConfigurationError(f"bins must be an integer >= 2, got {self.bins}")
        if not (is_integer(self.ts_lag) and self.ts_lag >= 1):
            raise ConfigurationError(f"ts_lag must be an integer >= 1, got {self.ts_lag}")


@dataclass(frozen=True)
class MiEstimate:
    """An MI estimate and whether its two columns are identical."""

    bits: float
    self_pair: bool


def _column(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DegenerateInputError(f"{name} must be a 1-D sample column")
    if arr.size < MIN_LENGTH:
        raise DegenerateInputError(f"{name} has {arr.size} samples; need >= {MIN_LENGTH}")
    if not np.isfinite(arr).all():
        raise DegenerateInputError(f"{name} contains non-finite values")
    return arr


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = _column(x, "x")
    ya = _column(y, "y")
    if xa.size != ya.size:
        raise DegenerateInputError(f"length mismatch: {xa.size} vs {ya.size}")
    return xa, ya


def _lagged_pair(x, y, lag: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The pair, checked as ``_pair`` does, whose overlap at a lag of ``lag``
    samples keeps the estimators' MIN_LENGTH; ``what`` names the lag."""
    xa, ya = _pair(x, y)
    if xa.size - lag < MIN_LENGTH:
        raise DegenerateInputError(f"series of length {xa.size} too short for {what}")
    return xa, ya


def _standardize(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.min() == arr.max():  # even where the mean rounds off the value
        raise DegenerateInputError(f"{name} is constant")
    with np.errstate(over="ignore", invalid="ignore"):  # rescued below
        s = arr.std()
    if not UNDERFLOW_SPREAD <= s < math.inf:
        arr = unit_scaled(arr)
        s = arr.std()
    return (arr - arr.mean()) / s


def _content_jitter(raw: np.ndarray) -> np.ndarray:
    """Deterministic tie-breaking noise derived from the column's bytes."""
    import hashlib  # only knn reads the jitter; imported here as _ksg imports scipy

    h = hashlib.blake2b(raw.tobytes(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(h, "little"))
    return _JITTER_SCALE * rng.standard_normal(raw.size)


class _Centred(NamedTuple):
    """A column as the correlation reads it: ``values`` centred, ``norm`` their norm."""

    values: np.ndarray
    norm: float


def _centred(x: np.ndarray) -> _Centred:
    if x.min() == x.max():  # constant, even where the mean rounds off the value
        raise DegenerateInputError("correlation undefined for a constant column")
    with np.errstate(over="ignore", invalid="ignore"):  # rescued below
        # x.sum() / x.size is the same pairwise reduction and division as mean()
        xc = x - x.sum() / x.size
        norm = float(np.sqrt(xc @ xc))
    if not UNDERFLOW_SPREAD <= norm < math.inf:
        # a power of two moves no bit of r; scaling first keeps the centred column finite
        x = unit_scaled(x)
        xc = x - x.sum() / x.size
        norm = float(np.sqrt(xc @ xc))
    return _Centred(xc, norm)


def _correlation(px: _Centred, py: _Centred) -> float:
    # finite norms bound the cross product (Cauchy-Schwarz); the scalar
    # min/max clamp is np.clip's without numpy's per-call overhead, and the
    # argument order lets a NaN through, as np.clip does
    return max(min(float((px.values @ py.values) / (px.norm * py.norm)), 1.0), -1.0)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Correlation of two unprepared columns."""
    return _correlation(_centred(x), _centred(y))


def _gaussian_bits(r: float) -> float:
    """-1/2 log2(1 - r^2), the Gaussian MI of a correlation, clamped to +0.0."""
    one_minus = (1.0 - r) * (1.0 + r)
    # identical columns leave r up to 2 ulps short of 1, so 1 - r^2 lands
    # within a few eps of 0 instead of on it; a real dependence that close
    # to exact is below the resolution of a float64 correlation
    if one_minus <= _DIVERGENT_ONE_MINUS_R2:
        return math.inf
    return _clamp(-0.5 * math.log2(one_minus))


def _bin_index(a: np.ndarray, bins: int) -> np.ndarray:
    """Each sample's bin among ``bins`` equal-width bins over [min, max].

    The edges are numpy's, ``np.linspace(min, max, bins + 1)`` with a
    constant column widened by +-0.5, and the result is numpy's
    ``searchsorted(edges, a, 'right') - 1`` with the right edge folded into
    the last bin.  The guess truncates ``g = (a - lo) * (bins / width)``.
    In bin units g is within 3u*bins of its sample (u = 2**-53), and numpy's
    edge k, ``fl(fl(k * step) + lo)``, within 2u*bins + u*bins*M/width of k
    (M = max(|lo|, |hi|)).  So a guess whose fractional part lies at least
    the margin 64u*bins*(1 + M/width), over twice both bounds, from 0 and 1
    is numpy's bin; within the margin of lo's or hi's edge the bin is 0 or
    bins - 1.  Only samples within the margin of an edge between two bins,
    or every sample where the margin reaches 1/2, go to ``searchsorted``.
    """
    lo, hi = float(a.min()), float(a.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    elif not UNDERFLOW_SPREAD <= hi - lo < math.inf:  # a power of two moves no bin
        a = unit_scaled(a)
        lo, hi = float(a.min()), float(a.max())
    width = hi - lo
    if width == 0.0:  # +-0.5 vanished in rounding: every sample is on the right edge
        return np.full(a.size, bins - 1, dtype=np.intp)
    g = a - lo  # 0 <= a - lo <= width, so the guess lies in [0, bins] up to rounding
    g *= bins / width
    idx = g.astype(np.intp)
    g -= idx  # the fractional part, exactly
    margin = 64 * 2.0**-53 * bins * (1.0 + max(abs(lo), abs(hi)) / width)
    near = np.flatnonzero((g <= margin) | (g >= 1.0 - margin))
    guess = idx[near]
    idx[near] = np.minimum(guess, bins - 1)  # hi may be guessed as bins
    if margin < 0.5:  # keep the samples near an edge between two bins
        near = near[(guess + (g[near] > 0.5)) % bins != 0]
    if near.size:
        edges = np.linspace(lo, hi, bins + 1)
        idx[near] = np.minimum(np.searchsorted(edges, a[near], side="right") - 1, bins - 1)
    return idx


def _binned_pair(cx: np.ndarray, cy: np.ndarray, bins: int) -> float:
    cells = np.multiply(cx, bins, dtype=np.intp)
    cells += cy
    counts = np.bincount(cells, minlength=bins * bins)
    # the occupied cells in C order, and a table that holds the same values:
    # the marginals and the sum run over the same terms as over the full table
    nz = np.flatnonzero(counts != 0)
    pn = counts[nz] / cells.size
    p = np.zeros((bins, bins))
    np.put(p, nz, pn)
    row, col = np.divmod(nz, bins)
    return float((pn * np.log2(pn / (p.sum(axis=1)[row] * p.sum(axis=0)[col]))).sum())


def _strict_range_counts(a: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per point, the count of other points within a strictly smaller distance.

    The needles are searched in the column's sorted order, so each search
    walks the sorted column once; the counts go back to sample order after.
    """
    order = np.argsort(a)
    sa = a[order]
    r = radii[order]
    hi = np.searchsorted(sa, sa + r, side="left")
    lo = np.searchsorted(sa, sa - r, side="right")
    counts = np.empty_like(order)
    counts[order] = hi - lo - 1  # the point itself always falls inside
    return counts


def _clamp(raw: float) -> float:
    # also turns -0.0 into +0.0; a NaN passes
    return 0.0 if raw <= 0.0 else raw


def _prepare(a: np.ndarray, cfg: EstimatorConfig, name: str):
    """What cfg's kernel reads of a validated column; a binned block bins its own."""
    if cfg.method == "gaussian_logdet":
        return _centred(a)
    if cfg.method == "binned":
        if cfg.bins * cfg.bins > _MAX_PAIR_CELLS:
            raise ConfigurationError(
                f"bins={cfg.bins} needs more than 2**22 pairwise cells; use <= 2048"
            )
        return _bin_index(a, cfg.bins)
    return _standardize(a, name) + _content_jitter(a)  # the KSG kernel's columns


class PreparedColumns:
    """One estimation run's table of prepared columns, for one config.

    Each column is held for the array object it was prepared from, so a
    table is filled only with float64 arrays that stay alive and unchanged
    while it is in use.  A kept array's preparation is held for the life of
    the table; it is made on the array's first use, so its errors read as
    they would without a table.  Any other column is prepared on every call,
    and only the last one is held, until the next is prepared: keeping the
    column that the previous call prepared (a surrogate that its last tuning
    call accepted) prepares nothing.  ``noise`` holds the last tuned
    carrier's (carrier, seed, unit noise), for ``sci._unit_noise``.
    """

    def __init__(self, cfg: EstimatorConfig, kept=()):
        self.cfg = cfg
        self._kept = {id(a): (a, None) for a in kept}
        self._last = (None, None)
        self.noise = (None, None, None)

    def keep(self, a: np.ndarray) -> None:
        if id(a) not in self._kept:
            held, prepared = self._last
            if held is a:
                self._kept[id(a)] = (a, self._narrowed(prepared))
                self._last = (None, None)
            else:
                self._kept[id(a)] = (a, None)

    def pair(self, x, y):
        """Both columns prepared for the config's kernel.  The checks run in
        one order whatever the table holds: validate x, validate y, compare
        lengths, prepare x, prepare y."""
        px, py = self._held(x), self._held(y)
        xa = x if px is not None else _column(x, "x")
        ya = y if py is not None else _column(y, "y")
        if xa.size != ya.size:
            raise DegenerateInputError(f"length mismatch: {xa.size} vs {ya.size}")
        if px is None:
            px = self._prepare(xa, "x")
        if py is None:
            py = self._prepare(ya, "y")
        return px, py

    def _held(self, a):
        # a kept array is alive, so no other object has its id
        held, prepared = self._kept.get(id(a), self._last)
        return prepared if held is a else None

    def _narrowed(self, prepared):
        # a kept column holds its bins as uint16 (a pairwise call refuses more than 2048)
        return prepared.astype(np.uint16) if self.cfg.method == "binned" else prepared

    def _prepare(self, a: np.ndarray, name: str):
        if id(a) in self._kept:
            prepared = self._narrowed(_prepare(a, self.cfg, name))
            self._kept[id(a)] = (a, prepared)
        else:
            self._last = (None, None)  # the last column (and its array) is freed first
            prepared = _prepare(a, self.cfg, name)
            self._last = (a, prepared)
        return prepared


def _raw_mi(x, y, cfg: EstimatorConfig, columns: PreparedColumns | None = None) -> float:
    if columns is None:
        columns = PreparedColumns(cfg)
    elif columns.cfg is not cfg and columns.cfg != cfg:
        raise ConfigurationError("the prepared columns were made for another estimator config")
    px, py = columns.pair(x, y)
    if cfg.method == "gaussian_logdet":
        return _gaussian_bits(_correlation(px, py))
    if cfg.method == "binned":
        return _binned_pair(px, py, cfg.bins)
    return _ksg([px], py, cfg.k)


def mi_estimate_full(x, y, cfg: EstimatorConfig = EstimatorConfig()) -> MiEstimate:
    """Pairwise MI estimate with the self-pair flag; see mi_estimate."""
    bits = _clamp(_raw_mi(x, y, cfg))
    xa, ya = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return MiEstimate(bits, bool(np.array_equal(xa, ya)))


def mi_estimate(
    x, y, cfg: EstimatorConfig = EstimatorConfig(), *, columns: PreparedColumns | None = None
) -> float:
    """Estimate I(x; y) in bits with the configured method.

    ``x`` is a column or a samples-by-columns block; a one-column block is
    the pair bit for bit.  Nonnegative; identical non-constant columns give
    a divergent (inf) parametric estimate or a large positive knn estimate,
    flagged as a self-pair in the full result.  For a column, equal to
    ``mi_estimate_full(...).bits`` without the self-pair comparison.
    ``columns``, the run's table of prepared columns made for ``cfg``,
    spares re-preparing the columns it holds; the estimate is the same bit
    for bit.  A block reads no table.
    """
    if np.ndim(x) == 2:
        return _joint_mi(list(np.asarray(x, dtype=np.float64).T), y, cfg)
    return _clamp(_raw_mi(x, y, cfg, columns))


def _gaussian_joint(px: list[_Centred], py: _Centred) -> float:
    """Log-det I(X; y) in bits from the block's prepared columns and y's: the
    pair's correlation rule, one product of the centred columns over the norms."""
    cols = [*px, py]
    norms = [c.norm for c in cols]
    centred = np.array([c.values for c in cols])
    full = np.clip(centred @ centred.T / np.outer(norms, norms), -1.0, 1.0)
    w = len(px)
    sign_xx, logdet_xx = np.linalg.slogdet(full[:w, :w])
    sign_f, logdet_f = np.linalg.slogdet(full)
    if sign_xx <= 0.0:
        raise DegenerateInputError("block correlation matrix is singular")
    # 1 - R^2 = det(full) / det(xx)
    if sign_f <= 0.0 or logdet_f - logdet_xx <= _LOG_DIVERGENT_BLOCK:
        return math.inf
    return (logdet_xx - logdet_f) / (2.0 * _LN2)


def _binned_joint(cols: list[np.ndarray], y: np.ndarray, bins: int) -> float:
    def plugin_entropy(idx: list[np.ndarray]) -> float:
        # only the occupied cells are counted (a dense table has bins**width
        # of them); np.unique returns them sorted, i.e. in C order
        flat = np.ravel_multi_index(idx, (bins,) * len(idx))
        nz = np.unique(flat, return_counts=True)[1] / float(idx[0].size)
        return float(-(nz * np.log2(nz)).sum())

    bx = [_bin_index(a, bins) for a in cols]
    by = [_bin_index(y, bins)]
    return plugin_entropy(bx) + plugin_entropy(by) - plugin_entropy(bx + by)


def _ksg(cols: list[np.ndarray], ys: np.ndarray, k: int) -> float:
    """KSG I(X; y) in bits from prepared (standardized, jittered) columns: the
    block X's columns and y; one column is the pair (x, y)."""
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    n = ys.size  # every column has passed _column: n >= MIN_LENGTH > cfg.k
    pts = np.column_stack([*cols, ys])
    # the query is exact, so threads could change no bit; they bought no time
    dist, _ = cKDTree(pts).query(pts, k=k + 1, p=np.inf, workers=1)
    eps = dist[:, -1]
    # marginal counts are strict (<); a block's shrunk radius drops the
    # defining k-th neighbor, which sits exactly on the boundary
    if len(cols) == 1:
        nx = _strict_range_counts(cols[0], eps)
    else:
        xs = np.column_stack(cols)
        nx = np.asarray(
            cKDTree(xs).query_ball_point(xs, eps * (1.0 - 1e-12), p=np.inf, return_length=True)
        ) - 1
    ny = _strict_range_counts(ys, eps)
    return float(
        (digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1))) / _LN2
    )


def _joint_mi(cols: list[np.ndarray], y, cfg: EstimatorConfig) -> float:
    """I(X; y) in bits of a block given as its list of columns, each checked
    and prepared as a pair's column is; one column is the pair (x, y)."""
    if not cols:
        raise DegenerateInputError("x is a block of no columns")
    if len(cols) == 1:
        return mi_estimate(cols[0], y, cfg)
    names = [f"block column {c}" for c in range(len(cols))]
    xs = [_column(a, name) for a, name in zip(cols, names)]
    ya = _column(y, "y")
    if xs[0].size != ya.size:
        raise DegenerateInputError(f"length mismatch: {xs[0].size} vs {ya.size}")
    if cfg.method == "binned":
        if int(cfg.bins) ** (len(xs) + 1) > np.iinfo(np.intp).max:
            raise ConfigurationError(
                f"bins={cfg.bins} over a {len(xs)}-column block (ts_lag={cfg.ts_lag} in "
                "time-series mode) has more joint cells than numpy can index; lower bins or ts_lag"
            )
        raw = _binned_joint(xs, ya, cfg.bins)
    else:
        px = [_prepare(a, cfg, name) for a, name in zip(xs, names)]
        py = _prepare(ya, cfg, "y")
        raw = _gaussian_joint(px, py) if cfg.method == "gaussian_logdet" else _ksg(px, py, cfg.k)
    return _clamp(raw)


def bidirectional_te_mi(x, y, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """I(X_past; Y_now) + I(Y_past; X_now) over a ts_lag embedding, in bits."""
    lag = cfg.ts_lag
    xa, ya = _lagged_pair(x, y, lag, f"ts_lag={lag}")

    def past_on_now(a: np.ndarray, b: np.ndarray) -> float:
        # rows t = lag..N-1: the windows a[t-lag], ..., a[t-1] against b[t]
        return _joint_mi([a[m : a.size - lag + m] for m in range(lag)], b[lag:], cfg)

    return past_on_now(xa, ya) + past_on_now(ya, xa)
