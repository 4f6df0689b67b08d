"""Pluggable mutual-information estimators for sampled data.

Three methods, selected by :class:`EstimatorConfig`:

* ``gaussian_logdet`` — parametric: -1/2 log2(1 - r^2) from the empirical
  correlation (log-det of the empirical correlation matrix in the block
  case).  Fast and low-variance; exact in law for jointly Gaussian data.
* ``binned`` — equal-width histogram plug-in.  Each column is binned over
  its own [min, max] with numpy's histogram edge rule (``bins + 1`` linspace
  edges, the right edge in the last bin, a constant column widened by +-0.5),
  and each call counts its cells with one ``np.bincount``; the counts equal
  ``np.histogram2d``/``np.histogramdd``'s exactly.  Only suitable for low
  dimensions; the plug-in bias grows with the number of occupied cells.
* ``knn`` — k-nearest-neighbor estimator with max-norm neighborhoods and
  the neighbor-count digamma correction, for non-Gaussian data.

All estimates are in bits and nonnegative: a negative raw estimate is
clamped to zero and flagged.  Columns are standardized before estimation, so
results are invariant to affine rescaling of the inputs; deterministic
tie-breaking jitter for the knn method is seeded from a hash of the column
contents, which keeps every estimate reproducible and symmetric.

``bidirectional_te_mi`` is the time-series proxy for pairwise MI: the sum of
the two directed estimates I(X_{t-l..t-1}; Y_t) + I(Y_{t-l..t-1}; X_t) over a
lag embedding of length ``ts_lag``.  It captures lagged, not instantaneous,
dependence.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .errors import ConfigurationError, DegenerateInputError

_METHODS = ("gaussian_logdet", "binned", "knn")
_LN2 = math.log(2.0)
_JITTER_SCALE = 1e-10
_DIVERGENT_ONE_MINUS_R2 = 4.0 * float(np.finfo(np.float64).eps)
MIN_LENGTH = 10


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator selection plus the method-specific settings."""

    method: str = "gaussian_logdet"
    k: int = 4
    bins: int = 16
    ts_lag: int = 3

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown estimator {self.method!r}; choose from {_METHODS}"
            )
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ConfigurationError(f"k must be an integer >= 1, got {self.k}")
        if not (isinstance(self.bins, (int, np.integer)) and self.bins >= 2):
            raise ConfigurationError(f"bins must be an integer >= 2, got {self.bins}")
        if not (isinstance(self.ts_lag, (int, np.integer)) and self.ts_lag >= 1):
            raise ConfigurationError(f"ts_lag must be an integer >= 1, got {self.ts_lag}")


@dataclass(frozen=True)
class MiEstimate:
    """An MI estimate with its raw (pre-clamp) value and diagnostic flags."""

    bits: float
    raw_bits: float
    clamped: bool
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


def _standardize(arr: np.ndarray, name: str) -> np.ndarray:
    s = arr.std()
    if s == 0.0:
        raise DegenerateInputError(f"{name} is constant")
    return (arr - arr.mean()) / s


def _content_jitter(raw: np.ndarray) -> np.ndarray:
    """Deterministic tie-breaking noise derived from the column's bytes."""
    h = hashlib.blake2b(raw.tobytes(), digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(h, "little"))
    return _JITTER_SCALE * rng.standard_normal(raw.size)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    # sum/size is the same pairwise reduction and division as mean(), and the
    # scalar min/max clamp is np.clip's; both skip numpy's per-call overhead.
    # The argument order lets a NaN through, as np.clip does.
    xc = x - x.sum() / x.size
    yc = y - y.sum() / y.size
    nx = float(np.sqrt(xc @ xc))
    ny = float(np.sqrt(yc @ yc))
    if nx == 0.0 or ny == 0.0:
        raise DegenerateInputError("correlation undefined for a constant column")
    return max(min(float((xc @ yc) / (nx * ny)), 1.0), -1.0)


def _gaussian_mi(x: np.ndarray, y: np.ndarray) -> float:
    r = _pearson(x, y)
    one_minus = (1.0 - r) * (1.0 + r)
    # identical columns leave r up to 2 ulps short of 1, so 1 - r^2 lands
    # within a few eps of 0 instead of on it; a real dependence that close
    # to exact is below the resolution of a float64 correlation
    if one_minus <= _DIVERGENT_ONE_MINUS_R2:
        return math.inf
    return -0.5 * math.log2(one_minus)


def _bin_index(a: np.ndarray, bins: int, name: str) -> np.ndarray:
    """Each sample's bin among ``bins`` equal-width bins over [min, max].

    The edges are numpy's, ``np.linspace(min, max, bins + 1)`` with a
    constant column widened by +-0.5, and the result is numpy's
    ``searchsorted(edges, a, 'right') - 1`` with the right edge folded into
    the last bin.  The bin is found arithmetically and checked against the
    edges; the few samples whose rounding missed (or whose edges coincide)
    are placed by ``searchsorted`` itself.
    """
    lo, hi = float(a.min()), float(a.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    width = hi - lo
    if not math.isfinite(width):
        raise DegenerateInputError(f"{name} has a range too wide for float64 ({lo!r} to {hi!r})")
    if width == 0.0:  # +-0.5 vanished in rounding: every sample is on the right edge
        return np.full(a.size, bins - 1, dtype=np.intp)
    edges = np.linspace(lo, hi, bins + 1)
    # (a - lo) <= width, so the quotient stays in [0, 1]
    idx = np.minimum(((a - lo) / width * bins).astype(np.intp), bins - 1)
    upper = np.append(edges[1:-1], np.inf)  # the last bin holds its right edge
    missed = (a < edges[idx]) | (a >= upper[idx])
    if missed.any():
        idx[missed] = np.minimum(np.searchsorted(edges, a[missed], side="right") - 1, bins - 1)
    return idx


def _binned_mi(x: np.ndarray, y: np.ndarray, bins: int) -> float:
    cells = _bin_index(x, bins, "x") * bins + _bin_index(y, bins, "y")
    counts = np.bincount(cells, minlength=bins * bins).reshape(bins, bins).astype(np.float64)
    p = counts / counts.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0.0
    return float((p[nz] * np.log2(p[nz] / (px @ py)[nz])).sum())


def _strict_range_counts(a: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per point, the count of other points within a strictly smaller distance."""
    order = np.argsort(a)
    sa = a[order]
    hi = np.searchsorted(sa, a + radii, side="left")
    lo = np.searchsorted(sa, a - radii, side="right")
    return hi - lo - 1  # the point itself always falls inside


def _knn_mi(x: np.ndarray, y: np.ndarray, k: int) -> float:
    n = x.size
    if k >= n:
        raise DegenerateInputError(f"k={k} must be smaller than the sample count {n}")
    xs = _standardize(x, "x") + _content_jitter(x)
    ys = _standardize(y, "y") + _content_jitter(y)
    pts = np.column_stack([xs, ys])
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=k + 1, p=np.inf, workers=-1)
    eps = dist[:, -1]
    nx = _strict_range_counts(xs, eps)
    ny = _strict_range_counts(ys, eps)
    return float(
        (digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1))) / _LN2
    )


def _clamp(raw: float) -> float:
    return 0.0 if raw < 0.0 else raw


def _raw_mi(xa: np.ndarray, ya: np.ndarray, cfg: EstimatorConfig) -> float:
    if cfg.method == "gaussian_logdet":
        return _gaussian_mi(xa, ya)
    if cfg.method == "binned":
        return _binned_mi(xa, ya, cfg.bins)
    return _knn_mi(xa, ya, cfg.k)


def mi_estimate_full(x, y, cfg: EstimatorConfig = EstimatorConfig()) -> MiEstimate:
    """Pairwise MI estimate with diagnostics; see mi_estimate."""
    xa, ya = _pair(x, y)
    raw = _raw_mi(xa, ya, cfg)
    return MiEstimate(
        bits=_clamp(raw),
        raw_bits=raw,
        clamped=raw < 0.0,
        self_pair=bool(np.array_equal(xa, ya)),
    )


def mi_estimate(x, y, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """Estimate I(x; y) in bits with the configured method.

    Nonnegative; identical non-constant columns give a divergent (inf)
    parametric estimate or a large positive knn estimate, flagged as a
    self-pair in the full result.  Equal to ``mi_estimate_full(...).bits``
    without the self-pair comparison.
    """
    xa, ya = _pair(x, y)
    return _clamp(_raw_mi(xa, ya, cfg))


def _block(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise DegenerateInputError(f"{name} must be samples-by-columns")
    if arr.shape[0] < MIN_LENGTH:
        raise DegenerateInputError(f"{name} has {arr.shape[0]} samples; need >= {MIN_LENGTH}")
    if not np.isfinite(arr).all():
        raise DegenerateInputError(f"{name} contains non-finite values")
    return arr


def _gaussian_joint(xb: np.ndarray, y: np.ndarray) -> float:
    w = xb.shape[1]
    full = np.corrcoef(np.column_stack([xb, y]), rowvar=False)
    if not np.isfinite(full).all():
        raise DegenerateInputError("correlation undefined for a constant column")
    sign_xx, logdet_xx = np.linalg.slogdet(full[:w, :w])
    sign_f, logdet_f = np.linalg.slogdet(full)
    if sign_xx <= 0.0:
        raise DegenerateInputError("block correlation matrix is singular")
    if sign_f <= 0.0:
        return math.inf
    return (logdet_xx - logdet_f) / (2.0 * _LN2)


def _binned_joint(xb: np.ndarray, y: np.ndarray, bins: int) -> float:
    def plugin_entropy(idx: list[np.ndarray]) -> float:
        shape = (bins,) * len(idx)
        counts = np.bincount(np.ravel_multi_index(idx, shape), minlength=bins ** len(idx))
        nz = counts[counts > 0] / float(idx[0].size)  # occupied cells in C order
        return float(-(nz * np.log2(nz)).sum())

    bx = [_bin_index(xb[:, c], bins, f"block column {c}") for c in range(xb.shape[1])]
    by = [_bin_index(y, bins, "y")]
    return plugin_entropy(bx) + plugin_entropy(by) - plugin_entropy(bx + by)


def _knn_joint(xb: np.ndarray, y: np.ndarray, k: int) -> float:
    n = xb.shape[0]
    if k >= n:
        raise DegenerateInputError(f"k={k} must be smaller than the sample count {n}")
    cols = [
        _standardize(xb[:, c], f"block column {c}") + _content_jitter(xb[:, c])
        for c in range(xb.shape[1])
    ]
    xs = np.column_stack(cols)
    ys = _standardize(y, "y") + _content_jitter(y)
    pts = np.column_stack([xs, ys])
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=k + 1, p=np.inf, workers=-1)
    eps = dist[:, -1]
    # marginal counts: strict (<) neighborhoods; shrink the radius to drop
    # the defining k-th neighbor, which sits exactly on the boundary
    block_tree = cKDTree(xs)
    nx = np.asarray(
        block_tree.query_ball_point(xs, eps * (1.0 - 1e-12), p=np.inf, return_length=True)
    ) - 1
    ny = _strict_range_counts(ys, eps)
    return float(
        (digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1))) / _LN2
    )


def mi_estimate_joint(x_block, y, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """MI in bits between a multi-column block and a scalar column.

    A width-1 block reduces exactly to mi_estimate.
    """
    xb = _block(x_block, "x_block")
    ya = _column(y, "y")
    if xb.shape[0] != ya.size:
        raise DegenerateInputError(f"length mismatch: {xb.shape[0]} vs {ya.size}")
    if xb.shape[1] == 1:
        return mi_estimate(xb[:, 0], ya, cfg)
    if cfg.method == "gaussian_logdet":
        raw = _gaussian_joint(xb, ya)
    elif cfg.method == "binned":
        raw = _binned_joint(xb, ya, cfg.bins)
    else:
        raw = _knn_joint(xb, ya, cfg.k)
    return _clamp(raw)


def _lag_block(a: np.ndarray, lag: int) -> np.ndarray:
    """Rows indexed by t = lag..N-1; columns a[t-lag], ..., a[t-1]."""
    return np.column_stack([a[m : a.size - lag + m] for m in range(lag)])


def bidirectional_te_mi(x, y, cfg: EstimatorConfig = EstimatorConfig()) -> float:
    """I(X_past; Y_now) + I(Y_past; X_now) over a ts_lag embedding, in bits."""
    xa, ya = _pair(x, y)
    lag = cfg.ts_lag
    if xa.size <= lag + 1:
        raise DegenerateInputError(
            f"series of length {xa.size} too short for ts_lag={lag}"
        )
    forward = mi_estimate_joint(_lag_block(xa, lag), ya[lag:], cfg)
    backward = mi_estimate_joint(_lag_block(ya, lag), xa[lag:], cfg)
    return forward + backward
