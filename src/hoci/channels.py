"""Multichannel sample container shared by the sampling, estimation, and IO layers.

Channel names are validated here, in ``check_names``, for every producer:
``ChannelMatrix`` calls it on construction, and CSV ingest calls it on the
header before any cell is parsed.  Seeds are validated here too, in
``check_seed``, for the samplers, surrogate tuning, the pipeline and the CLI.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

MIN_SAMPLES = 32
# below this spread, squared deviations can lose digits as subnormals
UNDERFLOW_SPREAD = 2.0**-400
# samples per block when the extremes of sample-major data are reduced
_EXTREMES_BLOCK = 256


def unit_scaled(a: np.ndarray) -> np.ndarray:
    """``a`` (per row) times the power of two putting max|a| in [0.5, 1); a flat row becomes 0."""
    flat = a.min(axis=-1, keepdims=True) == a.max(axis=-1, keepdims=True)
    return np.where(flat, 0.0, np.ldexp(a, -np.frexp(np.abs(a).max(axis=-1, keepdims=True))[1]))


def _extremes(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's min and max.  Rows stored apart are reduced one by one; in
    sample-major storage, whole blocks of ``_EXTREMES_BLOCK`` samples are
    reduced first (every channel of a block side by side, in one long inner
    loop), then each channel over the partial extremes and the samples left
    over.  Min and max are exact in any order, so no bit depends on it."""
    if data.flags.c_contiguous or data.shape[1] < _EXTREMES_BLOCK:
        return data.min(axis=1), data.max(axis=1)
    samples = data.T
    whole = samples.shape[0] - samples.shape[0] % _EXTREMES_BLOCK
    blocks = samples[:whole].reshape(-1, _EXTREMES_BLOCK * samples.shape[1])

    def reduced(ufunc):
        partial = ufunc.reduce(blocks, axis=0).reshape(_EXTREMES_BLOCK, -1)
        return ufunc.reduce(np.concatenate([partial, samples[whole:]]), axis=0)

    return reduced(np.minimum), reduced(np.maximum)


def is_integer(value) -> bool:
    """The one integer rule of every integer setting: an ``int`` or numpy
    integer, and not a ``bool`` (which would be written back as true/false)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """The one real-number rule of every float setting: an ``int``, a
    ``float`` or a numpy integer or float, and not a ``bool`` (which would
    be written back as true/false)."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """The one seed rule of every seeded entry point: a nonnegative integer, as ``int``."""
    if not (is_integer(seed) and seed >= 0):
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def check_names(names, where: str = "row") -> None:
    """Reject empty and repeated channel names, naming their 1-based positions.

    ``where`` labels a position in the message ("row", "column").
    """
    for pos, name in enumerate(names, start=1):
        if not name:
            raise DegenerateInputError(f"{where} {pos} has an empty channel name")
    seen: dict[str, int] = {}
    for pos, name in enumerate(names, start=1):
        if name in seen:
            raise DegenerateInputError(
                f"duplicate channel name {name!r} ({where}s {seen[name]} and {pos})"
            )
        seen[name] = pos


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Channels-by-samples real matrix with channel names.

    ``data`` has shape (n_channels, n_samples); rows are channels.
    """

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.data, dtype=np.float64, copy=True))

    def _own(self, arr: np.ndarray) -> None:
        """Check ``arr``, a float64 array that no caller holds, and keep it read-only."""
        if arr.ndim != 2:
            raise DegenerateInputError("channel data must be 2-D (channels x samples)")
        if len(self.names) != arr.shape[0]:
            raise DegenerateInputError(
                f"{len(self.names)} names for {arr.shape[0]} channel rows"
            )
        check_names(self.names)
        if arr.shape[1] < MIN_SAMPLES:
            raise DegenerateInputError(
                f"need at least {MIN_SAMPLES} samples per channel, got {arr.shape[1]}"
            )
        if not np.isfinite(arr).all():
            raise DegenerateInputError("channel data contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "data", arr)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def index_of(self, key: str | int) -> int:
        """Resolve a channel name or integer index."""
        if is_integer(key):
            idx = int(key)
            if not 0 <= idx < self.n_channels:
                raise ConfigurationError(f"channel index {idx} out of range")
            return idx
        try:
            return self.names.index(key)
        except ValueError:
            raise ConfigurationError(f"unknown channel {key!r}") from None

    def standardized(self) -> "ChannelMatrix":
        """Return a copy with zero-mean, unit-variance, C-contiguous rows.

        The mean and std are reduced in the stored memory order (the
        constructor keeps the caller's layout, and the last bits of a sum
        follow it).  The extremes, which are exact in any order, are reduced
        by ``_extremes``: sample-major data in blocks of ``_EXTREMES_BLOCK``
        samples, so that no reduction runs an inner loop as short as the
        channel count.  Only the result is written row by row, so
        that every estimator call reads a contiguous channel.  Elementwise
        arithmetic rounds alike in any layout, so the result is written in
        C order directly, and the new matrix takes it without a copy: besides
        this matrix, standardizing holds one working copy of it at a time
        (the deviations, then the result), two while channels are
        rescaled.  A channel whose deviation is not a finite float64 at or
        above ``UNDERFLOW_SPREAD`` is reduced after ``unit_scaled``'s exact
        power-of-two rescaling, which moves no bit of the result.  A constant
        channel (its min equals its max, even where the mean rounds off the
        value) cannot be standardized and raises.
        """
        data = self.data
        for name, lo, hi in zip(self.names, *_extremes(data)):
            if lo == hi:
                raise DegenerateInputError(
                    f"channel {name!r} is constant and cannot be standardized"
                )
        with np.errstate(over="ignore", invalid="ignore"):  # rescued below
            stds = data.std(axis=1)
        rescale = ~((stds >= UNDERFLOW_SPREAD) & (stds < math.inf))
        if rescale.any():
            data = data.copy(order="K")
            for row in np.flatnonzero(rescale):  # one channel's temporaries at a time
                data[row] = unit_scaled(data[row])
            stds = data.std(axis=1)
        out = np.subtract(data, data.mean(axis=1)[:, None], order="C")
        out /= stds[:, None]
        # the result is private: the matrix takes it without the constructor's copy
        matrix = object.__new__(ChannelMatrix)
        object.__setattr__(matrix, "names", self.names)
        matrix._own(out)
        return matrix
