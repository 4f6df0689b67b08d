"""Multichannel sample container shared by the sampling, estimation, and IO layers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError

MIN_SAMPLES = 32


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Channels-by-samples real matrix with channel names.

    ``data`` has shape (n_channels, n_samples); rows are channels.
    """

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise DegenerateInputError("channel data must be 2-D (channels x samples)")
        if len(self.names) != arr.shape[0]:
            raise DegenerateInputError(
                f"{len(self.names)} names for {arr.shape[0]} channel rows"
            )
        if len(set(self.names)) != len(self.names):
            raise DegenerateInputError("duplicate channel names")
        if any(not n for n in self.names):
            raise DegenerateInputError("empty channel name")
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
        if isinstance(key, (int, np.integer)):
            idx = int(key)
            if not 0 <= idx < self.n_channels:
                raise ConfigurationError(f"channel index {idx} out of range")
            return idx
        try:
            return self.names.index(key)
        except ValueError:
            raise ConfigurationError(f"unknown channel {key!r}") from None

    def standardized(self) -> "ChannelMatrix":
        """Return a copy with zero-mean, unit-variance rows.

        A constant channel cannot be standardized and raises.
        """
        means = self.data.mean(axis=1)
        stds = self.data.std(axis=1)
        for name, s in zip(self.names, stds):
            if s == 0.0:
                raise DegenerateInputError(
                    f"channel {name!r} is constant and cannot be standardized"
                )
        out = (self.data - means[:, None]) / stds[:, None]
        return ChannelMatrix(names=self.names, data=out)
