"""Exception hierarchy shared by every hoci module.

Each exception carries a stable machine-readable ``code`` so the CLI can
report errors in a parseable form and exit nonzero exactly when one is
raised.  ``ENUMERATION_CAP`` is the size limit behind ``CapacityError``.
"""
from __future__ import annotations

# the most states, cells, masks or rows any exact enumeration or table holds
ENUMERATION_CAP = 10**6


class HociError(Exception):
    """Base class for all package errors."""

    code = "error"


class ParameterDomainError(HociError, ValueError):
    """A parameter lies outside the mathematical domain of an operation."""

    code = "parameter_domain"


class DegenerateInputError(HociError, ValueError):
    """Sample data is unusable: wrong shape, non-finite, constant, or too short."""

    code = "degenerate_input"


class ConvergenceError(HociError, RuntimeError):
    """An iterative tuning loop exhausted its iteration budget."""

    code = "convergence"


class NoCommonInformationError(HociError):
    """Signal (not a failure): the tuning target MI is below resolution.

    Raised when a pair of channels shares no measurable information, so
    there is nothing for a noise-injection construction to match.  Callers
    that minimize over constructions treat this as "contributes zero".
    """

    code = "no_common_information"

    def __init__(self, message: str, target_bits: float = 0.0):
        super().__init__(message)
        self.target_bits = target_bits


class CapacityError(HociError):
    """An exact enumeration was requested over too large a state space."""

    code = "capacity"


class IngestionError(HociError, ValueError):
    """Input file is malformed; the message names the offending row/column."""

    code = "ingestion"


class ConfigurationError(HociError, ValueError):
    """A run configuration value is invalid or inconsistent."""

    code = "configuration"


class PipelineError(HociError, RuntimeError):
    """An end-to-end estimation run could not produce a result."""

    code = "pipeline"
