"""Higher-order common information: closed-form Gaussian bounds, an exact
discrete oracle, pluggable MI estimators, and a noise-injection estimation
pipeline with CSV/JSON IO.

``import hoci`` loads only the modules ``hoci estimate`` runs; the closed
forms of ``hoci.gaussian`` and the oracle of ``hoci.discrete`` are loaded
the first time one of their names is read.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .channels import ChannelMatrix
from .errors import (
    CapacityError,
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    HociError,
    IngestionError,
    NoCommonInformationError,
    ParameterDomainError,
    PipelineError,
)
from .estimators import (
    EstimatorConfig,
    MiEstimate,
    bidirectional_te_mi,
    mi_estimate,
    mi_estimate_full,
)
from .pipeline import (
    CommonInfoReport,
    LagCorrelation,
    LevelEstimate,
    chain_slack_bits,
    derive_sci_seed,
    lag_max_correlation,
    run_estimate,
)
from .sci import SciDescriptor, SciVerification, build_sci, verify_sci

# bound on first use, by the submodule that defines them
_LAZY = {
    "discrete": """DiscreteEnsemble LevelVerification Theorem5Verification all_level_masks
        build_ensemble build_t_level enumerate_mask_mi exact_entropy mask_mi
        sample_channels verify_theorem5""".split(),
    "gaussian": """AsymptoticLimits DeltaQuantities GaussianEnsembleSpec MmseCoefficients
        analytic_sci_variance asymptotic_limits cond_mi_xi_xj_given_xk delta_quantities
        interaction_information mi_x_xi mi_xi_xj mmse_coefficients r3_lower r4_lower
        sample_ensemble""".split(),
}

# the public API: every public name the import blocks above bind, submodules
# aside, and every name of _LAZY
__all__ = sorted(
    [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))]
    + [n for names in _LAZY.values() for n in names]
)


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = _import_module(f"{__name__}.{module}")  # binds the submodule here
            globals().update((n, getattr(loaded, n)) for n in names)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *__all__})
