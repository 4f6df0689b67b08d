"""Higher-order common information: closed-form Gaussian bounds, an exact
discrete oracle, pluggable MI estimators, and a noise-injection estimation
pipeline with CSV/JSON IO."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .channels import ChannelMatrix
from .discrete import (
    DiscreteEnsemble,
    LevelVerification,
    Theorem5Verification,
    all_level_masks,
    build_ensemble,
    build_t_level,
    enumerate_mask_mi,
    exact_entropy,
    mask_mi,
    sample_channels,
    verify_theorem5,
)
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
from .gaussian import (
    AsymptoticLimits,
    DeltaQuantities,
    GaussianEnsembleSpec,
    MmseCoefficients,
    asymptotic_limits,
    cond_mi_xi_xj_given_xk,
    delta_quantities,
    interaction_information,
    mi_x_xi,
    mi_xi_xj,
    mmse_coefficients,
    r3_lower,
    r4_lower,
    sample_ensemble,
)
from .pipeline import (
    CommonInfoReport,
    LagCorrelation,
    LevelEstimate,
    approx_rtilde,
    chain_slack_bits,
    derive_sci_seed,
    lag_max_correlation,
    lag_max_correlation_samples,
    run_estimate,
)
from .sci import (
    BisectionConfig,
    SciDescriptor,
    SciVerification,
    analytic_sci_variance,
    build_sci,
    verify_sci,
)

# the public API: every public name the import blocks above bind, submodules aside
__all__ = sorted(
    n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))
)
