"""Every exported name resolves and every demo imports, so a deletion that a
re-export or a demo still depends on fails the suite.  The public surface is
pinned, and a name bound on first use reads the same as an imported one."""
import runpy
from pathlib import Path

import pytest

import hoci

PUBLIC_NAMES = [
    "AsymptoticLimits", "CapacityError", "ChannelMatrix", "CommonInfoReport",
    "ConfigurationError", "ConvergenceError", "DegenerateInputError", "DeltaQuantities",
    "DiscreteEnsemble", "EstimatorConfig", "GaussianEnsembleSpec", "HociError",
    "IngestionError", "LagCorrelation", "LevelEstimate", "LevelVerification", "MiEstimate",
    "MmseCoefficients", "NoCommonInformationError", "ParameterDomainError", "PipelineError",
    "SciDescriptor", "SciVerification", "Theorem5Verification", "all_level_masks",
    "analytic_sci_variance", "asymptotic_limits", "bidirectional_te_mi",
    "build_ensemble", "build_sci", "build_t_level", "chain_slack_bits",
    "cond_mi_xi_xj_given_xk", "delta_quantities", "derive_sci_seed", "enumerate_mask_mi",
    "exact_entropy", "interaction_information", "lag_max_correlation", "mask_mi",
    "mi_estimate", "mi_estimate_full", "mi_x_xi", "mi_xi_xj", "mmse_coefficients", "r3_lower",
    "r4_lower", "run_estimate", "sample_channels", "sample_ensemble", "verify_sci",
    "verify_theorem5",
]

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("module", [hoci], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_public_surface_is_pinned():
    assert hoci.__all__ == PUBLIC_NAMES


def test_lazy_names_bind_like_imported_ones():
    namespace = {}
    exec("from hoci import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES
    assert set(hoci.__all__) <= set(dir(hoci))
    assert hoci.GaussianEnsembleSpec is hoci.gaussian.GaussianEnsembleSpec
    assert hoci.verify_theorem5 is hoci.discrete.verify_theorem5
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        hoci.not_a_name


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports(path):
    # the demos guard main() behind __main__, so this only runs their imports
    runpy.run_path(str(path), run_name="demo")
