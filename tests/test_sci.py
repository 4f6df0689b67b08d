"""Noise-injection construction: analytic variances, the bisection tuner, and
the defining-inequality verifier."""

import math

import numpy as np
import pytest

from hoci import (
    BisectionConfig,
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    EstimatorConfig,
    GaussianEnsembleSpec,
    NoCommonInformationError,
    ParameterDomainError,
    analytic_sci_variance,
    build_sci,
    mi_estimate,
    mmse_coefficients,
    sample_ensemble,
    verify_sci,
)


@pytest.fixture(scope="module")
def ensemble_unit():
    # sigma_x2 = sigma_n2 = 1, rho = 0: analytic noise variance 6
    spec = GaussianEnsembleSpec(1.0, 1.0, 0.0, n=3)
    return sample_ensemble(spec, 100_000, seed=21)


class TestAnalyticVariances:
    def test_known_values(self):
        assert analytic_sci_variance(GaussianEnsembleSpec(1.0, 1.0, 0.0)) == 6.0
        assert analytic_sci_variance(GaussianEnsembleSpec(1.0, 5.0, 0.0)) == 210.0
        assert mmse_coefficients(GaussianEnsembleSpec(1.0, 1.0, 0.0)).sigma_eps_k2 == 7.5
        assert mmse_coefficients(
            GaussianEnsembleSpec(1.0, 5.0, 0.0)
        ).sigma_eps_k2 == 215.83333333333334

    def test_no_common_information_at_zero_delta_rho(self):
        with pytest.raises(NoCommonInformationError):
            analytic_sci_variance(GaussianEnsembleSpec(1.0, 5.0, -0.2))

    def test_degenerate_at_unit_correlation(self):
        with pytest.raises(ParameterDomainError):
            analytic_sci_variance(GaussianEnsembleSpec(1.0, 1.0, 1.0))


class TestBisectionConfig:
    def test_defaults(self):
        bis = BisectionConfig()
        assert bis.epsilon == 1e-3
        assert bis.max_iterations == 60
        assert bis.bracket_growth == 2.0
        assert bis.initial_variance is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BisectionConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            BisectionConfig(max_iterations=9)
        with pytest.raises(ConfigurationError):
            BisectionConfig(bracket_growth=1.0)
        with pytest.raises(ConfigurationError):
            BisectionConfig(initial_variance=0.0)


class TestBuildSci:
    def test_recovers_analytic_variance(self, ensemble_unit):
        m = ensemble_unit
        desc, t = build_sci(m.data[1], m.data[0], seed=5, base_channel=0, partner_channel=1)
        assert abs(desc.noise_variance - 6.0) <= 0.6
        assert desc.residual < 1e-3
        assert desc.iterations <= 30
        assert desc.order == 2
        assert desc.seed == 5
        assert desc.base_channel == 0
        assert desc.partner_channel == 1
        assert t.shape == m.data[0].shape

    def test_injected_noise_variance_matches_descriptor(self, ensemble_unit):
        # the noise direction is orthogonalized and unit-scaled, so the
        # injected variance is exactly the tuned value
        m = ensemble_unit
        desc, t = build_sci(m.data[1], m.data[0], seed=5)
        assert float(np.var(t - m.data[0])) == pytest.approx(
            desc.noise_variance, rel=1e-9
        )

    def test_deterministic_per_seed(self, ensemble_unit):
        m = ensemble_unit
        d1, t1 = build_sci(m.data[1], m.data[0], seed=5)
        d2, t2 = build_sci(m.data[1], m.data[0], seed=5)
        d3, t3 = build_sci(m.data[1], m.data[0], seed=6)
        assert d1 == d2
        assert np.array_equal(t1, t2)
        assert not np.array_equal(t1, t3)

    def test_initial_variance_override_converges_to_same_point(self, ensemble_unit):
        m = ensemble_unit
        d1, _ = build_sci(m.data[1], m.data[0], seed=5)
        d2, _ = build_sci(
            m.data[1], m.data[0], bis=BisectionConfig(initial_variance=50.0), seed=5
        )
        assert abs(d1.noise_variance - d2.noise_variance) <= 0.05 * d1.noise_variance

    def test_no_common_information_on_independent_columns(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(100_000), rng.standard_normal(100_000)
        with pytest.raises(NoCommonInformationError) as exc:
            build_sci(x, y, seed=1)
        assert 0.0 <= exc.value.target_bits <= 1e-3

    def test_identical_columns_cannot_be_tuned(self):
        x = np.random.default_rng(3).standard_normal(5000)
        with pytest.raises(ConvergenceError):
            build_sci(x, x, seed=1)

    def test_input_validation(self, ensemble_unit):
        m = ensemble_unit
        with pytest.raises(DegenerateInputError):
            build_sci(m.data[0][:100], m.data[1][:99], seed=1)
        with pytest.raises(ConfigurationError):
            build_sci(m.data[0], m.data[1], seed=-1)

    def test_mi_decreases_monotonically_in_noise_variance(self):
        # the quantity the bisection inverts must actually be monotone
        spec = GaussianEnsembleSpec(1.0, 1.0, 0.0, n=2)
        m = sample_ensemble(spec, 50_000, seed=4)
        carrier = m.data[0]
        rng = np.random.default_rng(9)
        e = rng.standard_normal(carrier.size)
        e -= e.mean()
        e -= (e @ carrier) / (carrier @ carrier) * carrier
        e /= e.std()
        cfg = EstimatorConfig()
        values = [
            mi_estimate(carrier + math.sqrt(v) * e, carrier, cfg)
            for v in np.logspace(-2, 3, 12)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def built():
    spec = GaussianEnsembleSpec(1.0, 5.0, 0.0, n=3)
    m = sample_ensemble(spec, 100_000, seed=33)
    desc, t = build_sci(m.data[1], m.data[0], seed=9)
    return m, desc, t


class TestVerifySci:
    def test_tuned_construction_verifies(self, built):
        m, desc, t = built
        ver = verify_sci(t, m, 0, 1)
        assert ver.passed
        assert ver.i == 0 and ver.j == 1
        assert ver.delta_bits == pytest.approx(0.02)
        assert len(ver.checks) == 3
        assert all(c.margin_bits >= 0.0 for c in ver.checks)
        assert tuple(c.name for c in ver.checks) == m.names

    def test_unmodified_copy_fails_at_base_channel(self, built):
        m, _, _ = built
        ver = verify_sci(m.data[0], m, 0, 1)
        assert not ver.passed
        assert not ver.checks[0].passed  # divergent MI with its own source
        assert ver.checks[1].passed and ver.checks[2].passed

    def test_slack_scales_with_sample_count(self, built):
        m, _, t = built
        from hoci import ChannelMatrix

        small = ChannelMatrix(names=m.names, data=m.data[:, :25_000])
        ver = verify_sci(t[:25_000], small, 0, 1)
        assert ver.delta_bits == pytest.approx(0.04)

    def test_channel_name_lookup(self, built):
        m, _, t = built
        ver = verify_sci(t, m, "x1", "x2")
        assert ver.i == 0 and ver.j == 1

    def test_length_mismatch_rejected(self, built):
        m, _, t = built
        with pytest.raises(DegenerateInputError):
            verify_sci(t[:-1], m, 0, 1)
