"""End-to-end estimation pipeline: level estimates against closed forms,
averages and scaling approximations, lag scans, and the report invariants."""

import math

import numpy as np
import pytest

from hoci import (
    BisectionConfig,
    ChannelMatrix,
    ConfigurationError,
    DegenerateInputError,
    EstimatorConfig,
    GaussianEnsembleSpec,
    ParameterDomainError,
    PipelineError,
    approx_rtilde,
    build_ensemble,
    chain_slack_bits,
    derive_sci_seed,
    lag_max_correlation,
    lag_max_correlation_samples,
    mi_xi_xj,
    r3_lower,
    run_estimate,
    sample_channels,
    sample_ensemble,
)

R2_113 = 0.39605357417933357  # closed-form values at sigma_x2=sigma_n2=1, rho=0.3
R3_113 = 0.14183924791340496


@pytest.fixture(scope="module")
def gaussian4():
    spec = GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4)
    return sample_ensemble(spec, 100_000, seed=2)


@pytest.fixture(scope="module")
def independent3():
    rng = np.random.default_rng(17)
    data = rng.standard_normal((3, 20_000))
    return ChannelMatrix(names=("a", "b", "c"), data=data)


@pytest.fixture(scope="module")
def report4(gaussian4):
    return run_estimate(gaussian4, seed=0, order=4)


@pytest.fixture(scope="module")
def independent_report(independent3):
    return run_estimate(independent3, seed=0, order=3)


class TestSeedsAndSlack:
    def test_seed_derivation_is_deterministic_and_distinct(self):
        a = derive_sci_seed(7, 0, 1, 2)
        assert a == derive_sci_seed(7, 0, 1, 2)
        others = {
            derive_sci_seed(7, 1, 0, 2),
            derive_sci_seed(7, 0, 2, 2),
            derive_sci_seed(7, 0, 1, 3),
            derive_sci_seed(8, 0, 1, 2),
        }
        assert a not in others
        assert len(others) == 4
        assert all(isinstance(s, int) and s >= 0 for s in others | {a})

    def test_slack_scales_inverse_sqrt(self):
        assert chain_slack_bits(100_000) == 0.02
        assert chain_slack_bits(25_000) == 0.04
        assert chain_slack_bits(10_000) == pytest.approx(0.02 * math.sqrt(10))


class TestLevelEstimates:
    def test_r2_matches_closed_form(self, report4, gaussian4):
        est = report4.r2_hat
        assert est.bits == pytest.approx(R2_113, abs=0.01)
        assert len(est.channels) == 2
        assert set(est.channels) <= set(gaussian4.names)

    def test_r2_argmin_finds_weakest_pair(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal(50_000)
        cm = ChannelMatrix(
            names=("a", "b", "c"),
            data=np.array(
                [
                    s + 0.1 * rng.standard_normal(50_000),
                    s + 0.1 * rng.standard_normal(50_000),
                    rng.standard_normal(50_000),
                ]
            ),
        )
        est = run_estimate(cm, order=2).r2_hat
        assert "c" in est.channels
        assert est.bits < 0.01

    def test_r3_matches_closed_form(self, report4):
        est = report4.r3_hat_lower
        assert est.bits == pytest.approx(R3_113, abs=max(0.15 * R3_113, 0.02))
        assert len(est.channels) == 3

    def test_r4_below_r3(self, report4):
        r3, r4 = report4.r3_hat_lower, report4.r4_hat_lower
        assert r4.bits <= r3.bits + 0.02
        assert len(r4.channels) == 4

    def test_channel_count_requirements(self, independent3):
        two = ChannelMatrix(names=("a", "b"), data=independent3.data[:2])
        with pytest.raises(ParameterDomainError):
            run_estimate(two, order=3)
        with pytest.raises(ParameterDomainError):
            run_estimate(independent3, order=4)

    def test_independent_channels_report_zero_with_reason(self, independent_report):
        est = independent_report.r3_hat_lower
        assert est.bits == 0.0
        assert est.channels is None
        assert est.reason is not None


class TestDiscreteEndToEnd:
    def test_three_symbol_construction(self):
        ens = build_ensemble(3, (0.5, 0.5))
        m = sample_channels(ens, 100_000, seed=4)
        rep = run_estimate(m, EstimatorConfig(method="binned", bins=16), seed=1, order=3)
        assert rep.r2_hat.bits == pytest.approx(1.0, abs=0.1)
        assert rep.r3_hat_lower.bits <= 0.1
        assert rep.chain_ok

    def test_four_symbol_construction(self):
        ens = build_ensemble(4, (0.5, 0.5))
        m = sample_channels(ens, 100_000, seed=4)
        rep = run_estimate(m, EstimatorConfig(method="binned", bins=128), seed=1, order=3)
        assert rep.r2_hat.bits == pytest.approx(2.0, abs=0.1)
        assert rep.r3_hat_lower.bits == pytest.approx(1.0, abs=0.1)


class TestAveragesAndScaling:
    def test_rbar_level2_close_to_min_when_exchangeable(self, report4):
        rbar = report4.rbar[2]
        r2 = report4.r2_hat.bits
        assert rbar >= r2  # the mean dominates the min
        assert rbar == pytest.approx(r2, abs=0.02)

    def test_rbar_level3(self, report4):
        assert report4.rbar[3] == pytest.approx(R3_113, abs=0.02)

    def test_rbar_level3_zero_for_independent(self, independent_report):
        assert independent_report.rbar[3] == 0.0

    def test_rtilde_scaling_values(self):
        assert approx_rtilde(2.0, 4, 2) == 2.0
        assert approx_rtilde(2.0, 4, 3) == 1.0
        assert approx_rtilde(2.0, 4, 4) == 0.0
        assert approx_rtilde(math.inf, 4, 4) == 0.0  # exact zero coefficient wins
        assert approx_rtilde(0.9, 5, 3) == pytest.approx(0.6)

    def test_rtilde_validation(self):
        with pytest.raises(ParameterDomainError):
            approx_rtilde(1.0, 2, 2)
        with pytest.raises(ParameterDomainError):
            approx_rtilde(1.0, 4, 1)
        with pytest.raises(ParameterDomainError):
            approx_rtilde(1.0, 4, 5)
        with pytest.raises(ParameterDomainError):
            approx_rtilde(-0.1, 4, 2)


class TestLagScan:
    def test_finds_constructed_delay(self):
        x = np.random.default_rng(5).standard_normal(10_000)
        y = np.roll(x, 25) + 0.3 * np.random.default_rng(6).standard_normal(10_000)
        res = lag_max_correlation(x, y, sample_rate_hz=100.0)
        assert res.lag_samples == 25
        assert res.lag_seconds == pytest.approx(0.25)
        assert res.abs_corr > 0.9

    def test_null_correlation_is_small(self):
        x = np.random.default_rng(5).standard_normal(10_000)
        y = np.random.default_rng(7).standard_normal(10_000)
        res = lag_max_correlation(x, y, sample_rate_hz=100.0)
        assert res.abs_corr <= 0.05

    def test_delay_outside_window_is_not_picked_up(self):
        x = np.random.default_rng(5).standard_normal(10_000)
        y = np.roll(x, 50) + 0.3 * np.random.default_rng(6).standard_normal(10_000)
        inside = lag_max_correlation(x, y, sample_rate_hz=100.0)
        assert inside.abs_corr <= 0.05
        wide = lag_max_correlation_samples(x, y, 40, 60)
        assert wide.lag_samples == 50
        assert wide.abs_corr > 0.9

    def test_sample_variant_prefers_smaller_lag_on_tie(self):
        x = np.ones(100)
        x[::2] = -1.0  # period-2 series: every lag correlates perfectly
        res = lag_max_correlation_samples(x, x, 2, 6)
        assert res.lag_samples == 2
        assert res.abs_corr == 1.0  # clipped, so the tie is exact

    def test_domain_errors(self):
        x = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(ConfigurationError):
            lag_max_correlation(x, x)  # no sample rate
        with pytest.raises(ParameterDomainError):
            lag_max_correlation(x, x, 0.191, 0.199, sample_rate_hz=10.0)
        with pytest.raises(ParameterDomainError):
            lag_max_correlation_samples(x, x, 5, 4)
        with pytest.raises(DegenerateInputError):
            lag_max_correlation_samples(x, x, 0, 999)


class TestRunEstimate:
    def test_full_report_structure(self, gaussian4):
        rep = run_estimate(gaussian4, seed=0, order=4)
        assert rep.r2_hat.bits == pytest.approx(R2_113, abs=0.01)
        assert rep.r3_hat_lower.bits == pytest.approx(R3_113, abs=0.02)
        assert rep.r4_hat_lower.bits <= rep.r3_hat_lower.bits + rep.chain_slack_bits
        assert rep.chain_ok
        assert rep.order == 4
        assert rep.num_samples == 100_000
        assert rep.channel_names == gaussian4.names
        assert len(rep.sci_descriptors) == 12  # one per ordered pair
        assert rep.exclusions == ()
        assert sorted(rep.rbar) == [2, 3]
        assert sorted(rep.rtilde) == [2, 3, 4]
        assert rep.rtilde[2] == rep.r2_hat.bits
        assert rep.rtilde[3] == pytest.approx(rep.r2_hat.bits / 2)
        assert rep.rtilde[4] == 0.0

    def test_order_two_skips_constructions(self, gaussian4):
        rep = run_estimate(gaussian4, seed=0, order=2)
        assert rep.r3_hat_lower is None
        assert rep.r4_hat_lower is None
        assert rep.sci_descriptors == ()
        assert sorted(rep.rbar) == [2]

    def test_deterministic(self, gaussian4):
        a = run_estimate(gaussian4, seed=3, order=3)
        b = run_estimate(gaussian4, seed=3, order=3)
        assert a == b

    def test_independent_channels_zero_bound_with_exclusions(self, independent3):
        rep = run_estimate(independent3, seed=0, order=3)
        assert rep.r3_hat_lower.bits == 0.0
        assert rep.r3_hat_lower.reason is not None
        assert len(rep.exclusions) == 6
        assert all(e.code == "no_common_information" for e in rep.exclusions)
        assert rep.chain_ok

    def test_time_series_mode_ignores_equal_time_correlation(self):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.6, n=3), 20_000, seed=3)
        plain = run_estimate(m, seed=0, order=2)
        lagged = run_estimate(m, seed=0, order=2, time_series=True)
        assert plain.r2_hat.bits > 0.5
        assert lagged.r2_hat.bits < 0.1
        assert lagged.time_series

    def test_validation(self, gaussian4, independent3):
        with pytest.raises(ConfigurationError):
            run_estimate(gaussian4, order=5)
        with pytest.raises(ParameterDomainError):
            run_estimate(independent3, order=4)
        with pytest.raises(ConfigurationError):
            run_estimate(gaussian4, seed=-2)

    def test_every_construction_failing_raises(self):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 20_000, seed=3)
        with pytest.raises(PipelineError) as exc:
            run_estimate(m, bis=BisectionConfig(max_iterations=10), seed=0, order=3)
        assert exc.value.code == "pipeline"
        for i in m.names:
            for j in m.names:
                if i != j:
                    assert f"({i},{j})" in str(exc.value)


class TestAgainstClosedFormsAcrossParameters:
    """The estimated bounds track the model across a small parameter sweep."""

    @pytest.mark.parametrize("sn2,rho", [(1.0, 0.0), (5.0, 0.3), (5.0, 0.5)])
    def test_r2_and_r3_follow_the_model(self, sn2, rho):
        spec = GaussianEnsembleSpec(1.0, sn2, rho, n=3)
        m = sample_ensemble(spec, 100_000, seed=int(sn2 * 10 + rho * 100))
        rep = run_estimate(m, seed=1, order=3)
        r2_true = mi_xi_xj(spec)
        r3_true = r3_lower(spec)
        assert rep.r2_hat.bits == pytest.approx(r2_true, abs=max(0.1 * r2_true, 0.01))
        assert rep.r3_hat_lower.bits == pytest.approx(
            r3_true, abs=max(0.15 * r3_true, 0.02)
        )
        assert rep.chain_ok
