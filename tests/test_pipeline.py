"""End-to-end estimation pipeline: level estimates against closed forms,
averages and scaling approximations, lag scans, and the report invariants."""

import math
import warnings
from collections import Counter
from itertools import combinations, permutations, product

import numpy as np
import pytest

from hoci import (
    ChannelMatrix,
    ConfigurationError,
    DegenerateInputError,
    EstimatorConfig,
    GaussianEnsembleSpec,
    ParameterDomainError,
    PipelineError,
    asymptotic_limits,
    bidirectional_te_mi,
    build_ensemble,
    chain_slack_bits,
    derive_sci_seed,
    lag_max_correlation,
    mi_estimate,
    mi_xi_xj,
    r3_lower,
    run_estimate,
    sample_channels,
    sample_ensemble,
)
from hoci.channels import _EXTREMES_BLOCK, _extremes

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
        a = derive_sci_seed(7, "x1")
        assert a == derive_sci_seed(7, "x1")
        # a trailing NUL byte, which a padded entropy word would read as
        # absent, still names another channel
        others = {
            derive_sci_seed(7, "x2"),
            derive_sci_seed(7, "x1\0"),
            derive_sci_seed(7, "é"),
            derive_sci_seed(8, "x1"),
        }
        assert a not in others
        assert len(others) == 4
        assert all(isinstance(s, int) and s >= 0 for s in others | {a})

    def test_slack_scales_inverse_sqrt(self):
        assert chain_slack_bits(100_000) == 0.02
        assert chain_slack_bits(25_000) == 0.04
        assert chain_slack_bits(10_000) == pytest.approx(0.02 * math.sqrt(10))

    def test_a_channel_name_that_is_not_text_has_no_seed(self):
        with pytest.raises(ConfigurationError, match="channel name must be text, got 5"):
            derive_sci_seed(0, 5)

    def test_slack_needs_a_sample(self):
        with pytest.raises(ParameterDomainError, match="num_samples must be positive"):
            chain_slack_bits(0)


class TestLevelEstimates:
    def test_r2_matches_closed_form(self, report4, gaussian4):
        est = report4.levels[2]
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
        est = run_estimate(cm, order=2).levels[2]
        assert "c" in est.channels
        assert est.bits < 0.01

    def test_r3_matches_closed_form(self, report4):
        est = report4.levels[3]
        assert est.bits == pytest.approx(R3_113, abs=max(0.15 * R3_113, 0.02))
        assert len(est.channels) == 3

    def test_r4_below_r3(self, report4):
        r3, r4 = report4.levels[3], report4.levels[4]
        assert r4.bits <= r3.bits + 0.02
        assert len(r4.channels) == 4

    def test_channel_count_requirements(self, independent3):
        two = ChannelMatrix(names=("a", "b"), data=independent3.data[:2])
        with pytest.raises(ParameterDomainError):
            run_estimate(two, order=3)
        with pytest.raises(ParameterDomainError):
            run_estimate(independent3, order=4)

    def test_independent_channels_report_zero_with_reason(self, independent_report):
        est = independent_report.levels[3]
        assert est.bits == 0.0
        assert est.channels is None
        assert est.reason is not None


class TestDiscreteEndToEnd:
    def test_three_symbol_construction(self):
        ens = build_ensemble(3, (0.5, 0.5))
        m = sample_channels(ens, 100_000, seed=4)
        rep = run_estimate(m, EstimatorConfig(method="binned", bins=16), seed=1, order=3)
        assert rep.levels[2].bits == pytest.approx(1.0, abs=0.1)
        assert rep.levels[3].bits <= 0.1
        assert rep.chain_ok

    def test_four_symbol_construction(self):
        ens = build_ensemble(4, (0.5, 0.5))
        m = sample_channels(ens, 100_000, seed=4)
        rep = run_estimate(m, EstimatorConfig(method="binned", bins=128), seed=1, order=3)
        assert rep.levels[2].bits == pytest.approx(2.0, abs=0.1)
        assert rep.levels[3].bits == pytest.approx(1.0, abs=0.1)


    def test_chain_breaks_where_r4_exceeds_r3(self):
        # the binned plug-in bias lifts r4 (1.39 bits) above r3 (1.02) on
        # the binary four-symbol construction at this sample count and grid
        m = sample_channels(build_ensemble(4, (0.5, 0.5)), 10_000, seed=7)
        rep = run_estimate(m, EstimatorConfig(method="binned", bins=256), order=4)
        slack = rep.chain_slack_bits
        assert rep.levels[3].bits <= rep.levels[2].bits + slack
        assert rep.levels[4].bits > rep.levels[3].bits + slack
        assert rep.chain_ok is False


class TestAveragesAndScaling:
    def test_rbar_level2_close_to_min_when_exchangeable(self, report4):
        rbar = report4.rbar[2]
        r2 = report4.levels[2].bits
        assert rbar >= r2  # the mean dominates the min
        assert rbar == pytest.approx(r2, abs=0.02)

    def test_rbar_level3(self, report4):
        assert report4.rbar[3] == pytest.approx(R3_113, abs=0.02)

    def test_rbar_level3_zero_for_independent(self, independent_report):
        assert independent_report.rbar[3] == 0.0

    def test_rtilde_scales_r2(self, report4):
        r2 = report4.levels[2].bits
        assert report4.rtilde == {2: r2, 3: r2 / 2, 4: 0.0}
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=5), 2000, seed=4)
        rep = run_estimate(m, order=3)
        assert rep.rtilde == {2: rep.levels[2].bits, 3: 2 / 3 * rep.levels[2].bits}

    def test_rtilde_is_exactly_zero_at_level_n_for_a_divergent_r2(self):
        # each channel is the last one a sample later: every lag-embedded pair
        # diverges, while the plain white-noise correlations behind r3 and r4 are null
        x = np.random.default_rng(3).standard_normal(2000)
        m = ChannelMatrix(("a", "b", "c", "d"), np.array([np.roll(x, lag) for lag in range(4)]))
        rep = run_estimate(m, order=4, time_series=True)
        assert math.isinf(rep.levels[2].bits)
        assert (rep.levels[3].bits, rep.levels[4].bits) == (0.0, 0.0)
        assert rep.rtilde == {2: math.inf, 3: math.inf, 4: 0.0}

    def test_closed_form_and_slack_settings_pass_the_real_or_integer_rule(self):
        for rho in (True, "0.3", math.nan):
            with pytest.raises(ParameterDomainError, match="rho must lie in"):
                asymptotic_limits(rho)
        for num_samples in (True, 1.5, 100_000.0, math.nan):
            with pytest.raises(ParameterDomainError, match="num_samples must be positive"):
                chain_slack_bits(num_samples)
        # numpy numbers pass
        assert asymptotic_limits(np.float64(0.6)) == asymptotic_limits(0.6)
        assert chain_slack_bits(np.int64(100_000)) == 0.02


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
        wide = lag_max_correlation(x, y, 40, 60, sample_rate_hz=1.0)
        assert wide.lag_samples == 50
        assert wide.abs_corr > 0.9

    def test_sample_variant_prefers_smaller_lag_on_tie(self):
        x = np.ones(100)
        x[::2] = -1.0  # period-2 series: every lag correlates perfectly
        res = lag_max_correlation(x, x, 2, 6, sample_rate_hz=1.0)
        assert res.lag_samples == 2
        assert res.abs_corr == 1.0  # clipped, so the tie is exact

    def test_domain_errors(self):
        x = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(ConfigurationError):
            lag_max_correlation(x, x)  # no sample rate
        with pytest.raises(ConfigurationError):
            lag_max_correlation(x, x, sample_rate_hz=math.inf)
        with pytest.raises(ParameterDomainError):
            lag_max_correlation(x, x, 0.191, 0.199, sample_rate_hz=10.0)
        with pytest.raises(ParameterDomainError):
            lag_max_correlation(x, x, 5, 4, sample_rate_hz=1.0)
        with pytest.raises(DegenerateInputError):
            lag_max_correlation(x, x, 0, 999, sample_rate_hz=1.0)

    @pytest.mark.parametrize(
        "window, rate, error",
        [
            ((False, True), 100.0, ParameterDomainError),
            ((0.190, 0.300), True, ConfigurationError),
            ((0.190, 0.300), "100", ConfigurationError),
            (("0.1", 0.300), 100.0, ParameterDomainError),
        ],
        ids=["bool-window", "bool-rate", "str-rate", "str-bound"],
    )
    def test_a_window_or_rate_that_is_not_real_is_refused(self, window, rate, error):
        x = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(error):
            lag_max_correlation(x, x, *window, sample_rate_hz=rate)

    def test_reversed_seconds_range_is_a_domain_error(self):
        x = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(ParameterDomainError, match=r"lag_min_s <= lag_max_s, got \[0.3, 0.19\]"):
            lag_max_correlation(x, x, 0.3, 0.19, sample_rate_hz=100.0)

    def test_window_past_float64_in_samples_is_a_domain_error(self):
        # 1e300 s at 1e308 Hz is not a finite number of samples
        x = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(ParameterDomainError, match="not finite in samples"):
            lag_max_correlation(x, x, 0.0, 1e300, sample_rate_hz=1e308)
        with pytest.raises(ParameterDomainError, match="not finite in samples"):
            lag_max_correlation(x, x, 0.0, math.inf, sample_rate_hz=100.0)

    @pytest.mark.parametrize("rate", [4e-9, 1e-300])
    def test_window_under_one_sample_at_a_tiny_rate_holds_no_lag(self, rate):
        # the 190-300 ms window is a fraction of a sample wide and above lag 0
        x = np.random.default_rng(0).standard_normal(1000)
        with pytest.raises(ParameterDomainError, match="no integer lag lies in"):
            lag_max_correlation(x, x, sample_rate_hz=rate)

    def test_columns_are_checked_as_an_estimator_pair(self):
        x = np.random.default_rng(0).standard_normal(100)
        bad = x.copy()
        bad[7] = np.inf
        for args, message in [
            ((bad, x), "x contains non-finite values"),
            ((x, bad), "y contains non-finite values"),
            ((x, x[:99]), "length mismatch: 100 vs 99"),
            ((x[:9], x[:9]), "x has 9 samples; need >= 10"),
            ((np.stack([x, x]), x), "x must be a 1-D sample column"),
        ]:
            with pytest.raises(DegenerateInputError, match=message):
                lag_max_correlation(*args, 0, 3, sample_rate_hz=1.0)

    def test_a_window_that_leaves_fewer_than_ten_samples_is_refused(self):
        # any two samples correlate perfectly; the estimators' MIN_LENGTH holds here too
        x, y = np.random.default_rng(3).standard_normal((2, 100))
        assert lag_max_correlation(x, y, 90, 90, sample_rate_hz=1.0).lag_samples == 90
        for window in ((0, 91), (0, 98), (91, 91)):
            with pytest.raises(DegenerateInputError, match=f"^series of length 100 too short for max lag {window[1]}$"):
                lag_max_correlation(x, y, *window, sample_rate_hz=1.0)

    def test_constant_overlap_names_the_lag(self):
        x = np.random.default_rng(0).standard_normal(100)
        y = np.concatenate([np.ones(10), x[10:]])
        with pytest.raises(DegenerateInputError, match="constant overlap at lag 90 samples"):
            lag_max_correlation(y, x, 88, 90, sample_rate_hz=1.0)

    def test_overflowing_scale_keeps_the_unit_scale_lag(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 1000))
        got = lag_max_correlation(x * 1e160, y * 1e160, 0, 3, sample_rate_hz=1.0)
        want = lag_max_correlation(x, y, 0, 3, sample_rate_hz=1.0)
        assert got.lag_samples == want.lag_samples
        assert got.abs_corr == pytest.approx(want.abs_corr, abs=1e-12)


class TestRunEstimate:
    def test_full_report_structure(self, gaussian4):
        rep = run_estimate(gaussian4, seed=0, order=4)
        assert rep.levels[2].bits == pytest.approx(R2_113, abs=0.01)
        assert rep.levels[3].bits == pytest.approx(R3_113, abs=0.02)
        assert rep.levels[4].bits <= rep.levels[3].bits + rep.chain_slack_bits
        assert rep.chain_ok
        assert max(rep.levels) == 4
        assert rep.num_samples == 100_000
        assert rep.channel_names == gaussian4.names
        assert rep.sci_descriptors == ()  # gaussian_logdet samples no surrogate
        assert rep.exclusions == ()
        assert sorted(rep.rbar) == [2, 3]
        assert sorted(rep.rtilde) == [2, 3, 4]
        assert rep.rtilde[2] == rep.levels[2].bits
        assert rep.rtilde[3] == pytest.approx(rep.levels[2].bits / 2)
        assert rep.rtilde[4] == 0.0

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_levels_keyed_two_to_order(self, gaussian4, order):
        rep = run_estimate(gaussian4, seed=0, order=order)
        assert list(rep.levels) == list(range(2, order + 1))

    def test_order_two_skips_constructions(self, gaussian4):
        rep = run_estimate(gaussian4, seed=0, order=2)
        assert rep.levels.get(3) is None
        assert rep.levels.get(4) is None
        assert rep.sci_descriptors == ()
        assert sorted(rep.rbar) == [2]

    def test_deterministic(self, gaussian4):
        a = run_estimate(gaussian4, seed=3, order=3)
        b = run_estimate(gaussian4, seed=3, order=3)
        assert a == b

    def test_independent_channels_zero_bound_with_exclusions(self, independent3):
        rep = run_estimate(independent3, seed=0, order=3)
        assert rep.levels[3].bits == 0.0
        assert rep.levels[3].reason is not None
        assert len(rep.exclusions) == 6
        assert all(e.code == "no_common_information" for e in rep.exclusions)
        assert rep.chain_ok

    def test_time_series_mode_ignores_equal_time_correlation(self):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.6, n=3), 20_000, seed=3)
        plain = run_estimate(m, seed=0, order=2)
        lagged = run_estimate(m, seed=0, order=2, time_series=True)
        assert plain.levels[2].bits > 0.5
        assert lagged.levels[2].bits < 0.1
        assert lagged.time_series

    def test_validation(self, gaussian4, independent3):
        with pytest.raises(ConfigurationError):
            run_estimate(gaussian4, order=5)
        with pytest.raises(ParameterDomainError):
            run_estimate(independent3, order=4)
        with pytest.raises(ConfigurationError):
            run_estimate(gaussian4, seed=-2)

    @pytest.mark.parametrize("order", [True, 3.0, np.float64(4.0)], ids=repr)
    def test_an_order_that_is_not_an_integer_is_refused(self, gaussian4, order):
        with pytest.raises(ConfigurationError, match="order must be 2, 3, or 4, got"):
            run_estimate(gaussian4, order=order)

    def test_a_numpy_integer_order_is_accepted(self, gaussian4, report4):
        assert run_estimate(gaussian4, seed=0, order=np.int64(4)).levels == report4.levels

    def test_every_construction_failing_raises(self, monkeypatch):
        import hoci.sci

        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 20_000, seed=3)
        real = hoci.sci.mi_estimate

        def never_reaches(x, y, cfg, columns=None):
            # the target reads a channel row; no surrogate column shares information
            return real(x, y, cfg, columns=columns) if np.shares_memory(x, m.data) else 0.0

        monkeypatch.setattr(hoci.sci, "mi_estimate", never_reaches)
        monkeypatch.setattr(hoci.sci, "MAX_ITERATIONS", 10)
        with pytest.raises(PipelineError) as exc:
            run_estimate(m, EstimatorConfig(method="binned"), seed=0, order=3)
        assert exc.value.code == "pipeline"
        for i in m.names:
            for j in m.names:
                if i != j:
                    assert f"({i},{j})" in str(exc.value)

    def test_identical_channels_are_excluded_not_reported(self):
        x = np.random.default_rng(192).standard_normal(20_000)
        m = ChannelMatrix(names=("a", "b", "c"), data=np.array([x, x, x]))
        with pytest.raises(PipelineError) as exc:
            run_estimate(m, seed=0, order=3)
        message = str(exc.value)
        for i in m.names:
            for j in m.names:
                if i != j:
                    assert f"({i},{j}): target MI is divergent" in message
        assert message.count("divergent") == 6

    def test_estimator_calls_match_the_report(self, monkeypatch):
        # the identity a traced benchmark run rebuilds from the report: an
        # engine that skips or adds estimator calls breaks it.  Four bins
        # put the noise channel's pairs below epsilon, so every exclusion
        # costs its one target call
        import hoci.pipeline
        import hoci.sci

        spec = GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4)
        data = sample_ensemble(spec, 20_000, seed=6).data
        noise = np.random.default_rng(7).standard_normal(20_000)
        m = ChannelMatrix(names=("a", "b", "c", "d", "e"), data=np.vstack([data, noise]))
        calls = []
        for module, name in (
            (hoci.pipeline, "mi_estimate"),
            (hoci.sci, "mi_estimate"),
            (hoci.sci, "mi_estimate_full"),
        ):
            fn = getattr(module, name)

            def counted(*args, _fn=fn, **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rep = run_estimate(m, EstimatorConfig(method="binned", bins=4), seed=0, order=4)
        n = m.n_channels
        pairs = [{d.base_channel, d.partner_channel} for d in rep.sci_descriptors]
        expected = (
            math.comb(n, 2)
            + sum(d.iterations + 1 for d in rep.sci_descriptors)
            + len(rep.exclusions)
            + (n - 2) * len(rep.sci_descriptors)
            + sum(1 for a, b in combinations(pairs, 2) if not a & b)
        )
        assert len(rep.sci_descriptors) == 12 and len(rep.exclusions) == 8
        assert len(calls) == expected


class TestGaussianLevelsFromCorrelations:
    """Under gaussian_logdet r3 and r4 are read off the sample correlations:
    no surrogate is sampled, and no estimator call is made past the pairs."""

    @staticmethod
    def _with_noise_channel():
        spec = GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4)
        data = sample_ensemble(spec, 20_000, seed=6).data
        noise = np.random.default_rng(7).standard_normal(20_000)
        return ChannelMatrix(names=("a", "b", "c", "d", "e"), data=np.vstack([data, noise]))

    @pytest.mark.parametrize("excluded", [0, 8])
    def test_only_the_pairwise_estimator_calls(self, monkeypatch, gaussian4, excluded):
        import hoci.pipeline
        import hoci.sci

        m = self._with_noise_channel() if excluded else gaussian4
        calls = []
        for module, name in (
            (hoci.pipeline, "mi_estimate"),
            (hoci.pipeline, "bidirectional_te_mi"),
            (hoci.pipeline, "build_sci"),
            (hoci.sci, "mi_estimate"),
            (hoci.sci, "mi_estimate_full"),
        ):
            fn = getattr(module, name)

            def counted(*args, _name=name, _fn=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rep = run_estimate(m, seed=0, order=4)
        assert len(rep.exclusions) == excluded
        assert rep.sci_descriptors == ()
        assert calls == ["mi_estimate"] * math.comb(m.n_channels, 2)

    def test_exclusions_are_those_of_tuning(self):
        # the same pairs, codes and messages as a tuned run on the same targets
        from hoci.errors import HociError
        from hoci.sci import build_sci

        m = self._with_noise_channel()
        rep = run_estimate(m, seed=0, order=3)
        want = []
        for i, j in permutations(range(m.n_channels), 2):
            try:
                build_sci(m.data[i], m.data[j], seed=0)
            except HociError as err:
                want.append(((m.names[i], m.names[j]), err.code, str(err)))
        assert [(e.pair, e.code, e.message) for e in rep.exclusions] == want
        assert len(want) == 8

    @pytest.mark.parametrize(
        "perm", [(3, 0, 4, 2, 1), (4, 3, 2, 1, 0), (1, 0, 2, 3, 4), (2, 4, 1, 0, 3)]
    )
    def test_levels_do_not_depend_on_column_order(self, perm):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=5), 20_000, seed=9)
        permuted = ChannelMatrix(tuple(m.names[p] for p in perm), m.data[list(perm)])
        want = run_estimate(m, seed=0, order=4).levels
        got = run_estimate(permuted, seed=0, order=4).levels
        assert [got[lvl].bits for lvl in got] == [want[lvl].bits for lvl in want]
        assert [set(got[lvl].channels) for lvl in got] == [set(want[lvl].channels) for lvl in want]

    def test_population_matrix_gives_the_construction_limits(self):
        # the exchangeable ensemble on the acceptance-1 grid: inter-channel
        # correlation r = delta_rho / delta, so every candidate reads r^4 (r3)
        # or r^6 (r4); r3's limit is r3_lower.  Near r = 1 both sides carry the
        # rounding of 1 - r^4 (r3_lower through delta1), about eps / (1 - r^4)
        # bits: 2.8e-11 bits at the grid's corner for r3_lower alone
        from hoci.gaussian import delta_quantities
        from hoci.pipeline import _correlation_levels

        eps = float(np.finfo(np.float64).eps)
        pairs = list(permutations(range(4), 2))
        worst = 0.0
        for sx2 in (0.1, 1.0, 10.0):
            for sn2 in np.geomspace(1e-3, 1e3, 61):
                for rho in np.linspace(-0.9, 0.99, 201):
                    spec = GaussianEnsembleSpec(sx2, float(sn2), float(rho))
                    d = delta_quantities(spec)
                    r = d.delta_rho / d.delta
                    rsq = np.full((4, 4), r * r)
                    np.fill_diagonal(rsq, 1.0)
                    best, mean3 = _correlation_levels(rsq, pairs, 4)
                    assert best[3][0] == (0, 1, 2) and best[4][0] == (0, 1, 2, 3)
                    r4_limit = -0.5 * math.log2(1.0 - r**6)
                    err = max(
                        abs(best[3][1] - r3_lower(spec)),
                        abs(mean3 - r3_lower(spec)),
                        abs(best[4][1] - r4_limit),
                    )
                    worst = max(worst, err / (1e-12 + 4.0 * eps / (1.0 - r**4)))
        assert worst <= 1.0

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_minima_follow_the_sampled_scan_order(self, monkeypatch, block):
        # a loop over the sampled scans' candidates, in their order, is the
        # reference; a small block forces the r4 minimum across many blocks
        import hoci.pipeline
        from hoci.pipeline import _correlation_levels

        if block is not None:
            monkeypatch.setattr(hoci.pipeline, "_R4_BLOCK", block)
        rng = np.random.default_rng(3)
        n = 6
        rsq = rng.uniform(0.05, 0.9, (n, n))
        rsq = np.triu(rsq, 1) + np.triu(rsq, 1).T + np.eye(n)
        pairs = [p for p in permutations(range(n), 2) if p not in {(0, 3), (4, 1), (5, 2)}]

        def bits(p):
            return math.log1p(-p) * (-0.5 / math.log(2.0))

        r3 = [
            ((i, j, k), bits(rsq[i, j] * rsq[j, k]))
            for (i, j), k in product(pairs, range(n))
            if k not in (i, j)
        ]
        r4 = [
            ((i, j, k, m), bits(rsq[j, m] * (rsq[i, j] * rsq[k, m])))
            for (i, j), (k, m) in combinations(pairs, 2)
            if not {i, j} & {k, m}
        ]
        best, mean3 = _correlation_levels(rsq, pairs, 4)
        for lvl, candidates in ((3, r3), (4, r4)):
            idx, value = min(candidates, key=lambda c: c[1])
            assert best[lvl][0] == idx
            assert best[lvl][1] == pytest.approx(value, abs=1e-15)
        assert mean3 == pytest.approx(math.fsum(v for _, v in r3) / len(r3), abs=1e-15)

    def test_no_surrogate_and_no_disjoint_pair(self):
        from hoci.pipeline import _correlation_levels

        rsq = np.full((4, 4), 0.25)
        assert _correlation_levels(rsq, [], 4) == ({3: None, 4: None}, 0.0)
        best, _ = _correlation_levels(rsq, [(0, 1), (1, 0), (2, 1)], 4)
        assert best[3] is not None and best[4] is None


class TestAgainstClosedFormsAcrossParameters:
    """The estimated bounds track the model across a small parameter sweep."""

    @pytest.mark.parametrize("sn2,rho", [(1.0, 0.0), (5.0, 0.3), (5.0, 0.5)])
    def test_r2_and_r3_follow_the_model(self, sn2, rho):
        spec = GaussianEnsembleSpec(1.0, sn2, rho, n=3)
        m = sample_ensemble(spec, 100_000, seed=int(sn2 * 10 + rho * 100))
        rep = run_estimate(m, seed=1, order=3)
        r2_true = mi_xi_xj(spec)
        r3_true = r3_lower(spec)
        assert rep.levels[2].bits == pytest.approx(r2_true, abs=max(0.1 * r2_true, 0.01))
        assert rep.levels[3].bits == pytest.approx(
            r3_true, abs=max(0.15 * r3_true, 0.02)
        )
        assert rep.chain_ok


class TestChannelMatrix:
    def test_names_checked_by_position(self):
        data = np.random.default_rng(0).standard_normal((3, 40))
        with pytest.raises(DegenerateInputError, match="row 2 has an empty channel name"):
            ChannelMatrix(names=("a", "", "c"), data=data)
        with pytest.raises(DegenerateInputError, match=r"duplicate channel name 'a' \(rows 1 and 3\)"):
            ChannelMatrix(names=("a", "b", "a"), data=data)

    def test_standardized_holds_one_working_copy(self):
        import tracemalloc

        m = ChannelMatrix(
            names=tuple("abcdefgh"), data=np.random.default_rng(1).standard_normal((8, 200_000))
        )
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = m.standardized()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the result (and the deviations before it), not also a copy of the result
        assert peak <= 1.25 * m.data.nbytes
        assert not out.data.flags.writeable and out.data.flags.c_contiguous

    def test_rescaling_standardized_holds_two_working_copies(self):
        import tracemalloc

        data = 1e-200 * np.random.default_rng(1).standard_normal((8, 200_000))
        m = ChannelMatrix(names=tuple("abcdefgh"), data=data)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = m.standardized()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # every channel is rescaled: the rescaled copy and one working copy
        assert peak < 2.5 * m.data.nbytes
        assert not out.data.flags.writeable and out.data.flags.c_contiguous

    def test_matrix_holds_its_own_copy(self):
        data = np.random.default_rng(2).standard_normal((3, 40))
        m = ChannelMatrix(names=("a", "b", "c"), data=data)
        data[0, 0] = 99.0
        assert m.data[0, 0] != 99.0 and not m.data.flags.writeable
        assert not np.shares_memory(m.standardized().data, m.data)

    @pytest.mark.parametrize(
        "names,data,message",
        [
            (("a",), np.ones(40), "must be 2-D"),
            (("a", "b"), np.ones((3, 40)), "2 names for 3 channel rows"),
            (("a", "b"), np.array([[1.0] * 39 + [np.nan], [2.0] * 40]), "non-finite entries"),
        ],
        ids=["1-D", "name-count", "non-finite"],
    )
    def test_unusable_data_is_degenerate(self, names, data, message):
        with pytest.raises(DegenerateInputError, match=message):
            ChannelMatrix(names=names, data=data)

    @pytest.mark.parametrize("names, pos", [((1, 2, 3), 1), (("a", b"b", "c"), 2)], ids=["int", "bytes"])
    def test_names_that_are_not_text_are_refused(self, names, pos):
        data = np.random.default_rng(4).standard_normal((3, 40))
        with pytest.raises(DegenerateInputError, match=f"row {pos} has a channel name that is not text"):
            ChannelMatrix(names=names, data=data)
        # a numpy string is a str
        assert ChannelMatrix(names=tuple(np.array(["a", "b", "c"])), data=data).names == ("a", "b", "c")

    def test_index_of_refuses_unknown_names_and_outside_indices(self):
        m = ChannelMatrix(names=("a", "b"), data=np.random.default_rng(3).standard_normal((2, 40)))
        assert (m.index_of("b"), m.index_of(np.int64(0))) == (1, 0)
        with pytest.raises(ConfigurationError, match="unknown channel 'z'"):
            m.index_of("z")
        for idx in (2, -1):
            with pytest.raises(ConfigurationError, match=f"channel index {idx} out of range"):
                m.index_of(idx)


class TestStandardizedExtremes:
    """The constant-channel check reads each channel's min and max; sample-major
    data is reduced in blocks of samples, exact as numpy's per-row reduction."""

    SAMPLES = [1, 40, _EXTREMES_BLOCK - 1, _EXTREMES_BLOCK, 3 * _EXTREMES_BLOCK + 17]

    @staticmethod
    def _data(n, samples, layout):
        rng = np.random.default_rng([n, samples])
        data = rng.standard_normal((n, samples)) * 10.0 ** rng.integers(-300, 300, (n, 1))
        data[:, -1] = np.where(rng.integers(0, 2, n) == 1, 1e308, -1e308)  # in the leftover samples
        data = np.asfortranarray(data) if layout == "sample-major" else np.ascontiguousarray(data)
        assert data.flags.c_contiguous == (layout == "channel-major" or n == 1 or samples == 1)
        return data

    @pytest.mark.parametrize("layout", ["sample-major", "channel-major"])
    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_extremes_equal_numpys(self, n, samples, layout):
        data = self._data(n, samples, layout)
        lo, hi = _extremes(data)
        assert np.array_equal(lo, data.min(axis=1))
        assert np.array_equal(hi, data.max(axis=1))

    @pytest.mark.parametrize("layout", ["sample-major", "channel-major"])
    @pytest.mark.parametrize("samples", SAMPLES[1:])
    def test_constant_channel_message(self, samples, layout):
        data = self._data(4, samples, layout)
        data[2] = 0.1  # its mean rounds off the value
        with pytest.raises(
            DegenerateInputError, match="^channel 'c' is constant and cannot be standardized$"
        ):
            ChannelMatrix(("a", "b", "c", "d"), data).standardized()

    @pytest.mark.parametrize("where", [0, 2 * _EXTREMES_BLOCK + 5, -1])  # first, last whole, leftover
    def test_one_differing_sample_is_seen_in_any_block(self, where):
        data = self._data(4, 3 * _EXTREMES_BLOCK + 17, "sample-major")
        data[2] = 0.1
        data[2, where] = 0.2
        out = ChannelMatrix(("a", "b", "c", "d"), data).standardized()
        assert np.isfinite(out.data).all()


class TestLargeFiniteChannels:
    """Channels whose squared deviations overflow float64 are estimated and
    standardized after an exact power-of-two rescaling, not refused."""

    @pytest.fixture(scope="class")
    def unit4(self):
        return sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=3)

    @pytest.fixture(scope="class")
    def huge4(self, unit4):
        return ChannelMatrix(unit4.names, unit4.data * 1e160)

    def test_order_2_keeps_the_unit_scale_value(self, unit4, huge4):
        want = run_estimate(unit4, order=2).levels[2]
        got = run_estimate(huge4, order=2).levels[2]
        assert got.channels == want.channels
        assert got.bits == pytest.approx(want.bits, abs=1e-12)

    def test_order_3_keeps_the_unit_scale_levels(self, unit4, huge4):
        # gaussian_logdet reads r3 off the correlations, which a scale moves
        # only in the last digits; it tunes no surrogate in the caller's units
        want = run_estimate(unit4, order=3)
        got = run_estimate(huge4, order=3)
        assert got.sci_descriptors == ()
        for lvl in (2, 3):
            assert got.levels[lvl].channels == want.levels[lvl].channels
            assert got.levels[lvl].bits == pytest.approx(want.levels[lvl].bits, abs=1e-12)

    def test_standardized_accepts_huge_channels(self, unit4, huge4):
        np.testing.assert_allclose(
            huge4.standardized().data, unit4.standardized().data, rtol=0.0, atol=1e-12
        )

    def test_knn_run_estimate_stays_close_to_unit_scale(self, unit4, huge4):
        # knn once divided by the infinite deviation and reported r2 = 0 bits
        knn = EstimatorConfig(method="knn")
        want = run_estimate(unit4, knn, order=2).levels[2].bits
        assert run_estimate(huge4, knn, order=2).levels[2].bits == pytest.approx(want, abs=1e-4)


class TestTinyFiniteChannels:
    """Channels whose squared deviations underflow float64 are standardized
    after an exact power-of-two rescaling, not read as constant."""

    @pytest.fixture(scope="class")
    def unit4(self):
        return sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=3)

    def test_standardized_accepts_tiny_channels(self, unit4):
        want = unit4.standardized().data
        tiny = ChannelMatrix(unit4.names, unit4.data * 1e-200).standardized().data
        np.testing.assert_allclose(tiny, want, rtol=0.0, atol=1e-12)
        # a power-of-two scale is exact, so the rescaled rows match bit for bit
        exact = ChannelMatrix(unit4.names, unit4.data * 2.0**-600).standardized().data
        assert np.array_equal(exact, want)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_other_channels_keep_their_bits(self, unit4, layout):
        data = np.array(unit4.data, order=layout)
        tiny = data.copy(order="K")
        tiny[2] *= 2.0**-600
        want = ChannelMatrix(unit4.names, data).standardized().data
        got = ChannelMatrix(unit4.names, tiny).standardized().data
        assert np.array_equal(got, want)

    def test_tiny_constant_channel_still_raises(self, unit4):
        data = unit4.data.copy()
        data[1] = 1e-200
        with pytest.raises(DegenerateInputError, match="channel 'x2' is constant"):
            ChannelMatrix(unit4.names, data).standardized()

    def test_run_estimate_keeps_the_unit_scale_value(self, unit4):
        tiny = ChannelMatrix(unit4.names, unit4.data * 1e-200)
        want = run_estimate(unit4, order=2).levels[2]
        got = run_estimate(tiny, order=2).levels[2]
        assert got.channels == want.channels
        assert got.bits == pytest.approx(want.bits, abs=1e-12)


class TestConstantByRange:
    """A channel of 2000 copies of 0.1 (mean one ulp off, std 1.4e-17) is
    constant, not a channel of -1.0s or a -0.0-bit pair."""

    @pytest.fixture(scope="class")
    def flat_b(self):
        data = np.random.default_rng(0).standard_normal((4, 2000))
        data[1] = 0.1
        return ChannelMatrix(("a", "b", "c", "d"), data)

    def test_standardized_raises(self, flat_b):
        with pytest.raises(DegenerateInputError, match="channel 'b' is constant"):
            flat_b.standardized()

    def test_run_estimate_names_the_pair(self, flat_b):
        with pytest.raises(
            DegenerateInputError,
            match=r"channel pair \(a, b\): correlation undefined for a constant column",
        ):
            run_estimate(flat_b, order=2)


POWER_OF_TWO_SCALES = [-900, -700, -540, 540, 700, 900, 1000]


class TestPowerOfTwoScale:
    """Scaling every channel by 2**k moves no bit of a result: a column
    statistic that is not a finite float64 at or above UNDERFLOW_SPREAD is
    taken again after unit_scaled's power of two.  knn hashes the raw bytes
    for its tie-breaking jitter, so only its last digits move."""

    @pytest.fixture(scope="class")
    def unit4(self):
        return sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=3)

    @pytest.mark.parametrize("method", ["gaussian_logdet", "binned", "knn"])
    @pytest.mark.parametrize("k", POWER_OF_TWO_SCALES)
    def test_estimates_match_the_unit_scale(self, unit4, method, k):
        cfg = EstimatorConfig(method=method)
        scaled = ChannelMatrix(unit4.names, np.ldexp(unit4.data, k))

        def estimates(m):
            x, y = m.data[0], m.data[1]
            levels = run_estimate(m, cfg, order=2).levels[2]
            return [mi_estimate(x, y, cfg), bidirectional_te_mi(x, y, cfg), levels.bits]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = estimates(scaled)
        tol = 1e-4 if method == "knn" else 0.0
        assert got == pytest.approx(estimates(unit4), rel=0.0, abs=tol)

    @pytest.mark.parametrize("k", POWER_OF_TWO_SCALES)
    def test_standardization_and_lag_scan_match_the_unit_scale(self, unit4, k):
        scaled = ChannelMatrix(unit4.names, np.ldexp(unit4.data, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = scaled.standardized().data
            lag = lag_max_correlation(scaled.data[0], scaled.data[1], 0, 5, sample_rate_hz=1.0)
        assert np.array_equal(data, unit4.standardized().data)
        assert lag == lag_max_correlation(unit4.data[0], unit4.data[1], 0, 5, sample_rate_hz=1.0)


class TestPreparedColumns:
    """One table per run: each channel row and each accepted surrogate is
    prepared once, and the table moves no bit."""

    def test_each_row_and_surrogate_is_prepared_once(self, monkeypatch):
        import hoci.estimators
        import hoci.pipeline

        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=5), 3000, seed=4)
        prepared = []
        prepare = hoci.estimators._prepare

        def counted(a, cfg, name):
            prepared.append(a.tobytes())
            return prepare(a, cfg, name)

        surrogates = []
        build = hoci.pipeline.build_sci

        def kept(*args, **kwargs):
            desc, t = build(*args, **kwargs)
            surrogates.append(t)
            return desc, t

        monkeypatch.setattr(hoci.estimators, "_prepare", counted)
        monkeypatch.setattr(hoci.pipeline, "build_sci", kept)
        rep = run_estimate(m, EstimatorConfig(method="binned"), order=4, seed=1)
        assert len(surrogates) == 20 and not rep.exclusions
        counts = Counter(prepared)
        assert [counts[row.tobytes()] for row in m.data] == [1] * 5
        assert [counts[t.tobytes()] for t in surrogates] == [1] * 20
        # the rest are the tuning candidates, one preparation per tuning call
        assert len(prepared) == 5 + sum(d.iterations for d in rep.sci_descriptors)

    @pytest.mark.parametrize("method", ["gaussian_logdet", "binned", "knn"])
    def test_tuning_with_a_table_changes_no_bit(self, method):
        from hoci.estimators import PreparedColumns
        from hoci.sci import build_sci

        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 2000, seed=8)
        cfg = EstimatorConfig(method=method)
        xi, xj = m.data[0], m.data[2]
        want_desc, want_t = build_sci(xi, xj, cfg, seed=3)
        table = PreparedColumns(cfg, (xi, xj))
        desc, t = build_sci(xi, xj, cfg, seed=3, columns=table)
        assert desc == want_desc and np.array_equal(t, want_t)


class TestSurrogateTuningAtExtremeScales:
    """Direct library calls skip ingest's standardization, so surrogate
    tuning sees the caller's scale: the bisection midpoint must neither
    overflow nor underflow, and a carrier variance that is not a normal
    float64 raises, naming the pair, instead of drifting."""

    @staticmethod
    def _scaled(scale, n=4, samples=5000):
        m = sample_ensemble(GaussianEnsembleSpec(1, 1, 0.3, n=n), samples, seed=3)
        return ChannelMatrix(m.names, m.data * scale)

    @pytest.mark.parametrize("scale", [1e-150, 1e100, 1e150])
    def test_binned_keeps_the_unit_scale_levels(self, scale):
        cfg = EstimatorConfig(method="binned")
        want = run_estimate(self._scaled(1.0), cfg, order=3, seed=1)
        got = run_estimate(self._scaled(scale), cfg, order=3, seed=1)
        assert got.levels == want.levels

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_knn_stays_close_to_the_unit_scale_levels(self, scale):
        import hoci.sci

        # the tie-breaking jitter hashes the raw bytes, so the last digits of
        # each estimate move, and each surrogate within the tuning resolution
        cfg = EstimatorConfig(method="knn")
        want = run_estimate(self._scaled(1.0, n=3, samples=2000), cfg, order=3, seed=1)
        got = run_estimate(self._scaled(scale, n=3, samples=2000), cfg, order=3, seed=1)
        assert got.levels[2].bits == pytest.approx(want.levels[2].bits, abs=1e-4)
        assert got.levels[3].bits == pytest.approx(
            want.levels[3].bits, abs=hoci.sci.EPSILON
        )

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_gaussian_keeps_the_unit_scale_levels(self, scale):
        # no surrogate is tuned under gaussian_logdet, so no carrier variance is taken
        want = run_estimate(self._scaled(1.0), order=4, seed=1)
        got = run_estimate(self._scaled(scale), order=4, seed=1)
        assert got.sci_descriptors == ()
        for lvl in (2, 3, 4):
            assert got.levels[lvl].channels == want.levels[lvl].channels
            assert got.levels[lvl].bits == pytest.approx(want.levels[lvl].bits, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    @pytest.mark.parametrize("method", ["binned", "knn"])
    def test_subnormal_carrier_variance_names_the_pair(self, method, scale):
        with pytest.raises(
            DegenerateInputError,
            match=r"channel pair \(x1, x2\): carrier variance .* is not a normal float64",
        ):
            run_estimate(self._scaled(scale), EstimatorConfig(method=method), order=3, seed=1)
