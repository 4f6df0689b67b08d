"""Noise-injection construction: analytic variances, the safeguarded tuner,
and the defining-inequality verifier."""

import json
import math
from dataclasses import asdict
from itertools import permutations

import numpy as np
import pytest

import hoci.sci
from hoci import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    EstimatorConfig,
    GaussianEnsembleSpec,
    NoCommonInformationError,
    ParameterDomainError,
    analytic_sci_variance,
    build_ensemble,
    build_sci,
    mi_estimate,
    mmse_coefficients,
    run_estimate,
    sample_channels,
    sample_ensemble,
    verify_sci,
)
from hoci.cli import ingest_csv, main


# mean tuning calls per surrogate that the search aims for (bisection took 12
# on the discrete construction and 21 with knn)
CALLS_PER_SURROGATE = 6


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

    def test_columns_are_checked_as_an_estimator_pair(self, ensemble_unit):
        m = ensemble_unit
        with pytest.raises(DegenerateInputError, match="x must be a 1-D sample column"):
            build_sci(m.data[:2].T, m.data[0], seed=1)
        with pytest.raises(DegenerateInputError, match="length mismatch: 100 vs 99"):
            build_sci(m.data[0][:100], m.data[1][:99], seed=1)

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


class TestClosedFormTuning:
    """Under gaussian_logdet the variance is solved, then checked with one call."""

    @staticmethod
    def _counting(monkeypatch):
        import hoci.sci

        calls = []
        for name in ("mi_estimate", "mi_estimate_full"):
            fn = getattr(hoci.sci, name)

            def counted(*args, _fn=fn, **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(hoci.sci, name, counted)
        return calls

    def test_one_call_solves_the_variance(self, ensemble_unit, monkeypatch):
        m = ensemble_unit
        target = mi_estimate(m.data[1], m.data[0])
        calls = self._counting(monkeypatch)
        desc, _ = build_sci(m.data[1], m.data[0], seed=5)
        assert len(calls) == 2  # the target, then the check
        assert desc.iterations == 1
        assert desc.residual < 1e-9
        expected = float(np.var(m.data[0])) / math.expm1(2.0 * target * math.log(2.0))
        assert desc.noise_variance == pytest.approx(expected, rel=1e-12)

    def test_missed_check_falls_back_to_bisection(self, ensemble_unit, monkeypatch):
        import hoci.sci

        m = ensemble_unit
        closed, _ = build_sci(m.data[1], m.data[0], seed=5)
        real = hoci.sci.mi_estimate
        calls = []

        def check_call_off(t, carrier, cfg, columns=None):
            calls.append(None)
            # the first call is the target MI, the second the closed-form check
            return real(t, carrier, cfg) + (1.0 if len(calls) == 2 else 0.0)

        monkeypatch.setattr(hoci.sci, "mi_estimate", check_call_off)
        desc, _ = build_sci(m.data[1], m.data[0], seed=5)
        assert desc.iterations == len(calls) - 1 > 1
        assert desc.residual < 1e-3
        assert desc.noise_variance == pytest.approx(closed.noise_variance, rel=0.01)

    def test_binned_still_bisects(self, ensemble_unit):
        m = ensemble_unit
        desc, _ = build_sci(m.data[1], m.data[0], EstimatorConfig(method="binned"), seed=5)
        assert desc.iterations > 1
        assert desc.residual < 1e-3


def _spy(monkeypatch, step=None):
    """Record every (column, bits) that build_sci's estimator returns; with
    ``step``, every call after the first (the target) reads the nearest
    point of a grid of that step whose points lie half a step off the target."""
    import hoci.sci

    real = hoci.sci.mi_estimate
    seen = []

    def spy(x, y, cfg, columns=None):
        bits = real(x, y, cfg, columns=columns)
        if step is not None and seen:
            off = seen[0][1] + 0.5 * step
            bits = off + round((bits - off) / step) * step
        seen.append((x, bits))
        return bits

    monkeypatch.setattr(hoci.sci, "mi_estimate", spy)
    return seen


class TestSafeguardedSearch:
    """binned and knn tune by a bracketed root search from the closed form."""

    @pytest.mark.parametrize("method", ["binned", "knn"])
    def test_accepted_variance_lies_in_a_closed_bracket(self, monkeypatch, method):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 4000, seed=12)
        seen = _spy(monkeypatch)
        desc, t = build_sci(m.data[1], m.data[0], EstimatorConfig(method=method), seed=4)
        (_, target), tuning = seen[0], seen[1:]
        assert len(tuning) == desc.iterations
        assert tuning[-1][0] is t  # the accepted column is the last one evaluated
        assert abs(tuning[-1][1] - target) == desc.residual < hoci.sci.EPSILON
        v = desc.noise_variance
        assert float(np.var(t - m.data[0])) == pytest.approx(v, rel=1e-9)
        tried = [(float(np.var(x - m.data[0])), bits) for x, bits in tuning]
        lo = max(w for w, bits in tried if bits >= target and w <= v * (1 + 1e-9))
        hi = min(w for w, bits in tried if bits < target and w >= v * (1 - 1e-9))
        assert lo <= v * (1 + 1e-9) and hi >= v * (1 - 1e-9)
        assert hi / lo < 1.005

    @pytest.mark.parametrize(
        "cfg, channels",
        [
            pytest.param(
                EstimatorConfig(method="binned", bins=128),
                lambda: sample_channels(build_ensemble(4, (0.5, 0.5)), 50_000, seed=1),
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="about 6.3 calls: the binned MI of the discrete construction is "
                    "flat at its target, so the last approach step often lands a few "
                    "epsilon off and needs one more call",
                ),
            ),
            (
                EstimatorConfig(method="knn"),
                lambda: sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=2),
            ),
        ],
    )
    def test_few_calls_per_surrogate(self, cfg, channels):
        rep = run_estimate(channels().standardized(), cfg, seed=44, order=3)
        calls = [d.iterations for d in rep.sci_descriptors]
        assert len(calls) == 12 and not rep.exclusions
        assert sum(calls) / len(calls) <= CALLS_PER_SURROGATE

    @pytest.mark.parametrize(
        "method",
        [
            pytest.param(
                "binned",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="74/12 = 6.17 calls: the last approach step re-estimates beside "
                    "a measured bracket end instead of accepting it",
                ),
            ),
            "knn",
        ],
    )
    def test_few_calls_per_surrogate_on_the_parity_input(self, parity_input, method):
        # the CI step's input and run: the seeded parity rows.csv, run seed 0, order 3
        rep = run_estimate(ingest_csv(str(parity_input.rows)), EstimatorConfig(method=method), seed=0, order=3)
        calls = [desc.iterations for desc in rep.sci_descriptors]
        assert calls and all(desc.residual < hoci.sci.EPSILON for desc in rep.sci_descriptors)
        assert sum(calls) / len(calls) <= CALLS_PER_SURROGATE, calls

    def test_a_stepped_estimator_is_not_accepted(self, monkeypatch):
        # MI read in 0.01-bit steps that straddle the target never comes within
        # epsilon of it: the search must fail, not accept a point off the target
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 4000, seed=12)
        seen = _spy(monkeypatch, step=0.01)
        with pytest.raises(ConvergenceError):
            build_sci(m.data[1], m.data[0], EstimatorConfig(method="binned"), seed=4)
        target = seen[0][1]
        assert min(abs(bits - target) for _, bits in seen[1:]) > 0.004

    def test_a_probe_across_a_jump_steps_back_beside_the_point(self, monkeypatch):
        # MI that jumps from just above the target to 0.01 bits below it 0.2 %
        # past the closed-form start: the start reads within epsilon, its probe
        # closes the bracket off epsilon, and the next call goes back beside the
        # start instead of bisecting onto the wrong side of the jump
        import hoci.sci

        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 4000, seed=12)
        carrier = m.data[0]
        real = hoci.sci.mi_estimate
        target = real(m.data[1], carrier, EstimatorConfig(method="binned"))
        v0 = float(np.var(carrier)) / math.expm1(2.0 * target * math.log(2.0))
        tried = []

        def jump(x, y, cfg, columns=None):
            if np.shares_memory(x, m.data):
                return real(x, y, cfg, columns=columns)
            tried.append(float(np.var(x - carrier)))
            return target + (0.0005 if tried[-1] <= 1.002 * v0 else -0.01)

        monkeypatch.setattr(hoci.sci, "mi_estimate", jump)
        desc, _ = build_sci(m.data[1], carrier, EstimatorConfig(method="binned"), seed=4)
        assert desc.iterations == len(tried) == 3
        assert tried[0] == pytest.approx(v0, rel=1e-9)
        assert tried[1] == pytest.approx(1.0045 * v0, rel=1e-9)
        assert desc.noise_variance == pytest.approx(tried[2], rel=1e-9)
        assert v0 < tried[2] < 1.00001 * v0
        assert desc.residual == pytest.approx(0.0005)


def _reads_above(monkeypatch, rows, bits_above, carriers=None):
    """Patch build_sci's estimator: a channel row (the target call) reads
    true, every surrogate on one of ``carriers`` (default: any row) reads
    ``bits_above`` over its pair's target.  Returns the surrogate calls."""
    import hoci.sci

    real = hoci.sci.mi_estimate
    targets, surrogate_calls = [], []

    def above(x, y, cfg, columns=None):
        if np.shares_memory(x, rows):
            targets.append(real(x, y, cfg, columns=columns))
            return targets[-1]
        if carriers is not None and not np.shares_memory(y, carriers):
            return real(x, y, cfg, columns=columns)
        surrogate_calls.append(None)
        return targets[-1] + bits_above

    monkeypatch.setattr(hoci.sci, "mi_estimate", above)
    return surrogate_calls


class TestUnreachableTarget:
    """A target the surrogate MI never reaches ends in a ConvergenceError,
    which a pipeline run records as an exclusion."""

    @pytest.mark.parametrize(
        "method, bits_above, max_iterations",
        [
            # MI that settles just above the target, as at an estimator's bias floor
            ("binned", 0.01, 60),
            ("knn", 0.01, 60),
            # MI that never rises to the target
            ("binned", -10.0, 10),
        ],
    )
    def test_an_unreached_target_spends_the_budget(
        self, monkeypatch, method, bits_above, max_iterations
    ):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 4000, seed=12)
        calls = _reads_above(monkeypatch, m.data, bits_above)
        monkeypatch.setattr(hoci.sci, "MAX_ITERATIONS", max_iterations)
        with pytest.raises(ConvergenceError, match=f"exceeded {max_iterations} iterations"):
            build_sci(m.data[1], m.data[0], EstimatorConfig(method=method), seed=4)
        assert len(calls) == max_iterations  # every call the budget allows

    def test_a_binary_carrier_near_its_bias_floor_is_unreachable(self):
        # as v grows, the binned MI of a two-valued carrier levels off at the
        # estimator's bias, about 0.003 bits above this 0.0012-bit target: the
        # search must end in the unreachable error, not overflow the variance
        g = np.random.default_rng([2, 48, 1])
        c = g.integers(0, 2, 4000).astype(float)
        p = np.where(g.random(4000) < 0.96, g.integers(0, 2, 4000), c).astype(float)
        p += 0.01 * g.standard_normal(4000)
        with pytest.raises(ConvergenceError, match="unreachable"):
            build_sci(p, c, EstimatorConfig(method="binned"), seed=1)

    @pytest.mark.parametrize("bits_above", [1.0, -10.0])
    def test_a_search_leaving_the_float_range_is_unreachable(self, monkeypatch, bits_above):
        # steps of at most _MAX_REACH in ln v reach either end of the float64
        # range well inside a budget of 200 calls
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 4000, seed=12)
        calls = _reads_above(monkeypatch, m.data, bits_above)
        monkeypatch.setattr(hoci.sci, "MAX_ITERATIONS", 200)
        with pytest.raises(ConvergenceError, match="left the normal float64 range"):
            build_sci(m.data[1], m.data[0], EstimatorConfig(method="binned"), seed=4)
        assert 80 < len(calls) < 200

    @pytest.mark.parametrize("bits_above, max_iterations", [(0.01, 60), (1.0, 200)])
    def test_pipeline_excludes_the_pair(self, monkeypatch, bits_above, max_iterations):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3), 4000, seed=12)
        _reads_above(monkeypatch, m.data, bits_above, carriers=m.data[0])
        monkeypatch.setattr(hoci.sci, "MAX_ITERATIONS", max_iterations)
        rep = run_estimate(m, EstimatorConfig(method="binned"), seed=0, order=3)
        excluded = {e.pair: e for e in rep.exclusions}
        assert set(excluded) == {(m.names[1], m.names[0]), (m.names[2], m.names[0])}
        assert all(e.code == ConvergenceError.code for e in excluded.values())
        assert all("unreachable" in e.message for e in excluded.values())
        assert len(rep.sci_descriptors) == 4
        assert rep.levels[3].bits > 0


class TestBinEdgeChannels:
    """A binned run on channels whose every value lies on a bin edge."""

    @staticmethod
    def _coded_channels():
        # radix-3 place values of two of three ternary symbols: every value is an
        # integer in [0, 8], on an edge of 128 equal-width bins; a = z0 + 3 z1 and
        # d = z1 + 3 z0 code each other's bins, so MI(a; d) is either one's entropy
        from hoci import ChannelMatrix

        z = np.random.default_rng(13).integers(0, 3, size=(3, 20_000))
        pairs = ((0, 1), (1, 2), (2, 0), (1, 0))
        d = np.array([z[a] + 3 * z[b] for a, b in pairs], dtype=np.float64)
        return ChannelMatrix(("a", "b", "c", "d"), d).standardized()

    def test_levels_and_descriptors_keep_their_bits(self):
        rep = run_estimate(self._coded_channels(), EstimatorConfig(method="binned", bins=128), seed=0, order=4)
        # the pairs at the carrier's entropy spend their budget without closing a bracket
        assert [(e.pair, e.code) for e in rep.exclusions] == [
            (("a", "d"), "convergence"), (("d", "a"), "convergence")
        ]
        assert {k: v.bits.hex() for k, v in rep.levels.items()} == {
            2: "0x1.95d05fbf3f787p+0", 3: "0x1.bc28e1e418d6ap-3", 4: "0x1.b962b2efc2926p-2"
        }
        assert [
            (s.partner_channel, s.base_channel, s.noise_variance.hex(), s.residual.hex(), s.iterations)
            for s in rep.sci_descriptors
        ] == [
            (0, 1, "0x1.ce9578afb881cp-4", "0x1.95a0fc8ddb000p-12", 5),
            (0, 2, "0x1.ca114bbfc88edp-4", "0x1.0272527a2e000p-12", 5),
            (1, 0, "0x1.cb2c80347c1fap-4", "0x1.ca1680f566800p-11", 5),
            (1, 2, "0x1.ca151c04fae7fp-4", "0x1.542bafcf9d000p-12", 5),
            (1, 3, "0x1.cac6572ef406ep-4", "0x1.c36961cb32000p-11", 5),
            (2, 0, "0x1.cb37ae12917d2p-4", "0x1.b5fb74e5b4000p-11", 5),
            (2, 1, "0x1.ce8cffe8d69dcp-4", "0x1.8ef81e2922000p-12", 5),
            (2, 3, "0x1.cac26220ae322p-4", "0x1.e352cce487000p-11", 5),
            (3, 1, "0x1.ce9578afb881cp-4", "0x1.95a0fc8ddb000p-12", 5),
            (3, 2, "0x1.ca114bbfc88f8p-4", "0x1.0272527a2d000p-12", 5),
        ]


def _knn_channels():
    return sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=2)


_CARRIER_CASES = [
    pytest.param(
        TestBinEdgeChannels._coded_channels, EstimatorConfig(method="binned", bins=128), id="binned"
    ),
    pytest.param(_knn_channels, EstimatorConfig(method="knn"), id="knn"),
]


class TestCarrierNoise:
    """Every surrogate injected into one carrier shares its noise, drawn once
    per run from the run seed and the carrier's name."""

    @pytest.mark.parametrize("channels, cfg", _CARRIER_CASES)
    def test_one_noise_draw_per_carrier(self, monkeypatch, channels, cfg):
        m = channels()
        draws = []
        draw = hoci.sci._orthogonal_unit_noise

        def counted(carrier, *args):
            draws.append(next(j for j, row in enumerate(m.data) if np.array_equal(row, carrier)))
            return draw(carrier, *args)

        monkeypatch.setattr(hoci.sci, "_orthogonal_unit_noise", counted)
        rep = run_estimate(m, cfg, seed=0, order=3)
        # n draws, not one per ordered pair; carriers in the order permutation
        # order first reaches them
        assert draws == [1, 2, 3, 0]
        seeds = {}
        for d in rep.sci_descriptors:
            seeds.setdefault(d.base_channel, set()).add(d.seed)
        assert sorted(seeds) == [0, 1, 2, 3]
        assert all(len(s) == 1 for s in seeds.values())
        assert len(set().union(*seeds.values())) == 4

    @pytest.mark.parametrize("channels, cfg", _CARRIER_CASES)
    def test_column_order_moves_no_surrogate(self, channels, cfg):
        m = channels()
        perm = [2, 0, 3, 1]
        shuffled = type(m)(tuple(m.names[p] for p in perm), m.data[perm])

        def surrogates(rep, names):
            return {
                (names[d.partner_channel], names[d.base_channel]): (
                    d.seed, d.noise_variance.hex(), d.residual.hex(), d.iterations
                )
                for d in rep.sci_descriptors
            }

        want = run_estimate(m, cfg, seed=3, order=3)
        got = run_estimate(shuffled, cfg, seed=3, order=3)
        assert len(want.sci_descriptors) >= 10
        assert surrogates(got, shuffled.names) == surrogates(want, m.names)
        excluded = [{(e.pair, e.code) for e in rep.exclusions} for rep in (got, want)]
        assert excluded[0] == excluded[1]
        assert got.levels[3].bits.hex() == want.levels[3].bits.hex()

    def test_sci_command_reproduces_every_descriptor(self, tmp_path, capsys):
        m = TestBinEdgeChannels._coded_channels()
        path = tmp_path / "coded.csv"
        rows = [",".join(map(repr, row)) for row in m.data.T.tolist()]
        path.write_text("\n".join([",".join(m.names), *rows]) + "\n")
        cfg = EstimatorConfig(method="binned", bins=128)
        rep = run_estimate(ingest_csv(str(path)), cfg, seed=0, order=4)
        descriptors = {(d.partner_channel, d.base_channel): asdict(d) for d in rep.sci_descriptors}
        excluded = {e.pair: e for e in rep.exclusions}
        assert len(descriptors) + len(excluded) == 12
        out = tmp_path / "sci.json"
        for i, j in permutations(range(4), 2):
            pair = (m.names[i], m.names[j])
            argv = ["sci", "--input", str(path), "--pair", ",".join(pair), "--estimator", "binned",
                    "--bins", "128", "--seed", "0", "--out", str(out)]
            capsys.readouterr()
            if pair in excluded:
                assert main(argv) == 1
                err = json.loads(capsys.readouterr().err.splitlines()[-1])
                assert err == {"error": excluded[pair].code, "message": excluded[pair].message}
            else:
                assert main(argv) == 0
                assert json.loads(out.read_text())["descriptor"] == descriptors[(i, j)]


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

    def test_length_mismatch_is_the_estimators_check(self, built):
        m, _, t = built
        with pytest.raises(DegenerateInputError, match=f"length mismatch: {t.size - 1} vs {t.size}"):
            verify_sci(t[:-1], m, 0, 1)
