"""Mutual-information estimators: exact identities, statistical accuracy on
synthetic data with known ground truth, and estimator-level invariants."""

import math

import numpy as np
import pytest

from hoci import (
    ChannelMatrix,
    ConfigurationError,
    DegenerateInputError,
    EstimatorConfig,
    GaussianEnsembleSpec,
    bidirectional_te_mi,
    delta_quantities,
    mi_estimate,
    mi_estimate_full,
    mi_estimate_joint,
    mi_xi_xj,
    sample_ensemble,
)
from hoci.estimators import _bin_index, _binned_mi, _pearson

GAUSSIAN = EstimatorConfig()
KNN = EstimatorConfig(method="knn", k=4)
BINNED = EstimatorConfig(method="binned", bins=16)


def correlated_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)
    return z[:, 0], z[:, 1]


class TestConfig:
    def test_defaults(self):
        cfg = EstimatorConfig()
        assert cfg.method == "gaussian_logdet"
        assert cfg.k == 4
        assert cfg.bins == 16
        assert cfg.ts_lag == 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EstimatorConfig(method="kernel")
        with pytest.raises(ConfigurationError):
            EstimatorConfig(k=0)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(bins=1)
        with pytest.raises(ConfigurationError):
            EstimatorConfig(ts_lag=0)


class TestExactIdentities:
    def test_gaussian_matches_correlation_formula(self):
        # the estimate must be exactly -1/2 log2(1 - r^2) for the sample r
        x, y = correlated_pair(0.4, 2000, seed=1)
        r = float(np.corrcoef(x, y)[0, 1])
        expected = -0.5 * math.log2(1.0 - r * r)
        assert mi_estimate(x, y, GAUSSIAN) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cfg,tol", [(GAUSSIAN, 0.0), (BINNED, 1e-12), (KNN, 1e-9)])
    def test_symmetry(self, cfg, tol):
        x, y = correlated_pair(0.4, 3000, seed=5)
        assert abs(mi_estimate(x, y, cfg) - mi_estimate(y, x, cfg)) <= tol

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN])
    def test_joint_width_one_reduces_to_pairwise(self, cfg):
        x, y = correlated_pair(0.3, 1500, seed=2)
        assert mi_estimate_joint(x[:, None], y, cfg) == mi_estimate(x, y, cfg)

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN])
    def test_self_pair_flagged(self, cfg):
        x = np.random.default_rng(3).standard_normal(1000)
        est = mi_estimate_full(x, x, cfg)
        assert est.self_pair
        assert est.bits > 2.0 or math.isinf(est.bits)

    def test_gaussian_self_pair_saturates(self):
        # the sample correlation of a column with itself can round to 1 - 2 ulp;
        # that must still read as divergent, not as ~25 finite bits
        for seed in range(200):
            x = np.random.default_rng(seed).standard_normal(1000)
            assert math.isinf(mi_estimate(x, x, GAUSSIAN)), seed

    def test_gaussian_near_identical_columns_stay_finite(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(20_000)
        bits = mi_estimate(x, x + 1e-7 * rng.standard_normal(x.size), GAUSSIAN)
        assert 20.0 < bits < math.inf

    def test_negative_raw_estimates_clamp_to_zero(self):
        rng = np.random.default_rng(1)  # known to give a negative knn raw value
        x, y = rng.standard_normal(1000), rng.standard_normal(1000)
        est = mi_estimate_full(x, y, KNN)
        assert est.raw_bits < 0.0
        assert est.clamped
        assert est.bits == 0.0


def _pearson_reference(x, y):
    # the np.mean / np.clip form that _pearson replaced; results must match bit for bit
    xc = x - x.mean()
    yc = y - y.mean()
    nx = float(np.sqrt(xc @ xc))
    ny = float(np.sqrt(yc @ yc))
    return float(np.clip((xc @ yc) / (nx * ny), -1.0, 1.0))


def _binned_negative_raw_pair():
    # an exact product distribution: the plug-in sum rounds slightly below 0
    rng = np.random.default_rng(0)
    a, b = rng.integers(1, 6, size=3), rng.integers(1, 6, size=4)
    xs = np.repeat(np.arange(3.0), a)
    ys = np.repeat(rng.uniform(0.0, 10.0, 4), b)
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


class TestLeanCall:
    """mi_estimate skips the self-pair flag but must equal the full result."""

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN])
    def test_matches_full_estimate(self, cfg):
        x, y = correlated_pair(0.4, 2000, seed=6)
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(1000), rng.standard_normal(1000)
        for a, b in ((x, y), (y, x), (x, x), (u, v)):
            assert mi_estimate(a, b, cfg) == mi_estimate_full(a, b, cfg).bits

    @pytest.mark.parametrize(
        "cfg,pair",
        [
            (KNN, lambda: tuple(np.random.default_rng(1).standard_normal((2, 1000)))),
            (EstimatorConfig(method="binned", bins=2), _binned_negative_raw_pair),
        ],
    )
    def test_clamped_estimate_matches_full(self, cfg, pair):
        x, y = pair()
        est = mi_estimate_full(x, y, cfg)
        assert est.raw_bits < 0.0 and est.clamped
        assert mi_estimate(x, y, cfg) == est.bits == 0.0

    def test_pearson_matches_reference_form(self):
        rng = np.random.default_rng(12)
        cm = ChannelMatrix(names=("a", "b", "c"), data=rng.standard_normal((5000, 3)).T)
        assert not cm.data[0].flags.c_contiguous
        x, y = correlated_pair(0.7, 3000, seed=13)
        cases = [
            (x, y),
            (x + 1e4, 3.0 * y - 250.0),
            (x, -x + 1e-3 * y),
            (x, -x),
            (x, x),
            (cm.data[0], cm.data[1]),
            (cm.data[2], cm.data[0] + cm.data[2]),
        ]
        for seed in range(200):
            r = np.random.default_rng(seed)
            n = int(r.integers(10, 500))
            a = r.standard_normal(n) * r.uniform(0.1, 100.0) + r.uniform(-1e3, 1e3)
            cases.append((a, r.uniform(-1.0, 1.0) * a + r.standard_normal(n)))
        for a, b in cases:
            got, want = _pearson(a, b), _pearson_reference(a, b)
            assert got == want and type(got) is type(want)


def _binned_mi_reference(x, y, bins):
    # the np.histogram2d form that the bincount kernel replaced; equal bit for bit
    counts, _, _ = np.histogram2d(x, y, bins=bins)
    p = counts / counts.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0.0
    return float((p[nz] * np.log2(p[nz] / (px @ py)[nz])).sum())


def _kernel_columns(kind, n, rng):
    if kind == "place_value":  # discrete-construction codes, radix 8
        z = rng.integers(0, 2, size=(3, n))
        return (z * 8.0 ** np.arange(3)[:, None]).sum(axis=0)
    if kind == "integer_grid":  # values land exactly on many edges
        return rng.integers(0, 33, size=n).astype(np.float64)
    if kind == "rounded_gaussian":
        return np.round(4.0 * rng.standard_normal(n))
    if kind == "constant":
        return np.full(n, 2.75)
    # coinciding edges: the linspace edges round onto the three sample values
    return 1e17 + 16.0 * rng.integers(0, 3, size=n)


class TestBinKernel:
    """_bin_index + bincount must reproduce numpy's histogram counts exactly."""

    KINDS = ["place_value", "integer_grid", "rounded_gaussian", "constant", "coinciding_edges"]

    @staticmethod
    def _counts2d(x, y, bins):
        cells = _bin_index(x, bins, "x") * bins + _bin_index(y, bins, "y")
        return np.bincount(cells, minlength=bins * bins).reshape(bins, bins).astype(np.float64)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bins", [2, 16, 128, 257])
    @pytest.mark.parametrize("n", [10, 50_000])
    def test_counts_equal_histogram2d(self, kind, bins, n):
        rng = np.random.default_rng([bins, n, len(kind)])
        x = _kernel_columns(kind, n, rng)
        for y in (_kernel_columns("place_value", n, rng), rng.standard_normal(n), x):
            want, _, _ = np.histogram2d(x, y, bins=bins)
            assert np.array_equal(self._counts2d(x, y, bins), want)
            assert np.array_equal(self._counts2d(y, x, bins), want.T)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bins", [2, 16])
    def test_counts_equal_histogramdd(self, kind, bins):
        rng = np.random.default_rng([bins, len(kind)])
        n = 5_000
        sample = np.column_stack(
            [_kernel_columns(kind, n, rng), _kernel_columns("place_value", n, rng),
             rng.standard_normal(n)]
        )
        want, _ = np.histogramdd(sample, bins=bins)
        idx = [_bin_index(sample[:, c], bins, f"c{c}") for c in range(3)]
        flat = np.ravel_multi_index(idx, (bins,) * 3)
        assert np.array_equal(np.bincount(flat, minlength=bins**3).reshape((bins,) * 3), want)

    def test_constant_beyond_half_unit_resolution(self):
        # +-0.5 does not widen 1e20, so numpy puts every sample on the right edge
        x = np.full(40, 1e20)
        y = np.random.default_rng(2).standard_normal(40)
        want, _, _ = np.histogram2d(x, y, bins=16)
        assert np.array_equal(self._counts2d(x, y, 16), want)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bins", [2, 16, 128])
    def test_mi_equals_histogram2d_form(self, kind, bins):
        rng = np.random.default_rng([7, bins, len(kind)])
        x = _kernel_columns(kind, 20_000, rng)
        for y in (x + rng.integers(0, 3, x.size), rng.standard_normal(x.size)):
            assert _binned_mi(x, y, bins) == _binned_mi_reference(x, y, bins)

    @pytest.mark.parametrize("where", ["x", "y", "block"])
    def test_range_beyond_float64_is_degenerate(self, where):
        wide = np.tile([-1.7e308, 1.7e308, 0.0, 1.0], 5)
        other = np.arange(20.0)
        cfg = EstimatorConfig(method="binned")
        with pytest.raises(DegenerateInputError, match="range too wide"):
            if where == "x":
                mi_estimate(wide, other, cfg)
            elif where == "y":
                mi_estimate(other, wide, cfg)
            else:
                mi_estimate_joint(np.column_stack([other, wide]), other, cfg)


class TestStatisticalAccuracy:
    def test_knn_close_to_parametric_truth(self):
        x, y = correlated_pair(0.5, 10_000, seed=42)
        truth = -0.5 * math.log2(1.0 - 0.25)
        assert mi_estimate(x, y, KNN) == pytest.approx(truth, abs=0.03)

    def test_binned_null_is_small(self):
        rng = np.random.default_rng(7)
        u, v = rng.uniform(size=10_000), rng.uniform(size=10_000)
        assert mi_estimate(u, v, BINNED) <= 0.05

    @pytest.mark.parametrize("cfg,tol", [(GAUSSIAN, 0.01), (KNN, 0.04)])
    def test_independent_null(self, cfg, tol):
        rng = np.random.default_rng(19)
        x, y = rng.standard_normal(10_000), rng.standard_normal(10_000)
        assert mi_estimate(x, y, cfg) <= tol

    def test_shuffling_destroys_information(self):
        x, y = correlated_pair(0.5, 10_000, seed=8)
        base = mi_estimate(x, y, GAUSSIAN)
        assert base > 0.15
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(y.size)
            assert mi_estimate(x, y[perm], GAUSSIAN) < base

    @pytest.mark.parametrize("cfg,slack", [(GAUSSIAN, 0.02), (KNN, 0.02)])
    def test_data_processing_inequality(self, cfg, slack):
        rng = np.random.default_rng(11)
        z = rng.multivariate_normal([0, 0], [[1, 0.6], [0.6, 1]], size=100_000)
        x, y = z[:, 0], z[:, 1]
        noise = rng.standard_normal(x.size)
        assert mi_estimate(x + noise, y, cfg) <= mi_estimate(x, y, cfg) + slack

    def test_monte_carlo_consistency_grid(self):
        # closed form vs large-sample estimate across model parameters
        for idx, (sn2, rho) in enumerate(
            (sn2, rho)
            for sn2 in (0.5, 1.0, 5.0)
            for rho in (-0.2, 0.0, 0.3, 0.6)
        ):
            spec = GaussianEnsembleSpec(1.0, sn2, rho)
            m = sample_ensemble(spec, 100_000, seed=100 + idx)
            est = mi_estimate(m.data[0], m.data[1], GAUSSIAN)
            truth = mi_xi_xj(spec)
            assert abs(est - truth) <= max(0.02 * truth, 0.01), (sn2, rho)


class TestJointBlocks:
    @staticmethod
    def _block_truth(spec):
        d = delta_quantities(spec)
        caa = np.array([[d.delta, d.delta_rho], [d.delta_rho, d.delta]])
        cfull = np.full((3, 3), d.delta_rho)
        np.fill_diagonal(cfull, d.delta)
        ld = lambda m: np.linalg.slogdet(m)[1] / math.log(2.0)
        return 0.5 * (ld(caa) + math.log2(d.delta) - ld(cfull))

    @pytest.mark.parametrize("cfg,tol", [(GAUSSIAN, 0.03), (KNN, 0.05)])
    def test_two_column_block_against_log_det_truth(self, cfg, tol):
        spec = GaussianEnsembleSpec(1.0, 1.0, 0.3, n=3)
        m = sample_ensemble(spec, 10_000, seed=9)
        est = mi_estimate_joint(m.data[:2].T, m.data[2], cfg)
        assert est == pytest.approx(self._block_truth(spec), abs=tol)

    def test_duplicated_column_is_degenerate(self):
        x, y = correlated_pair(0.3, 2000, seed=4)
        block = np.column_stack([x, x])
        with pytest.raises(DegenerateInputError):
            mi_estimate_joint(block, y, GAUSSIAN)

    def test_binned_joint_runs(self):
        spec = GaussianEnsembleSpec(1.0, 1.0, 0.5, n=3)
        m = sample_ensemble(spec, 20_000, seed=12)
        cfg = EstimatorConfig(method="binned", bins=8)
        est = mi_estimate_joint(m.data[:2].T, m.data[2], cfg)
        assert est > 0.1


class TestTimeSeries:
    def test_lagged_copy_is_strongly_coupled(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10_000)
        y = np.roll(x, 1)
        y[0] = rng.standard_normal()
        assert bidirectional_te_mi(x, y, KNN) > 1.0
        # an exact lagged copy makes the parametric form singular
        assert math.isinf(bidirectional_te_mi(x, y, GAUSSIAN))

    def test_noisy_lagged_copy_finite_and_large(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(10_000)
        y = np.roll(x, 2) + 0.3 * rng.standard_normal(10_000)
        assert 0.5 < bidirectional_te_mi(x, y, GAUSSIAN) < 20.0

    @pytest.mark.parametrize("cfg", [GAUSSIAN, KNN])
    def test_white_noise_null(self, cfg):
        rng = np.random.default_rng(3)
        rng.standard_normal(10_000)  # advance past the lagged-copy draw
        a, b = rng.standard_normal(10_000), rng.standard_normal(10_000)
        assert bidirectional_te_mi(a, b, cfg) <= 0.1

    @pytest.mark.parametrize("cfg", [GAUSSIAN, KNN])
    def test_identical_iid_series_carry_no_flow(self, cfg):
        # equal-time dependence without temporal structure stays near zero
        a = np.random.default_rng(6).standard_normal(10_000)
        assert bidirectional_te_mi(a, a, cfg) <= 0.1

    def test_lag_configuration(self):
        a = np.random.default_rng(1).standard_normal(40)
        with pytest.raises(DegenerateInputError):
            bidirectional_te_mi(a, a, EstimatorConfig(ts_lag=39))


class TestInputValidation:
    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN])
    def test_short_and_mismatched_inputs(self, cfg):
        x = np.arange(9, dtype=float)
        with pytest.raises(DegenerateInputError):
            mi_estimate(x, x + 1.0, cfg)
        with pytest.raises(DegenerateInputError):
            mi_estimate(np.arange(20.0), np.arange(21.0), cfg)

    def test_non_finite_rejected(self):
        x = np.random.default_rng(0).standard_normal(100)
        y = x.copy()
        y[3] = np.nan
        with pytest.raises(DegenerateInputError):
            mi_estimate(x, y, GAUSSIAN)

    def test_constant_column_rejected(self):
        x = np.random.default_rng(0).standard_normal(100)
        with pytest.raises(DegenerateInputError):
            mi_estimate(x, np.ones(100), GAUSSIAN)

    def test_two_dimensional_input_rejected(self):
        x = np.random.default_rng(0).standard_normal((50, 2))
        with pytest.raises(DegenerateInputError):
            mi_estimate(x, x, GAUSSIAN)

    def test_knn_needs_more_samples_than_neighbors(self):
        x = np.random.default_rng(0).standard_normal(12)
        y = np.random.default_rng(1).standard_normal(12)
        with pytest.raises(DegenerateInputError):
            mi_estimate(x, y, EstimatorConfig(method="knn", k=12))
