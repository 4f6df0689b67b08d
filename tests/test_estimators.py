"""Mutual-information estimators: exact identities, statistical accuracy on
synthetic data with known ground truth, and estimator-level invariants."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hoci import (
    ChannelMatrix,
    ConfigurationError,
    DegenerateInputError,
    EstimatorConfig,
    GaussianEnsembleSpec,
    ParameterDomainError,
    bidirectional_te_mi,
    build_ensemble,
    delta_quantities,
    mi_estimate,
    mi_estimate_full,
    mi_xi_xj,
    sample_channels,
    sample_ensemble,
)
from hoci.channels import UNDERFLOW_SPREAD, check_seed, unit_scaled
from hoci.estimators import _bin_index, _binned_pair, _pearson
from hoci.estimators import _binned_joint, _clamp, _joint_mi, _raw_mi
from hoci.estimators import _content_jitter, _ksg, _prepare, _standardize, _strict_range_counts
from hoci.estimators import PreparedColumns

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

    @pytest.mark.parametrize(
        "call, accepted, error, message",
        [
            (lambda v: EstimatorConfig(method="knn", k=v), 1, ConfigurationError, "k must be"),
            (lambda v: EstimatorConfig(ts_lag=v), 1, ConfigurationError, "ts_lag must be"),
            (check_seed, 1, ConfigurationError, "seed must be a nonnegative integer"),
            (
                lambda v: sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, 3), v, seed=0),
                40,
                ParameterDomainError,
                "num_samples must be a positive integer",
            ),
            (
                lambda v: sample_channels(build_ensemble(3, [0.5, 0.5]), v, seed=0),
                40,
                ParameterDomainError,
                "num_samples must be a positive integer",
            ),
            (
                lambda v: ChannelMatrix(("a", "b"), np.eye(2, 40)).index_of(v),
                1,
                ConfigurationError,
                "unknown channel",
            ),
        ],
        ids=["k", "ts_lag", "check_seed", "sample_ensemble", "sample_channels", "index_of"],
    )
    def test_integer_settings_refuse_bool(self, call, accepted, error, message):
        # True would pass as 1, and a config would be written back as "k": true
        for value in (accepted, np.int64(accepted)):
            call(value)
        with pytest.raises(error, match=f"{message}.*True"):
            call(True)

    @pytest.mark.parametrize(
        "call, accepted, error, message",
        [
            (lambda v: GaussianEnsembleSpec(v, 1.0, 0.3), 2.0, ParameterDomainError, "sigma_x2 must be"),
            (lambda v: GaussianEnsembleSpec(1.0, v, 0.3), 2.0, ParameterDomainError, "sigma_n2 must be"),
            (lambda v: GaussianEnsembleSpec(1.0, 1.0, v), 0.5, ParameterDomainError, "rho must lie"),
        ],
        ids=["sigma_x2", "sigma_n2", "rho"],
    )
    def test_real_settings_refuse_bool_and_text(self, call, accepted, error, message):
        # True would pass as 1 and be written back as true; text raised a bare TypeError
        for value in (accepted, np.float64(accepted), np.float32(accepted), 1, np.int64(1)):
            call(value)
        for value in (True, False, np.bool_(True), "0.1", None):
            with pytest.raises(error, match=f"{message}.*{value}"):
                call(value)


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
        assert mi_estimate(x[:, None], y, cfg) == mi_estimate(x, y, cfg)

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
        assert _raw_mi(x, y, KNN) < 0.0
        assert mi_estimate_full(x, y, KNN).bits == 0.0


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
        assert _raw_mi(x, y, cfg) < 0.0
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
        cells = _bin_index(x, bins) * bins + _bin_index(y, bins)
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
        idx = [_bin_index(sample[:, c], bins) for c in range(3)]
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
            assert _raw_mi(x, y, EstimatorConfig(method="binned", bins=bins)) == (
                _binned_mi_reference(x, y, bins)
            )

    @staticmethod
    def _pair_over_full_table(cx, cy, bins):
        # the pair kernel's former form: the outer product and the mask over all bins^2 cells
        counts = np.bincount(cx * bins + cy, minlength=bins * bins).reshape(bins, bins)
        p = counts.astype(np.float64) / counts.sum()
        px = p.sum(axis=1, keepdims=True)
        py = p.sum(axis=0, keepdims=True)
        nz = p > 0.0
        return float((p[nz] * np.log2(p[nz] / (px @ py)[nz])).sum())

    @pytest.mark.parametrize("bins", [2, 16, 128, 2048])
    def test_pair_reads_only_occupied_cells_bit_for_bit(self, bins):
        rng = np.random.default_rng([11, bins])
        n = 5_000
        columns = [_kernel_columns(kind, n, rng) for kind in self.KINDS]
        base = rng.standard_normal(n)
        columns += [base + scale * rng.standard_normal(n) for scale in (1e-3, 0.1, 1.0, 10.0)]
        for x in columns:
            for y in (base, _kernel_columns("place_value", n, rng), x):
                cx, cy = _bin_index(x, bins), _bin_index(y, bins)
                assert _binned_pair(cx, cy, bins) == self._pair_over_full_table(cx, cy, bins)

    @staticmethod
    def _on_and_below_edges(lo, hi, bins):
        # every linspace edge, and the float one ulp below each edge above lo
        edges = np.linspace(lo, hi, bins + 1)
        return np.concatenate([edges, np.nextafter(edges[1:], -np.inf)])

    @pytest.mark.parametrize("scale", [0, -700, 700])
    @pytest.mark.parametrize("bins", [2, 16, 128, 2048])
    def test_samples_on_and_one_ulp_below_the_edges(self, bins, scale):
        # a power of two scales the edges exactly, so the samples stay on them
        rng = np.random.default_rng([13, bins])
        for lo, hi in ((-3.1, 7.3), (0.1, 0.7), (-1e-3, 5.0), (0.0, 1.0)):
            x = np.ldexp(rng.permutation(self._on_and_below_edges(lo, hi, bins)), scale)
            for y in (rng.standard_normal(x.size), x):
                want, _, _ = np.histogram2d(x, y, bins=bins)
                assert np.array_equal(self._counts2d(x, y, bins), want)
                assert np.array_equal(self._counts2d(y, x, bins), want.T)

    def test_samples_the_guess_misses_get_numpys_bins(self):
        bins, lo, hi = 2048, -3.1, 7.3
        x = self._on_and_below_edges(lo, hi, bins)
        edges = np.linspace(lo, hi, bins + 1)
        numpy_bins = np.minimum(np.searchsorted(edges, x, side="right") - 1, bins - 1)
        guess = np.minimum(((x - lo) * (bins / (hi - lo))).astype(np.intp), bins - 1)
        assert (guess != numpy_bins).sum() > 1000  # the edge check and fallback run
        assert np.array_equal(_bin_index(x, bins), numpy_bins)
        want, _, _ = np.histogram2d(x, x[::-1], bins=bins)
        assert np.array_equal(self._counts2d(x, x[::-1], bins), want)

    @pytest.mark.parametrize("where", ["x", "y", "block"])
    def test_range_beyond_float64_is_rescaled(self, where):
        wide = np.tile([-1.7e308, 1.7e308, 0.0, 1.0], 5)
        unit = np.ldexp(wide, -1024)  # the power of two unit_scaled picks
        other = np.arange(20.0)
        cfg = EstimatorConfig(method="binned")

        def estimate(col):
            if where == "x":
                return mi_estimate(col, other, cfg)
            if where == "y":
                return mi_estimate(other, col, cfg)
            return mi_estimate(np.column_stack([other, col]), other, cfg)

        assert estimate(wide) == estimate(unit)

    @staticmethod
    def _numpy_bins(x, bins):
        edges = np.linspace(x.min(), x.max(), bins + 1)
        return np.minimum(np.searchsorted(edges, x, side="right") - 1, bins - 1)

    @staticmethod
    def _searchsorted_needles(monkeypatch):
        # the number of samples each searchsorted call places
        real, needles = np.searchsorted, []

        def spy(a, v, *args, **kwargs):
            needles.append(np.size(v))
            return real(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", spy)
        return needles

    @pytest.mark.parametrize("scale", [0, -700, 700])
    @pytest.mark.parametrize("bins, spread", [(2, 1e-9), (128, 1e-7), (2048, 1e-6)])
    def test_offset_narrow_spread_places_every_sample_exactly(self, bins, spread, scale, monkeypatch):
        # bins * max(|lo|, |hi|) / width is at least 1.5e14 here, which puts the
        # margin above 1/2: no guess is kept
        rng = np.random.default_rng([17, bins])
        x = np.ldexp(1e6 + spread * rng.standard_normal(20_000), scale)
        y = rng.standard_normal(x.size)
        want = self._numpy_bins(x, bins)
        needles = self._searchsorted_needles(monkeypatch)
        assert np.array_equal(_bin_index(x, bins), want)
        assert needles == [x.size]
        monkeypatch.undo()
        want, _, _ = np.histogram2d(x, y, bins=bins)
        assert np.array_equal(self._counts2d(x, y, bins), want)
        assert np.array_equal(self._counts2d(y, x, bins), want.T)

    @pytest.mark.parametrize("bins", [2, 128, 2048])
    def test_samples_one_and_two_ulps_either_side_of_the_edges(self, bins):
        rng = np.random.default_rng([19, bins])
        for lo, hi in ((-3.1, 7.3), (0.1, 0.7), (-1e-3, 5.0), (1e6, 1e6 + 3.0)):
            edges = np.linspace(lo, hi, bins + 1)
            near = [edges]
            for ulps in (1, 2):
                for toward in (-np.inf, np.inf):
                    moved = edges
                    for _ in range(ulps):
                        moved = np.nextafter(moved, toward)
                    near.append(moved[(moved >= lo) & (moved <= hi)])
            x = rng.permutation(np.concatenate(near))
            assert np.array_equal(_bin_index(x, bins), self._numpy_bins(x, bins))
            want, _, _ = np.histogram2d(x, x[::-1], bins=bins)
            assert np.array_equal(self._counts2d(x, x[::-1], bins), want)

    def test_a_continuous_column_is_placed_without_searchsorted(self, monkeypatch):
        x = np.random.default_rng(23).standard_normal(50_000)
        want = self._numpy_bins(x, 128)
        needles = self._searchsorted_needles(monkeypatch)
        assert np.array_equal(_bin_index(x, 128), want)
        assert needles == []


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
        est = mi_estimate(m.data[:2].T, m.data[2], cfg)
        assert est == pytest.approx(self._block_truth(spec), abs=tol)

    def test_duplicated_column_is_degenerate(self):
        x, y = correlated_pair(0.3, 2000, seed=4)
        block = np.column_stack([x, x])
        with pytest.raises(DegenerateInputError):
            mi_estimate(block, y, GAUSSIAN)

    def test_binned_joint_runs(self):
        spec = GaussianEnsembleSpec(1.0, 1.0, 0.5, n=3)
        m = sample_ensemble(spec, 20_000, seed=12)
        cfg = EstimatorConfig(method="binned", bins=8)
        est = mi_estimate(m.data[:2].T, m.data[2], cfg)
        assert est > 0.1

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN], ids=lambda c: c.method)
    def test_a_block_is_read_as_its_columns(self, cfg):
        m = sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.3, n=4), 2000, seed=13)
        want = _joint_mi(list(m.data[:3]), m.data[3], cfg)
        assert mi_estimate(m.data[:3].T, m.data[3], cfg) == want > 0.0
        # row-major and column-major blocks, and a table that is not read
        table = PreparedColumns(cfg, list(m.data))
        assert mi_estimate(np.ascontiguousarray(m.data[:3].T), m.data[3], cfg, columns=table) == want

    def test_a_block_of_no_columns_is_degenerate(self):
        y = np.random.default_rng(0).standard_normal(100)
        with pytest.raises(DegenerateInputError, match="block of no columns"):
            mi_estimate(np.empty((100, 0)), y)

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN], ids=lambda c: c.method)
    def test_a_block_and_a_short_y_are_a_length_mismatch(self, cfg):
        rng = np.random.default_rng(0)
        with pytest.raises(DegenerateInputError, match="length mismatch: 100 vs 99"):
            mi_estimate(rng.standard_normal((100, 2)), rng.standard_normal(99), cfg)


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


def _shared_pair(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(n)
    return s + rng.standard_normal(n), s + rng.standard_normal(n)


class TestLargeFiniteColumns:
    """Finite columns whose sum of squares overflows float64 are rescaled by
    a power of two, not refused or read as a NaN correlation."""

    def test_large_scale_keeps_the_unit_scale_value(self):
        x, y = _shared_pair(5000, 0)
        assert mi_estimate(x * 1e150, y * 1e150) == pytest.approx(mi_estimate(x, y), abs=1e-12)

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
    def test_overflowing_scale_keeps_the_unit_scale_value(self, scale):
        x, y = _shared_pair(5000, 0)
        assert mi_estimate(x * scale, y * scale) == pytest.approx(mi_estimate(x, y), abs=1e-12)

    def test_one_overflowing_column_keeps_the_unit_scale_value(self):
        x, y = _shared_pair(5000, 0)
        assert _pearson(x, y * 1e160) == pytest.approx(_pearson(x, y), abs=1e-12)

    def test_knn_large_scale_stays_close_to_unit_scale(self):
        # the tie-breaking jitter hashes the raw bytes, so only the last digits move
        x, y = _shared_pair(5000, 0)
        assert mi_estimate(x * 1e150, y * 1e150, KNN) == pytest.approx(
            mi_estimate(x, y, KNN), abs=1e-4
        )

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_knn_overflowing_scale_stays_close_to_unit_scale(self, scale):
        # dividing by an infinite deviation once zeroed the column silently
        x, y = _shared_pair(5000, 0)
        assert mi_estimate(x * scale, y * scale, KNN) == pytest.approx(
            mi_estimate(x, y, KNN), abs=1e-4
        )


class TestTinyFiniteColumns:
    """Finite columns whose squares underflow float64 are rescaled by a power
    of two, not read as constant or estimated on subnormal digits."""

    @pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-200])
    def test_gaussian_keeps_the_unit_scale_value(self, scale):
        x, y = _shared_pair(5000, 0)
        assert mi_estimate(x * scale, y * scale) == pytest.approx(mi_estimate(x, y), abs=1e-12)

    def test_power_of_two_scale_moves_no_bit(self):
        # 2**-600 is exact and its squares underflow; 2**-450 is rescaled
        # although its squares would not
        x, y = _shared_pair(5000, 0)
        for scale in (2.0**-450, 2.0**-600):
            assert mi_estimate(x * scale, y * scale) == mi_estimate(x, y)
            assert mi_estimate(x * scale, y) == mi_estimate(x, y)

    def test_knn_accepts_tiny_columns(self):
        x, y = _shared_pair(5000, 0)
        assert mi_estimate(x * 1e-200, y * 1e-200, KNN) == pytest.approx(
            mi_estimate(x, y, KNN), abs=1e-4
        )

    @pytest.mark.parametrize("cfg,text", [(GAUSSIAN, "constant column"), (KNN, "^x is constant$")])
    def test_tiny_constant_column_still_raises(self, cfg, text):
        # 2000 copies of 1e-200 or 1e-130 have a mean one ulp off the value
        x, _ = _shared_pair(2000, 0)
        for value in (0.0, 1e-130, 1e-200, 5e-324):
            with pytest.raises(DegenerateInputError, match=text):
                mi_estimate(np.full(2000, value), x, cfg)


def _lag_block(a, lag):
    """Rows indexed by t = lag..N-1; columns a[t-lag], ..., a[t-1]."""
    return np.column_stack([a[m : a.size - lag + m] for m in range(lag)])


def _binned_joint_dense(xb, y, bins):
    """The dense bins**width count table that _binned_joint replaced."""
    def plugin_entropy(idx):
        shape = (bins,) * len(idx)
        counts = np.bincount(np.ravel_multi_index(idx, shape), minlength=bins ** len(idx))
        nz = counts[counts > 0] / float(idx[0].size)
        return float(-(nz * np.log2(nz)).sum())

    bx = [_bin_index(xb[:, c], bins) for c in range(xb.shape[1])]
    by = [_bin_index(y, bins)]
    return plugin_entropy(bx) + plugin_entropy(by) - plugin_entropy(bx + by)


def _lagged_pair(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = 0.6 * np.roll(x, 2) + 0.8 * rng.standard_normal(n)
    return x, y


class TestSparseBinnedJoint:
    """The time-series block counts only its occupied cells."""

    @pytest.mark.parametrize("bins,lag", [(2, 2), (16, 2), (16, 3), (32, 3)])
    def test_equals_dense_table(self, bins, lag):
        x, y = _lagged_pair(3000, bins + lag)
        cfg = EstimatorConfig(method="binned", bins=bins, ts_lag=lag)
        dense = _clamp(_binned_joint_dense(_lag_block(x, lag), y[lag:], bins)) + _clamp(
            _binned_joint_dense(_lag_block(y, lag), x[lag:], bins)
        )
        assert bidirectional_te_mi(x, y, cfg) == dense
        assert _binned_joint(list(_lag_block(x, lag).T), y[lag:], bins) == _binned_joint_dense(
            _lag_block(x, lag), y[lag:], bins
        )

    def test_discrete_codes_equal_dense_table(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 4, 2000) * 8.0 + rng.integers(0, 2, 2000)
        y = np.roll(x, 1) + rng.integers(0, 2, 2000)
        for lag in (2, 3, 4):
            assert _binned_joint(list(_lag_block(x, lag).T), y[lag:], 16) == _binned_joint_dense(
                _lag_block(x, lag), y[lag:], 16
            )

    def test_grid_beyond_index_range_is_a_configuration_error(self):
        # bins**(ts_lag + 1) cell codes must fit intp; 100000**5 does not
        x, y = _lagged_pair(500, 0)
        cfg = EstimatorConfig(method="binned", bins=100_000, ts_lag=4)
        with pytest.raises(ConfigurationError, match=r"bins=100000.*ts_lag=4"):
            bidirectional_te_mi(x, y, cfg)
        with pytest.raises(ConfigurationError, match="bins=65536"):
            bidirectional_te_mi(x, y, EstimatorConfig(method="binned", bins=2**16, ts_lag=3))
        # 2**60 cells still fit and are counted
        fits = EstimatorConfig(method="binned", bins=2**15, ts_lag=3)
        assert bidirectional_te_mi(x, y, fits) >= 0

    def test_memory_follows_samples_not_table(self):
        x, y = _lagged_pair(5000, 0)
        cfg = EstimatorConfig(method="binned", bins=64, ts_lag=3)  # dense: 64**4 cells
        tracemalloc.start()
        try:
            bidirectional_te_mi(x, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestPairwiseGridCap:
    """The pairwise binned table is dense, so its size is refused up front."""

    def test_oversized_grid_is_refused_before_allocating(self):
        x, y = _shared_pair(1000, 0)
        cfg = EstimatorConfig(method="binned", bins=2049)  # constructing is fine
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="bins=2049"):
                mi_estimate(x, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


_LN2 = math.log(2.0)


def _knn_mi_reference(x: np.ndarray, y: np.ndarray, k: int) -> float:
    # the scalar-pair kernel the block kernel absorbed, verbatim
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    n = x.size
    if k >= n:
        raise DegenerateInputError(f"k={k} must be smaller than the sample count {n}")
    xs = _standardize(x, "x") + _content_jitter(x)
    ys = _standardize(y, "y") + _content_jitter(y)
    pts = np.column_stack([xs, ys])
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=k + 1, p=np.inf, workers=-1)
    eps = dist[:, -1]
    nx = _strict_range_counts(xs, eps)
    ny = _strict_range_counts(ys, eps)
    return float(
        (digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1))) / _LN2
    )


def _knn_joint_reference(xb: np.ndarray, y: np.ndarray, k: int) -> float:
    # the block kernel before it absorbed the scalar pair, verbatim
    from scipy.spatial import cKDTree
    from scipy.special import digamma

    n = xb.shape[0]
    if k >= n:
        raise DegenerateInputError(f"k={k} must be smaller than the sample count {n}")
    cols = [
        _standardize(xb[:, c], f"block column {c}") + _content_jitter(xb[:, c])
        for c in range(xb.shape[1])
    ]
    xs = np.column_stack(cols)
    ys = _standardize(y, "y") + _content_jitter(y)
    pts = np.column_stack([xs, ys])
    tree = cKDTree(pts)
    dist, _ = tree.query(pts, k=k + 1, p=np.inf, workers=-1)
    eps = dist[:, -1]
    # marginal counts: strict (<) neighborhoods; shrink the radius to drop
    # the defining k-th neighbor, which sits exactly on the boundary
    block_tree = cKDTree(xs)
    nx = np.asarray(
        block_tree.query_ball_point(xs, eps * (1.0 - 1e-12), p=np.inf, return_length=True)
    ) - 1
    ny = _strict_range_counts(ys, eps)
    return float(
        (digamma(k) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1))) / _LN2
    )


def _ksg_mi(xb, y, k):
    """KSG I(xb; y) in bits of an unprepared block, through the prepared-column kernel."""
    cfg = EstimatorConfig(method="knn", k=k)
    return _ksg([_prepare(c, cfg, "x") for c in xb.T], _prepare(y, cfg, "y"), k)


# (width, k, tied, lagged): every block width 1-3 with k in {1, 4, 7}, on
# continuous data and rounded onto a coarse grid (heavy ties), then lag blocks
_KNN_CASES = [
    (width, k, tied, False) for width in (1, 2, 3) for k in (1, 4, 7) for tied in (False, True)
] + [(width, k, False, True) for width in (1, 2, 3) for k in (1, 4)]


def _knn_case(index):
    width, k, tied, lagged = _KNN_CASES[index]
    rng = np.random.default_rng(index)
    n = int(rng.integers(60, 900))
    s = rng.standard_normal(n)
    if lagged:  # strided columns, as the time-series path passes them
        y = s + 0.5 * rng.standard_normal(n)
        return _lag_block(np.roll(s, 1) + rng.standard_normal(n), width), y[width:], k
    xb = s[:, None] + rng.standard_normal((n, width))
    y = s + rng.uniform(-1.0, 1.0, n)
    if tied:
        xb, y = np.round(2.0 * xb), np.round(y)
    return xb, y, k


class TestOneKnnKernel:
    """One KSG kernel serves the scalar pair and the block, bit for bit as the
    two kernels it replaced."""

    @pytest.mark.parametrize("index", range(len(_KNN_CASES)))
    def test_matches_the_replaced_kernels(self, index):
        xb, y, k = _knn_case(index)
        if xb.shape[1] == 1:
            want = _knn_mi_reference(xb[:, 0], y, k)
        else:
            want = _knn_joint_reference(xb, y, k)
        assert _ksg_mi(xb, y, k) == want

    def test_public_calls_reach_the_kernel(self):
        xb, y, k = _knn_case(_KNN_CASES.index((3, 4, False, False)))
        cfg = EstimatorConfig(method="knn", k=k)
        assert mi_estimate(xb[:, 0], y, cfg) == _clamp(_knn_mi_reference(xb[:, 0], y, k))
        assert mi_estimate(xb, y, cfg) == _clamp(_knn_joint_reference(xb, y, k))

    def test_errors_name_the_constant_column(self):
        x = np.random.default_rng(0).standard_normal(100)
        flat = np.full(100, 3.0)
        with pytest.raises(DegenerateInputError, match="^x is constant$"):
            mi_estimate(flat, x, KNN)
        with pytest.raises(DegenerateInputError, match="^y is constant$"):
            mi_estimate(x, flat, KNN)
        with pytest.raises(DegenerateInputError, match="^block column 1 is constant$"):
            mi_estimate(np.column_stack([x, flat]), x[::-1], KNN)



def _strict_range_counts_in_sample_order(a, radii):
    # the marginal counts before their needles were searched in sorted order, verbatim
    order = np.argsort(a)
    sa = a[order]
    hi = np.searchsorted(sa, a + radii, side="left")
    lo = np.searchsorted(sa, a - radii, side="right")
    return hi - lo - 1


class TestStrictRangeCounts:
    """Needles searched in the column's sorted order give the sample-order counts."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_the_sample_order_search(self, seed, tied):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 3000))
        a = rng.standard_normal(n)
        radii = rng.exponential(0.3, n)
        if tied:  # values and radii on a coarse grid, so needles land on points
            a, radii = np.round(4.0 * a) / 4.0, np.round(4.0 * radii) / 4.0
        got = _strict_range_counts(a, radii)
        want = _strict_range_counts_in_sample_order(a, radii)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _prepared_cases():
    rng = np.random.default_rng(21)
    s = rng.standard_normal(3000)
    x, y = s + rng.standard_normal(3000), s + rng.standard_normal(3000)
    # the columns of a C-ordered samples-by-channels array are strided
    m = np.column_stack([x, rng.standard_normal(3000), y])
    return {
        "random": (x, y),
        "offset": (x + 1e4, 3.0 * y - 250.0),
        "strided": (m[:, 0], m[:, 2]),
        "tiny": (x * 2.0**-600, y * 2.0**-600),
        "one-tiny": (x * 2.0**-600, y),
    }


class TestPreparedColumns:
    """A call given a table of prepared columns returns exactly what an
    unprepared call returns, whether the table prepares, holds or reuses."""

    @pytest.mark.parametrize("case", list(_prepared_cases()))
    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN], ids=lambda c: c.method)
    def test_kept_columns_change_no_bit(self, cfg, case):
        x, y = _prepared_cases()[case]
        want, back = mi_estimate(x, y, cfg), mi_estimate(y, x, cfg)
        table = PreparedColumns(cfg, (x, y))
        for _ in range(2):  # the first call prepares, the second reads the table
            assert mi_estimate(x, y, cfg, columns=table) == want
            assert mi_estimate(y, x, cfg, columns=table) == back

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN], ids=lambda c: c.method)
    def test_the_last_column_prepared_can_be_kept(self, cfg):
        x, y = _prepared_cases()["random"]
        want = mi_estimate(x, y, cfg)
        table = PreparedColumns(cfg, (y,))
        assert mi_estimate(x, y, cfg, columns=table) == want  # x is held as the last
        table.keep(x)
        assert mi_estimate(x, y, cfg, columns=table) == want
        # a list is validated and prepared per call, as without a table
        assert mi_estimate(list(x), y, cfg, columns=table) == want

    @pytest.mark.parametrize(
        "cfg,pair",
        [
            (KNN, lambda: tuple(np.random.default_rng(1).standard_normal((2, 1000)))),
            (EstimatorConfig(method="binned", bins=2), _binned_negative_raw_pair),
        ],
    )
    def test_clamped_estimate(self, cfg, pair):
        x, y = pair()
        table = PreparedColumns(cfg, (x, y))
        assert _raw_mi(x, y, cfg, table) == _raw_mi(x, y, cfg) < 0.0
        got = mi_estimate(x, y, cfg, columns=table)
        assert got == mi_estimate(x, y, cfg) == 0.0
        assert math.copysign(1.0, got) == 1.0

    def test_errors_read_as_without_a_table(self):
        x, _ = _prepared_cases()["random"]
        flat = np.full(x.size, 3.0)
        table = PreparedColumns(KNN, (x, flat))
        with pytest.raises(DegenerateInputError, match="^y is constant$"):
            mi_estimate(x, flat, KNN, columns=table)
        with pytest.raises(DegenerateInputError, match="^x is constant$"):
            mi_estimate(flat, x, KNN, columns=table)
        with pytest.raises(DegenerateInputError, match="length mismatch"):
            mi_estimate(x, x[:-1], KNN, columns=table)

    @pytest.mark.parametrize(
        "shift,power", [(0.0, 0), (1e8, 0), (0.0, -700), (0.0, 700)],
        ids=["ordinary", "offset-1e8", "scaled-2^-700", "scaled-2^700"],
    )
    def test_a_gaussian_row_is_held_centred(self, shift, power):
        # the prepared column is the row less its sum over its size, bit for bit,
        # after unit_scaled where the centred norm is out of range; the norm is its own
        row = np.ldexp(np.random.default_rng(31).standard_normal(1000) + shift, power)
        other = np.random.default_rng(32).standard_normal(1000)
        prepared, _ = PreparedColumns(GAUSSIAN, (row, other)).pair(row, other)
        unit = row if power == 0 else unit_scaled(row)
        centred = unit - unit.sum() / unit.size
        assert prepared.values.tobytes() == centred.tobytes()
        assert prepared.norm == float(np.sqrt(centred @ centred))

    def test_a_table_serves_one_config(self):
        x, y = _prepared_cases()["random"]
        with pytest.raises(ConfigurationError, match="another estimator config"):
            mi_estimate(x, y, BINNED, columns=PreparedColumns(GAUSSIAN, (x, y)))
        # an equal config is the same config
        table = PreparedColumns(EstimatorConfig(method="binned", bins=16), (x, y))
        assert mi_estimate(x, y, BINNED, columns=table) == mi_estimate(x, y, BINNED)


def _constant_row_data():
    # 2000 copies of 0.1 have a mean one ulp off the value and std 1.4e-17
    data = np.random.default_rng(0).standard_normal((4, 2000))
    data[1] = 0.1
    return data


class TestConstantByRange:
    """A column is constant when its min equals its max, even where its mean
    rounds off the value and leaves a nonzero deviation."""

    def test_the_deviation_is_not_zero(self):
        assert _constant_row_data()[1].std() > 0.0

    def test_gaussian_raises(self):
        d = _constant_row_data()
        text = "correlation undefined for a constant column"
        with pytest.raises(DegenerateInputError, match=text):
            mi_estimate(d[1], d[0])
        with pytest.raises(DegenerateInputError, match=text):
            _pearson(d[0], d[1])

    def test_knn_raises(self):
        d = _constant_row_data()
        with pytest.raises(DegenerateInputError, match="^x is constant$"):
            mi_estimate(d[1], d[0], KNN)
        with pytest.raises(DegenerateInputError, match="^block column 1 is constant$"):
            mi_estimate(np.column_stack([d[0], d[1]]), d[2], KNN)

    def test_gaussian_block_raises(self):
        d = _constant_row_data()
        text = "correlation undefined for a constant column"
        with pytest.raises(DegenerateInputError, match=text):
            mi_estimate(np.column_stack([d[0], d[1]]), d[2])
        with pytest.raises(DegenerateInputError, match=text):
            bidirectional_te_mi(d[1], d[0])

    def test_binned_reads_positive_zero(self):
        d = _constant_row_data()
        got = mi_estimate(d[1], d[0], BINNED)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_clamp_turns_negative_zero_positive_and_passes_nan(self):
        assert math.copysign(1.0, _clamp(-0.0)) == 1.0
        assert _clamp(-1e-17) == 0.0 and _clamp(0.25) == 0.25
        assert math.isnan(_clamp(math.nan))


class TestTinyBlockColumns:
    """The Gaussian block correlates tiny columns after an exact power-of-two
    rescaling, not on subnormal covariances."""

    @pytest.mark.parametrize("scale", [1e-160, 1e-200])
    def test_lagged_pair_keeps_the_unit_scale_value(self, scale):
        x, y = _lagged_pair(3000, 0)
        want = bidirectional_te_mi(x, y)
        assert bidirectional_te_mi(x * scale, y * scale) == pytest.approx(want, abs=1e-12)

    def test_power_of_two_scale_moves_no_bit(self):
        x, y = _lagged_pair(3000, 0)
        want = bidirectional_te_mi(x, y)
        assert bidirectional_te_mi(x * 2.0**-600, y * 2.0**-600) == want
        assert bidirectional_te_mi(x * 2.0**-600, y) == want


def _gaussian_joint_corrcoef(xb: np.ndarray, y: np.ndarray) -> float:
    # the np.corrcoef block kernel the prepared columns replaced, verbatim
    w = xb.shape[1]
    cols = np.column_stack([xb, y])
    if (cols.min(axis=0) == cols.max(axis=0)).any():  # even where a mean rounds off
        raise DegenerateInputError("correlation undefined for a constant column")
    # np.corrcoef's covariances lose digits in subnormals (or vanish) on tiny
    # columns; a power of two moves no bit of a correlation
    tiny = cols.std(axis=0) < UNDERFLOW_SPREAD
    if tiny.any():
        cols[:, tiny] = unit_scaled(cols[:, tiny].T).T
    full = np.corrcoef(cols, rowvar=False)
    if not np.isfinite(full).all():
        raise DegenerateInputError("correlation undefined for a constant column")
    sign_xx, logdet_xx = np.linalg.slogdet(full[:w, :w])
    sign_f, logdet_f = np.linalg.slogdet(full)
    if sign_xx <= 0.0:
        raise DegenerateInputError("block correlation matrix is singular")
    if sign_f <= 0.0:
        return math.inf
    return (logdet_xx - logdet_f) / (2.0 * _LN2)


_BLOCK_LAGS = (1, 2, 3, 6, 25)
_BLOCK_SCALES = {
    "plain": lambda x, y: (x, y),
    "offset": lambda x, y: (x + 1e4, 3.0 * y - 250.0),
    "tiny": lambda x, y: (x * 2.0**-600, y * 2.0**-600),
    "one-tiny": lambda x, y: (x * 2.0**-600, y),
}


def _block_case(seed):
    """A lagged pair of 200-3000 samples at one of the scales, and its ts_lag."""
    rng = np.random.default_rng([31, seed])
    n = int(rng.integers(200, 3000))
    x = rng.standard_normal(n)
    y = 0.5 * np.roll(x, 1 + seed % 3) + rng.standard_normal(n)
    scale = list(_BLOCK_SCALES)[seed % len(_BLOCK_SCALES)]
    return *_BLOCK_SCALES[scale](x, y), _BLOCK_LAGS[seed % len(_BLOCK_LAGS)]


class TestGaussianBlockReadsPreparedColumns:
    """The Gaussian lag block correlates the pair's prepared columns: one
    product of the centred windows over their norms, within float rounding
    of the np.corrcoef kernel it replaced."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_corrcoef_kernel(self, seed):
        x, y, lag = _block_case(seed)
        want = _clamp(_gaussian_joint_corrcoef(_lag_block(x, lag), y[lag:])) + _clamp(
            _gaussian_joint_corrcoef(_lag_block(y, lag), x[lag:])
        )
        got = bidirectional_te_mi(x, y, EstimatorConfig(ts_lag=lag))
        assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_strided_block_matches_the_corrcoef_kernel(self, seed):
        rng = np.random.default_rng([32, seed])
        s = rng.standard_normal(2000)
        # the columns of a C-ordered samples-by-channels array are strided
        m = s[:, None] + rng.standard_normal((2000, 4)) + np.array([0.0, 1e4, -3.0, 0.5])
        want = _clamp(_gaussian_joint_corrcoef(m[:, :3], m[:, 3]))
        assert abs(mi_estimate(m[:, :3], m[:, 3]) - want) <= 1e-12

    @pytest.mark.parametrize("lag", [2, 3, 6])
    def test_exact_lagged_copy_diverges_by_the_blocks_rule(self, lag):
        # 1 - R^2 = det(full) / det(xx) within 16 eps of 0 is divergent (a
        # pair's rule is 4 eps); slogdet's rounding used to leave a finite 26.5 bits
        cfg = EstimatorConfig(ts_lag=lag)
        finite = []
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(2000)
            if math.isfinite(bidirectional_te_mi(x, np.roll(x, 1), cfg)):
                finite.append(seed)
        assert finite == []

    @pytest.mark.parametrize("lag", [2, 3, 6, 25])
    def test_affine_lagged_copy_diverges(self, lag):
        # an affine map leaves the block's 1 - R^2 up to 9 eps from 0
        cfg = EstimatorConfig(ts_lag=lag)
        finite = []
        for seed in range(100):
            x = np.random.default_rng(seed).standard_normal(2000)
            if math.isfinite(bidirectional_te_mi(x, 1.7 * np.roll(x, 1) + 3, cfg)):
                finite.append(seed)
        assert finite == []

    @pytest.mark.parametrize("lag", [2, 3, 6, 25])
    def test_lagged_copy_with_tiny_noise_stays_finite(self, lag):
        # 1e-7 noise leaves 1 - R^2 near 45 eps, a dependence a float64 block resolves
        cfg = EstimatorConfig(ts_lag=lag)
        divergent = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(2000)
            y = np.roll(x, 1) + 1e-7 * rng.standard_normal(2000)
            if not math.isfinite(bidirectional_te_mi(x, y, cfg)):
                divergent.append(seed)
        assert divergent == []

    @pytest.mark.parametrize("call", ["te", "joint"])
    def test_overflowing_block_keeps_the_unit_scale_value(self, call):
        # np.corrcoef read the infinite covariances as a constant column
        x, y = _lagged_pair(3000, 0)

        def estimate(scale):
            xs, ys = x * scale, y * scale
            if call == "te":
                return bidirectional_te_mi(xs, ys)
            return mi_estimate(np.column_stack([xs, ys]), np.roll(ys, 1))

        assert estimate(1e155) == pytest.approx(estimate(1.0), abs=1e-12)

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN], ids=lambda c: c.method)
    def test_short_windows_are_refused(self, cfg):
        # N=12 and ts_lag=3 leave 9 rows per window
        x, y = _lagged_pair(12, 0)
        with pytest.raises(DegenerateInputError, match="has 9 samples; need >= 10"):
            bidirectional_te_mi(x, y, EstimatorConfig(method=cfg.method, ts_lag=3))

    @pytest.mark.parametrize("cfg", [GAUSSIAN, BINNED, KNN], ids=lambda c: c.method)
    def test_no_runtime_warning_escapes(self, cfg):
        x, y = _lagged_pair(2000, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1.0, 1e-200, 2.0**-600, 1e150):
                bidirectional_te_mi(x * scale, y * scale, cfg)
            if cfg is not BINNED:  # binned has no sum of squares to overflow
                assert bidirectional_te_mi(x * 1e160, y * 1e160, cfg) == pytest.approx(
                    bidirectional_te_mi(x, y, cfg), abs=1e-4 if cfg is KNN else 1e-12
                )
            if cfg is GAUSSIAN:  # an exact lagged copy: a singular or nearly singular matrix
                assert bidirectional_te_mi(x, np.roll(x, 1), cfg) > 20.0


def test_overflow_is_rescued_when_warnings_are_errors():
    # numpy's overflow warnings must not surface from the rescued statistics
    x, y = _shared_pair(5000, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mi_estimate(x * 1e155, y * 1e155) == pytest.approx(mi_estimate(x, y), abs=1e-12)
        assert mi_estimate(x * 1e160, y * 1e160, KNN) == pytest.approx(
            mi_estimate(x, y, KNN), abs=1e-4
        )
        np.testing.assert_allclose(
            ChannelMatrix(("x", "y"), np.array([x, y]) * 1e160).standardized().data,
            ChannelMatrix(("x", "y"), np.array([x, y])).standardized().data,
            rtol=0.0,
            atol=1e-12,
        )
