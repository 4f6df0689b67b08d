"""Closed-form Gaussian bounds: frozen oracle values, an independent
determinant-based oracle, domain handling, and sampling consistency."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hoci import (
    AsymptoticLimits,
    ChannelMatrix,
    ConfigurationError,
    GaussianEnsembleSpec,
    ParameterDomainError,
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

# Reference values computed once at 50-digit precision and rounded to the
# nearest double; the implementation may differ by a couple of ulps.
ORACLE = {
    # (sigma_x2, sigma_n2, rho): (mi_x_xi, r2, cond, interaction, r3, r4)
    (1.0, 1.0, 0.0): (
        0.5,
        0.2075187496394219,
        0.08496250072115619,
        0.12255624891826573,
        0.04655470219574073,
        0.023652857389178338,
    ),
    (1.0, 5.0, 0.0): (
        0.13151720291689692,
        0.020320992248672953,
        0.014873671697026017,
        0.005447320551646937,
        0.0005568101553542444,
        0.00027845880308904593,
    ),
    (1.0, 1.0, 0.3): (
        0.5,
        0.39605357417933357,
        0.12164909388626582,
        0.27440448029306774,
        0.14183924791340496,
        0.07440027033448948,
    ),
    (1.0, 5.0, 0.3): (
        0.13151720291689692,
        0.1375536190671844,
        0.0652657815711127,
        0.07228783749607173,
        0.02207640164724844,
        0.01112265188170731,
    ),
}

CROSSOVER_RHO = 0.28989794855663564  # (-1 + sqrt(6)) / 5


def approx(value):
    return pytest.approx(value, rel=1e-12, abs=1e-15)


class TestClosedFormOracles:
    """Every operation against the frozen high-precision values."""

    @pytest.mark.parametrize("params", sorted(ORACLE))
    def test_frozen_values(self, params):
        spec = GaussianEnsembleSpec(*params)
        expected = ORACLE[params]
        assert mi_x_xi(spec) == approx(expected[0])
        assert mi_xi_xj(spec) == approx(expected[1])
        assert cond_mi_xi_xj_given_xk(spec) == approx(expected[2])
        assert interaction_information(spec) == approx(expected[3])
        assert r3_lower(spec) == approx(expected[4])
        assert r4_lower(spec) == approx(expected[5])

    def test_delta_identities(self):
        spec = GaussianEnsembleSpec(1.0, 5.0, 0.3)
        d = delta_quantities(spec)
        assert d.delta == 6.0
        assert d.delta_rho == approx(2.5)
        assert d.delta1 == approx(d.delta**2 - d.delta_rho**2)
        assert d.delta2 == approx(d.delta**2 + d.delta_rho**2)

    def test_mmse_values(self):
        m = mmse_coefficients(GaussianEnsembleSpec(1.0, 1.0, 0.0))
        assert m.alpha == approx(0.5)
        assert m.beta == approx(0.5)
        assert m.sigma_eps_j2 == approx(6.0)
        assert m.sigma_eps_k2 == approx(7.5)


class TestDeterminantOracle:
    """The closed forms re-derived through covariance determinants.

    MI between jointly Gaussian blocks is a log-det ratio of the model
    covariance; this path shares no algebra with the implementation's
    simplified expressions.
    """

    GRID = [
        (sx2, sn2, rho)
        for sx2 in (0.1, 1.0, 10.0)
        for sn2 in (0.5, 5.0)
        for rho in (-0.3, 0.0, 0.4, 0.8)
    ]

    @staticmethod
    def _logdet2(cov):
        sign, ld = np.linalg.slogdet(cov)
        assert sign > 0
        return ld / math.log(2.0)

    @pytest.mark.parametrize("sx2,sn2,rho", GRID)
    def test_pairwise_forms(self, sx2, sn2, rho):
        spec = GaussianEnsembleSpec(sx2, sn2, rho)
        d = sx2 + sn2
        dr = sx2 + rho * sn2
        cov_x_xi = np.array([[sx2, sx2], [sx2, d]])
        expect_x = 0.5 * (math.log2(sx2) + math.log2(d) - self._logdet2(cov_x_xi))
        assert mi_x_xi(spec) == pytest.approx(expect_x, rel=1e-10)
        cov_pair = np.array([[d, dr], [dr, d]])
        expect_pair = 0.5 * (2 * math.log2(d) - self._logdet2(cov_pair))
        assert mi_xi_xj(spec) == pytest.approx(expect_pair, rel=1e-10)

    @pytest.mark.parametrize("sx2,sn2,rho", GRID)
    def test_conditional_form(self, sx2, sn2, rho):
        spec = GaussianEnsembleSpec(sx2, sn2, rho)
        d = sx2 + sn2
        dr = sx2 + rho * sn2
        pair = np.array([[d, dr], [dr, d]])
        triple = np.full((3, 3), dr)
        np.fill_diagonal(triple, d)
        # I(Xi;Xj|Xk) = h(Xi,Xk) + h(Xj,Xk) - h(Xk) - h(Xi,Xj,Xk)
        expect = 0.5 * (
            2 * self._logdet2(pair) - math.log2(d) - self._logdet2(triple)
        )
        assert cond_mi_xi_xj_given_xk(spec) == pytest.approx(expect, rel=1e-10)


class TestNearUnitCorrelation:
    """r3_lower against 60-digit arithmetic where delta and delta_rho nearly
    coincide: delta^2 - delta_rho^2 taken in float64 loses about
    log10(delta^2 / delta1) digits (2.8e-11 bits at rho = 0.99 below)."""

    @staticmethod
    def _r3_exact(sx2, sn2, rho):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            sx2, sn2, rho = (mpmath.mpf(v) for v in (sx2, sn2, rho))
            d, dr = sx2 + sn2, sx2 + rho * sn2
            return float(0.5 * mpmath.log(d**4 / ((d * d - dr * dr) * (d * d + dr * dr)), 2))

    @pytest.mark.parametrize("rho", [0.99, *np.linspace(0.9, 0.999, 45).tolist()])
    def test_r3_lower_within_8_ulps(self, rho):
        want = self._r3_exact(10.0, 1e-3, rho)
        assert abs(r3_lower(GaussianEnsembleSpec(10.0, 1e-3, rho)) - want) <= 8 * math.ulp(want)


class TestDomainHandling:
    def test_parameter_validation(self):
        with pytest.raises(ParameterDomainError):
            GaussianEnsembleSpec(-1.0, 1.0, 0.0)
        with pytest.raises(ParameterDomainError):
            GaussianEnsembleSpec(1.0, 0.0, 0.0)
        with pytest.raises(ParameterDomainError):
            GaussianEnsembleSpec(1.0, 1.0, 1.5)
        with pytest.raises(ParameterDomainError):
            GaussianEnsembleSpec(1.0, 1.0, 0.0, n=1)

    def test_psd_constraint_scales_with_n(self):
        GaussianEnsembleSpec(1.0, 1.0, -0.5, n=3)  # boundary is allowed
        with pytest.raises(ParameterDomainError):
            GaussianEnsembleSpec(1.0, 1.0, -0.6, n=3)
        GaussianEnsembleSpec(1.0, 1.0, -0.4, n=3)

    def test_divergence_at_unit_correlation(self):
        spec = GaussianEnsembleSpec(1.0, 1.0, 1.0)
        assert math.isinf(mi_xi_xj(spec))
        assert math.isinf(r3_lower(spec))
        assert math.isinf(r4_lower(spec))
        with pytest.raises(ParameterDomainError):
            interaction_information(spec)

    def test_conditional_undefined_outside_triple_domain(self):
        # (1 + 2 rho) sigma_n2 + 3 sigma_x2 < 0 has no valid 3-variable model
        with pytest.raises(ParameterDomainError):
            cond_mi_xi_xj_given_xk(GaussianEnsembleSpec(0.1, 1000.0, -0.9))

    def test_mmse_degenerate_points(self):
        with pytest.raises(ParameterDomainError):
            mmse_coefficients(GaussianEnsembleSpec(1.0, 5.0, -0.2))
        with pytest.raises(ParameterDomainError):
            mmse_coefficients(GaussianEnsembleSpec(1.0, 1.0, 1.0))


class TestOrderingProperties:
    """Chain and gap invariants over seeded random parameter draws."""

    def test_chain_and_gap_on_random_parameters(self):
        rng = np.random.default_rng(20240817)
        for _ in range(500):
            sx2 = float(10.0 ** rng.uniform(-2, 2))
            sn2 = float(10.0 ** rng.uniform(-3, 3))
            rho = float(rng.uniform(-0.999, 0.999))
            spec = GaussianEnsembleSpec(sx2, sn2, rho)
            r2 = mi_xi_xj(spec)
            r3 = r3_lower(spec)
            r4 = r4_lower(spec)
            assert r4 <= r3 <= r2
            assert 0.0 <= r2 - r3 <= 0.5
            assert r2 >= 0.0 and r4 >= 0.0

    def test_crossover_between_source_and_pairwise_mi(self):
        # I(X;Xi) - I(Xi;Xj) changes sign once in rho at (-1+sqrt(6))/5
        def f(rho):
            spec = GaussianEnsembleSpec(1.0, 5.0, rho)
            return mi_x_xi(spec) - mi_xi_xj(spec)

        root = brentq(f, 0.1, 0.5, xtol=1e-12)
        assert root == pytest.approx(CROSSOVER_RHO, abs=1e-9)

    def test_interaction_sign_change_at_zero_delta_rho(self):
        # delta_rho = 1 + 5 rho vanishes at rho = -0.2 for sigma_n2 = 5
        def f(rho):
            return interaction_information(GaussianEnsembleSpec(1.0, 5.0, rho))

        assert f(-0.2) == 0.0
        assert f(-0.25) < 0 < f(-0.15)
        # the function is very flat near the root, so only bracket precision
        # is meaningful here
        root = brentq(f, -0.3, -0.1, xtol=1e-12)
        assert root == pytest.approx(-0.2, abs=1e-3)


class TestAsymptotics:
    def test_limit_values(self):
        lim = asymptotic_limits(0.6)
        assert isinstance(lim, AsymptoticLimits)
        assert lim.large_noise_r2_bits == approx(0.32192809488736235)
        assert lim.large_noise_r3_bits == approx(0.100124769149555)

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    def test_large_noise_convergence(self, rho):
        spec = GaussianEnsembleSpec(1.0, 1e6, rho)
        lim = asymptotic_limits(rho)
        assert abs(mi_xi_xj(spec) - lim.large_noise_r2_bits) < 1e-3
        assert abs(r3_lower(spec) - lim.large_noise_r3_bits) < 1e-3

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.9])
    def test_small_noise_convergence(self, rho):
        spec = GaussianEnsembleSpec(1.0, 1e-6, rho)
        r2 = mi_xi_xj(spec)
        r3 = r3_lower(spec)
        assert abs((r2 - r3) - 0.5) < 1e-3
        # the ratio approaches 1 only logarithmically in sigma_n2, so check
        # monotone improvement rather than a tight absolute tolerance
        errs = []
        for sn2 in (1e-2, 1e-4, 1e-6, 1e-8):
            s = GaussianEnsembleSpec(1.0, sn2, rho)
            errs.append(abs(mi_xi_xj(s) / r3_lower(s) - 1.0))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.05

    def test_degenerate_correlation(self):
        lim = asymptotic_limits(1.0)
        assert math.isinf(lim.large_noise_r2_bits)
        with pytest.raises(ParameterDomainError):
            asymptotic_limits(1.5)


class TestSampling:
    def test_sample_covariance_matches_model(self):
        spec = GaussianEnsembleSpec(1.0, 2.0, 0.4, n=4)
        m = sample_ensemble(spec, 200_000, seed=3)
        assert isinstance(m, ChannelMatrix)
        assert m.names == ("x1", "x2", "x3", "x4")
        d = delta_quantities(spec)
        cov = np.cov(m.data)
        expected = np.full((4, 4), d.delta_rho)
        np.fill_diagonal(expected, d.delta)
        assert np.max(np.abs(cov - expected)) < 0.05

    def test_sampling_is_deterministic(self):
        spec = GaussianEnsembleSpec(1.0, 1.0, 0.0, n=3)
        a = sample_ensemble(spec, 1000, seed=11)
        b = sample_ensemble(spec, 1000, seed=11)
        c = sample_ensemble(spec, 1000, seed=12)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_psd_boundary_sampling(self):
        # at rho = -1/(n-1) the noise loses its common mode but stays valid
        spec = GaussianEnsembleSpec(1.0, 2.0, -0.5, n=3)
        m = sample_ensemble(spec, 200_000, seed=5)
        cov = np.cov(m.data)
        d = delta_quantities(spec)
        assert cov[0, 1] == pytest.approx(d.delta_rho, abs=0.05)
        assert cov[0, 0] == pytest.approx(d.delta, abs=0.05)

    def test_num_samples_validation(self):
        with pytest.raises(ParameterDomainError):
            sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.0), 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2.7])
    def test_seed_follows_the_run_seed_rule(self, seed):
        # handed to numpy, -1 would raise with no hoci error code and 2.7 would sample as 2
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
            sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.0), 100, seed=seed)

    def test_num_samples_must_be_an_integer(self):
        with pytest.raises(ParameterDomainError, match="positive integer, got 100.5"):
            sample_ensemble(GaussianEnsembleSpec(1.0, 1.0, 0.0), 100.5, seed=1)
