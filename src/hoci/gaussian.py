"""Closed-form information quantities for the correlated-observation Gaussian model.

Model: n observations X_i = X + N_i with X ~ N(0, sigma_x2), N_i ~ N(0, sigma_n2),
and E[N_i N_j] = rho * sigma_n2 for i != j.  Every quantity reduces to the four
scalars

    delta     = sigma_x2 + sigma_n2
    delta_rho = sigma_x2 + rho * sigma_n2
    delta1    = delta^2 - delta_rho^2
    delta2    = delta^2 + delta_rho^2

All public values are in bits.  A divergent quantity (rho = 1 makes a pair of
observations identical in law) is returned as ``math.inf`` rather than raised:
downstream minimizations must treat it as dominating, and the IO layer renders
it explicitly.

The pairwise quantities are valid for any rho in [-1, 1); the conditional MI
refers to a triple of observations and is evaluated wherever its denominator
is positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelMatrix, check_seed, is_integer, is_real
from .errors import NoCommonInformationError, ParameterDomainError

_PSD_TOL = 1e-12


@dataclass(frozen=True)
class GaussianEnsembleSpec:
    """Parameters (sigma_x2, sigma_n2, rho, n) of the observation model."""

    sigma_x2: float
    sigma_n2: float
    rho: float
    n: int = 2

    def __post_init__(self):
        if not (is_real(self.sigma_x2) and self.sigma_x2 > 0 and math.isfinite(self.sigma_x2)):
            raise ParameterDomainError(f"sigma_x2 must be positive, got {self.sigma_x2}")
        if not (is_real(self.sigma_n2) and self.sigma_n2 > 0 and math.isfinite(self.sigma_n2)):
            raise ParameterDomainError(f"sigma_n2 must be positive, got {self.sigma_n2}")
        if not (is_real(self.rho) and -1.0 <= self.rho <= 1.0):
            raise ParameterDomainError(f"rho must lie in [-1, 1], got {self.rho}")
        if not (is_integer(self.n) and self.n >= 2):
            raise ParameterDomainError(f"n must be an integer >= 2, got {self.n}")
        # n-variable noise covariance (diag sigma_n2, off-diag rho*sigma_n2)
        # is PSD iff rho >= -1/(n-1)
        if self.rho < -1.0 / (self.n - 1) - _PSD_TOL:
            raise ParameterDomainError(
                f"rho={self.rho} makes the {self.n}-variable noise covariance "
                f"indefinite (requires rho >= {-1.0 / (self.n - 1):.6g})"
            )


@dataclass(frozen=True)
class DeltaQuantities:
    """The derived scalars every closed form is written in."""

    delta: float
    delta_rho: float
    delta1: float
    delta2: float


@dataclass(frozen=True)
class MmseCoefficients:
    """MMSE regression coefficients and error variances of the two-stage construction.

    ``alpha`` is the coefficient of E[X_i | X_j] (and of E[X | X_i]);
    ``beta`` the coefficient of the second conditioning stage; both equal
    delta_rho/delta in this model.  ``sigma_eps_j2`` is the first-stage
    estimation-error variance delta*delta1/delta_rho^2 and ``sigma_eps_k2``
    the second-stage error variance delta1*delta2/(delta*delta_rho^2).
    """

    alpha: float
    beta: float
    sigma_eps_j2: float
    sigma_eps_k2: float


def delta_quantities(spec: GaussianEnsembleSpec) -> DeltaQuantities:
    """Compute delta, delta_rho, delta1, delta2 for a valid spec."""
    d = spec.sigma_x2 + spec.sigma_n2
    dr = spec.sigma_x2 + spec.rho * spec.sigma_n2
    return DeltaQuantities(
        delta=d,
        delta_rho=dr,
        # (delta - delta_rho)(delta + delta_rho): no cancellation as rho nears 1
        delta1=((1.0 - spec.rho) * spec.sigma_n2) * (d + dr),
        delta2=d * d + dr * dr,
    )


def mi_x_xi(spec: GaussianEnsembleSpec) -> float:
    """I(X; X_i) = 1/2 log2((sigma_x2 + sigma_n2) / sigma_n2) bits."""
    return 0.5 * math.log2((spec.sigma_x2 + spec.sigma_n2) / spec.sigma_n2)


def mi_xi_xj(spec: GaussianEnsembleSpec) -> float:
    """I(X_i; X_j) = 1/2 log2(delta^2 / delta1) bits; this is the exact R_2.

    Diverges (returns inf) at rho = 1, where two observations coincide.
    """
    d = delta_quantities(spec)
    if d.delta1 <= 0.0:
        return math.inf
    return 0.5 * math.log2(d.delta**2 / d.delta1)


def cond_mi_xi_xj_given_xk(spec: GaussianEnsembleSpec) -> float:
    """I(X_i; X_j | X_k) for a triple of observations, in bits.

    Valid where the denominator (sigma_x2+sigma_n2)((1+2 rho) sigma_n2 + 3 sigma_x2)
    is positive; below that the triple's covariance is not a valid model and a
    domain error is raised.
    """
    sx2, sn2, rho = spec.sigma_x2, spec.sigma_n2, spec.rho
    num = ((1.0 + rho) * sn2 + 2.0 * sx2) ** 2
    den = (sx2 + sn2) * ((1.0 + 2.0 * rho) * sn2 + 3.0 * sx2)
    if den <= 0.0:
        raise ParameterDomainError(
            f"conditional MI undefined at rho={rho}: triple covariance is indefinite"
        )
    return 0.5 * math.log2(num / den)


def interaction_information(spec: GaussianEnsembleSpec) -> float:
    """I(X_i; X_j) - I(X_i; X_j | X_k) bits; negative values indicate synergy."""
    unconditional = mi_xi_xj(spec)
    conditional = cond_mi_xi_xj_given_xk(spec)
    if math.isinf(unconditional):
        raise ParameterDomainError("interaction information undefined: I(X_i;X_j) diverges")
    return unconditional - conditional


def r3_lower(spec: GaussianEnsembleSpec) -> float:
    """Lower bound on the third-order common information: R2 + 1/2 log2(delta^2/delta2)."""
    r2 = mi_xi_xj(spec)
    if math.isinf(r2):
        return math.inf
    d = delta_quantities(spec)
    # delta2 >= delta^2, so the added term is <= 0 and r3_lower <= r2 holds exactly
    return r2 + 0.5 * math.log2(d.delta**2 / d.delta2)


def r4_lower(spec: GaussianEnsembleSpec) -> float:
    """Lower bound on the fourth-order common information.

    r3_lower + 1/2 log2(1/2 + delta1*delta2 / (2 delta^4)); the added term is
    <= 0 because delta1*delta2 <= delta^4, so r4_lower <= r3_lower exactly.
    """
    r3 = r3_lower(spec)
    if math.isinf(r3):
        return math.inf
    d = delta_quantities(spec)
    u = d.delta1 * d.delta2 / d.delta**4
    return r3 + 0.5 * math.log2(0.5 + 0.5 * u)


@dataclass(frozen=True)
class AsymptoticLimits:
    """Limits of R2 and the R3 bound as the noise variance grows.

    As sigma_n2 -> inf: R2 -> 1/2 log2(1/(1-rho^2)) and
    R3 -> 1/2 log2(1/((1-rho^2)(1+rho^2))).  (As sigma_n2 -> 0 both diverge,
    with R2 - R3 -> 1/2 bit and R2/R3 -> 1 whatever rho.)
    """

    large_noise_r2_bits: float
    large_noise_r3_bits: float


def asymptotic_limits(rho: float) -> AsymptoticLimits:
    """The two limit values above for a given pairwise noise correlation."""
    if not (is_real(rho) and -1.0 <= rho <= 1.0):
        raise ParameterDomainError(f"rho must lie in [-1, 1], got {rho}")
    if abs(rho) == 1.0:
        return AsymptoticLimits(math.inf, math.inf)
    r2 = 0.5 * math.log2(1.0 / (1.0 - rho * rho))
    r3 = 0.5 * math.log2(1.0 / ((1.0 - rho * rho) * (1.0 + rho * rho)))
    return AsymptoticLimits(large_noise_r2_bits=r2, large_noise_r3_bits=r3)


def mmse_coefficients(spec: GaussianEnsembleSpec) -> MmseCoefficients:
    """The regression coefficients and error variances of the two conditioning stages."""
    d = delta_quantities(spec)
    if d.delta_rho == 0.0:
        raise ParameterDomainError(
            "MMSE error variances diverge at delta_rho = 0 (rho = -sigma_x2/sigma_n2)"
        )
    if spec.rho == 1.0:
        raise ParameterDomainError("MMSE coefficients undefined at rho = 1")
    a = d.delta_rho / d.delta
    return MmseCoefficients(
        alpha=a,
        beta=a,
        sigma_eps_j2=d.delta * d.delta1 / d.delta_rho**2,
        sigma_eps_k2=d.delta1 * d.delta2 / (d.delta * d.delta_rho**2),
    )


def analytic_sci_variance(spec: GaussianEnsembleSpec) -> float:
    """Tuned noise variance of a pair's SCI (``hoci.sci``) on this model: the
    first-stage MMSE error variance ``mmse_coefficients(spec).sigma_eps_j2``.

    Raises the no-common-information signal at delta_rho = 0, where the
    target MI is zero and the required variance diverges.
    """
    if delta_quantities(spec).delta_rho == 0.0:
        raise NoCommonInformationError(
            "observations share no information at delta_rho = 0", target_bits=0.0
        )
    return mmse_coefficients(spec).sigma_eps_j2


def sample_ensemble(spec: GaussianEnsembleSpec, num_samples: int, seed: int) -> ChannelMatrix:
    """Draw num_samples i.i.d. realizations of (X_1, ..., X_n).

    The exact model covariance (delta on the diagonal, delta_rho off it) is
    achieved by mixing an isotropic draw along the equicorrelation
    eigenbasis, which stays valid on the PSD boundary rho = -1/(n-1).
    Deterministic for a fixed seed.
    """
    if not (is_integer(num_samples) and num_samples >= 1):
        raise ParameterDomainError(f"num_samples must be a positive integer, got {num_samples!r}")
    n = spec.n
    rng = np.random.default_rng(check_seed(seed))
    x = math.sqrt(spec.sigma_x2) * rng.standard_normal(num_samples)
    g = rng.standard_normal((n, num_samples))
    a = math.sqrt(max(1.0 - spec.rho, 0.0))
    b = math.sqrt(max(1.0 + (n - 1) * spec.rho, 0.0))
    mean = g.mean(axis=0, keepdims=True)
    noise = math.sqrt(spec.sigma_n2) * (a * (g - mean) + b * mean)
    names = tuple(f"x{i + 1}" for i in range(n))
    return ChannelMatrix._adopt(names, x[None, :] + noise)
