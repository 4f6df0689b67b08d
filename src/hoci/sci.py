"""Sufficient-common-information (SCI) construction by noise injection.

An SCI for a channel pair (i, j) is T = x_j + Z with Z independent Gaussian
noise whose variance v is tuned until the estimated MI between T and x_j
matches the estimated MI between x_i and x_j.  Because I(x_j + Z; x_j) is
strictly decreasing in v, the tuning is a bracketed bisection in
log-variance.  For the closed-form Gaussian observation model the tuned
variance has an analytic value, delta*delta1/delta_rho^2, used for
validation.

The injected noise is made exactly orthogonal to the carrier column (in
sample), so the estimated MI is an exact, quantization-free function of v
under the parametric estimator; this keeps the bisection's fixed point
sharp.  Noise is seeded per descriptor, so rebuilding with the same inputs
and seed reproduces T bit for bit.

A target MI at or below epsilon is reported as a no-common-information
signal rather than a failure: there is nothing for the construction to
match, and minimizing callers count the pair as contributing zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelMatrix
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    NoCommonInformationError,
    ParameterDomainError,
)
from .estimators import EstimatorConfig, mi_estimate, mi_estimate_full
from .gaussian import GaussianEnsembleSpec, delta_quantities

# bisection also terminates on bracket width, not residual alone: a wide
# bracket can straddle the target with a lucky midpoint while the variance
# is still far off
_BRACKET_REL_TOL = 1.005
# statistical slack for chain and SCI checks: 0.02 bits at 1e5 samples, ~ N^(-1/2)
SLACK_BITS_AT_REFERENCE = 0.02
REFERENCE_SAMPLES = 10**5


@dataclass(frozen=True)
class BisectionConfig:
    """Tuning-loop settings for the SCI noise variance."""

    epsilon: float = 1e-3
    max_iterations: int = 60
    bracket_growth: float = 2.0
    initial_variance: float | None = None  # None: 1e-3 * carrier variance

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if not (isinstance(self.max_iterations, (int, np.integer)) and self.max_iterations >= 10):
            raise ConfigurationError(
                f"max_iterations must be an integer >= 10, got {self.max_iterations}"
            )
        if not (self.bracket_growth > 1.0 and math.isfinite(self.bracket_growth)):
            raise ConfigurationError(
                f"bracket_growth must exceed 1, got {self.bracket_growth}"
            )
        if self.initial_variance is not None and not self.initial_variance > 0:
            raise ConfigurationError(
                f"initial_variance must be positive, got {self.initial_variance}"
            )


@dataclass(frozen=True)
class SciDescriptor:
    """Record of one tuned SCI construction.

    ``base_channel`` is the carrier the noise was injected into (x_j),
    ``partner_channel`` the channel whose shared information set the target
    (x_i); both are indices when the caller supplied them.  ``residual`` is
    the achieved |MI(T;carrier) - target| in bits.
    """

    base_channel: int | None
    partner_channel: int | None
    noise_variance: float
    seed: int
    residual: float
    iterations: int
    order: int = 2


@dataclass(frozen=True)
class SciChannelCheck:
    """One channel's inequality margin from verify_sci."""

    channel: int
    name: str
    mi_with_t_bits: float
    bound_bits: float
    margin_bits: float
    passed: bool


@dataclass(frozen=True)
class SciVerification:
    """Per-channel results of the defining SCI inequality check."""

    i: int
    j: int
    delta_bits: float
    checks: tuple[SciChannelCheck, ...]
    passed: bool


def _check_seed(seed: int) -> int:
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def chain_slack_bits(num_samples: int) -> float:
    """Statistical slack for ordering checks between estimated levels."""
    if num_samples < 1:
        raise ParameterDomainError("num_samples must be positive")
    return SLACK_BITS_AT_REFERENCE * math.sqrt(REFERENCE_SAMPLES / num_samples)


def analytic_sci_variance(spec: GaussianEnsembleSpec) -> float:
    """Tuned noise variance for the observation model: delta*delta1/delta_rho^2.

    Raises the no-common-information signal at delta_rho = 0, where the
    target MI is zero and the required variance diverges.
    """
    d = delta_quantities(spec)
    if d.delta_rho == 0.0:
        raise NoCommonInformationError(
            "observations share no information at delta_rho = 0", target_bits=0.0
        )
    if spec.rho == 1.0:
        raise ParameterDomainError("SCI variance degenerates to 0 at rho = 1")
    return d.delta * d.delta1 / d.delta_rho**2


def _orthogonal_unit_noise(carrier: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard normal draw, centered, sample-orthogonal to the carrier, unit std."""
    e = rng.standard_normal(carrier.size)
    e -= e.mean()
    c = carrier - carrier.mean()
    cc = float(c @ c)
    if cc == 0.0:
        raise DegenerateInputError("carrier column is constant")
    e -= (float(e @ c) / cc) * c
    e -= e.mean()
    s = e.std()
    if s == 0.0:
        raise DegenerateInputError("noise degenerated to zero after orthogonalization")
    return e / s


def _tune(
    carrier: np.ndarray,
    target: float,
    cfg: EstimatorConfig,
    bis: BisectionConfig,
    seed: int,
) -> tuple[float, float, int, np.ndarray]:
    """Bisection core: find v with |MI(carrier + sqrt(v) e; carrier) - target| < epsilon.

    Returns (variance, residual, iterations, T).  MI(v) is strictly
    decreasing, so after bracketing [lo, hi] with MI(lo) >= target >= MI(hi)
    a log-space bisection converges; success additionally requires the
    bracket to have collapsed (hi/lo < _BRACKET_REL_TOL) so the variance
    itself, not just the residual, is pinned down.
    """
    rng = np.random.default_rng(_check_seed(seed))
    e = _orthogonal_unit_noise(carrier, rng)
    iterations = 0

    def g(v: float) -> float:
        nonlocal iterations
        iterations += 1
        if iterations > bis.max_iterations:
            raise ConvergenceError(
                f"SCI tuning exceeded {bis.max_iterations} iterations "
                f"(target {target:.6g} bits unreachable on this data)"
            )
        return mi_estimate(carrier + math.sqrt(v) * e, carrier, cfg)

    v0 = bis.initial_variance
    if v0 is None:
        v0 = 1e-3 * float(carrier.var())
        if v0 <= 0.0:
            raise DegenerateInputError("carrier column is constant")

    if g(v0) >= target:
        lo, hi = v0, v0 * bis.bracket_growth
        while g(hi) > target:
            lo = hi
            hi *= bis.bracket_growth
    else:
        lo, hi = v0 / bis.bracket_growth, v0
        while g(lo) < target:
            hi = lo
            lo /= bis.bracket_growth

    best_res = None
    while True:
        mid = math.sqrt(lo * hi)
        gm = g(mid)
        residual = abs(gm - target)
        if best_res is None or residual < best_res:
            best_res = residual
        if residual < bis.epsilon and hi / lo < _BRACKET_REL_TOL:
            return mid, residual, iterations, carrier + math.sqrt(mid) * e
        if mid == lo or mid == hi:
            raise ConvergenceError(
                f"SCI bracket collapsed at v={mid:.6g} with residual "
                f"{best_res:.6g} bits >= epsilon {bis.epsilon:.6g}"
            )
        if gm >= target:
            lo = mid
        else:
            hi = mid


def _target_mi(x_other, carrier, cfg: EstimatorConfig, epsilon: float) -> float:
    est = mi_estimate_full(x_other, carrier, cfg)
    if math.isinf(est.bits):
        raise ConvergenceError(
            "target MI is divergent (identical columns?); no finite noise "
            "variance can match it"
        )
    if est.bits <= epsilon:
        raise NoCommonInformationError(
            f"target MI {est.bits:.6g} bits is at or below epsilon "
            f"{epsilon:.6g}; the pair shares no matchable information",
            target_bits=est.bits,
        )
    return est.bits


def build_sci(
    x_i,
    x_j,
    cfg: EstimatorConfig = EstimatorConfig(),
    bis: BisectionConfig = BisectionConfig(),
    seed: int = 0,
    *,
    base_channel: int | None = None,
    partner_channel: int | None = None,
) -> tuple[SciDescriptor, np.ndarray]:
    """Build T = x_j + noise matching MI(T; x_j) to MI(x_i; x_j).

    The noise goes into the second argument; the construction is asymmetric,
    so callers wanting both orientations build both.  Returns the descriptor
    and the T column.
    """
    xi = np.asarray(x_i, dtype=np.float64)
    xj = np.asarray(x_j, dtype=np.float64)
    if xi.shape != xj.shape or xi.ndim != 1:
        raise DegenerateInputError(
            f"x_i and x_j must be equal-length columns, got {xi.shape} and {xj.shape}"
        )
    target = _target_mi(xi, xj, cfg, bis.epsilon)
    v, residual, iterations, t = _tune(xj, target, cfg, bis, seed)
    desc = SciDescriptor(
        base_channel=base_channel,
        partner_channel=partner_channel,
        noise_variance=v,
        seed=int(seed),
        residual=residual,
        iterations=iterations,
        order=2,
    )
    return desc, t


def verify_sci(
    t,
    channels: ChannelMatrix,
    i: int | str,
    j: int | str,
    cfg: EstimatorConfig = EstimatorConfig(),
    delta_bits: float | None = None,
) -> SciVerification:
    """Check the defining inequality of an SCI built for pair (i, j).

    For every channel g: MI(T; x_g) must not exceed
    min(MI(x_i; x_g), MI(x_j; x_g)) by more than the statistical slack
    ``delta_bits`` (default ``chain_slack_bits`` of the sample count: 0.02
    bits at 1e5 samples, scaled as the inverse square root).  Self-pairs on the bound side carry
    divergent MI and never bind.  Report-only: violations are recorded, not
    raised.
    """
    ta = np.asarray(t, dtype=np.float64)
    ii = channels.index_of(i)
    jj = channels.index_of(j)
    if ta.ndim != 1 or ta.size != channels.n_samples:
        raise DegenerateInputError(
            f"T must be a column of {channels.n_samples} samples, got shape {ta.shape}"
        )
    if delta_bits is None:
        delta_bits = chain_slack_bits(channels.n_samples)

    def bound_side(a: int, g: int) -> float:
        if a == g:
            return math.inf
        est = mi_estimate_full(channels.data[a], channels.data[g], cfg)
        return math.inf if est.self_pair else est.bits

    checks = []
    for g in range(channels.n_channels):
        est = mi_estimate_full(ta, channels.data[g], cfg)
        value = math.inf if est.self_pair else est.bits
        bound = min(bound_side(ii, g), bound_side(jj, g))
        margin = bound + delta_bits - value
        passed = value <= bound + delta_bits
        checks.append(
            SciChannelCheck(
                channel=g,
                name=channels.names[g],
                mi_with_t_bits=value,
                bound_bits=bound,
                margin_bits=margin,
                passed=passed,
            )
        )
    return SciVerification(
        i=ii,
        j=jj,
        delta_bits=delta_bits,
        checks=tuple(checks),
        passed=all(c.passed for c in checks),
    )
