"""Sufficient-common-information (SCI) construction by noise injection.

An SCI for a channel pair (i, j) is T = x_j + Z with Z independent Gaussian
noise whose variance v is tuned until the estimated MI between T and x_j
matches the estimated MI between x_i and x_j.

The injected noise is made exactly orthogonal to the carrier column (in
sample), centred and of unit variance, so under the parametric
``gaussian_logdet`` estimator MI(T; x_j) = 1/2 log2(1 + var(x_j)/v) exactly.
That estimator's tuning therefore solves v in closed form,
v = var(x_j) / (2^(2 I) - 1), and spends one estimator call to check it.
The ``binned`` and ``knn`` estimators have no such form: since I(x_j + Z;
x_j) is strictly decreasing in v, they tune by a bracketed bisection in
log-variance.  For the Gaussian observation model the tuned variance also
has a population value, delta*delta1/delta_rho^2
(``analytic_sci_variance``), used for validation.  Noise is seeded per
descriptor, so rebuilding with the same inputs and seed reproduces T bit
for bit.

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
from .estimators import EstimatorConfig, PreparedColumns, _pair, mi_estimate, mi_estimate_full
from .gaussian import GaussianEnsembleSpec, delta_quantities, mmse_coefficients

# bisection also terminates on bracket width, not residual alone: a wide
# bracket can straddle the target with a lucky midpoint while the variance
# is still far off
_BRACKET_REL_TOL = 1.005
# the bisection starts at this fraction of the carrier variance and grows or
# shrinks the bracket by this factor until it straddles the target
_START_VARIANCE_FRACTION = 1e-3
_BRACKET_GROWTH = 2.0
_LN2 = math.log(2.0)
_MIN_NORMAL = float(np.finfo(np.float64).tiny)
# statistical slack for chain and SCI checks: 0.02 bits at 1e5 samples, ~ N^(-1/2)
SLACK_BITS_AT_REFERENCE = 0.02
REFERENCE_SAMPLES = 10**5


@dataclass(frozen=True)
class BisectionConfig:
    """Tuning-loop settings for the SCI noise variance."""

    epsilon: float = 1e-3
    max_iterations: int = 60

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if not (isinstance(self.max_iterations, (int, np.integer)) and self.max_iterations >= 10):
            raise ConfigurationError(
                f"max_iterations must be an integer >= 10, got {self.max_iterations}"
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
    """Tuned noise variance for the observation model: the first-stage MMSE
    error variance ``mmse_coefficients(spec).sigma_eps_j2``.

    Raises the no-common-information signal at delta_rho = 0, where the
    target MI is zero and the required variance diverges.
    """
    if delta_quantities(spec).delta_rho == 0.0:
        raise NoCommonInformationError(
            "observations share no information at delta_rho = 0", target_bits=0.0
        )
    return mmse_coefficients(spec).sigma_eps_j2


def _orthogonal_unit_noise(carrier: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Standard normal draw, centered, sample-orthogonal to the carrier, unit std."""
    e = rng.standard_normal(carrier.size)
    e -= e.mean()
    c = carrier - carrier.mean()
    e -= (float(e @ c) / float(c @ c)) * c
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
    columns: PreparedColumns | None,
) -> tuple[float, float, int, np.ndarray]:
    """Find v with |MI(carrier + sqrt(v) e; carrier) - target| < epsilon.

    Returns (variance, residual, iterations, T); ``iterations`` counts
    estimator calls.  Under ``gaussian_logdet`` the estimate is exactly
    1/2 log2(1 + var(carrier)/v), because e is centred, unit-variance and
    sample-orthogonal to the carrier; v is then solved in closed form and
    checked with one call.  The bracket-width test below does not apply to
    it: v is fixed analytically, not by a midpoint.

    Otherwise (binned, knn, or a closed-form check that misses epsilon) a
    bisection runs from 1e-3 * var(carrier): MI(v) is strictly decreasing,
    so after bracketing [lo, hi] with MI(lo) >= target >= MI(hi) a
    log-space bisection converges; success additionally requires the
    bracket to have collapsed (hi/lo < _BRACKET_REL_TOL) so the variance
    itself, not just the residual, is pinned down.

    ``columns``, the run's table of prepared columns if there is one, goes
    to every estimator call: it holds the carrier's preparation, and each
    candidate T is prepared by the call that reads it, only the last one
    being held.
    """
    rng = np.random.default_rng(_check_seed(seed))
    with np.errstate(over="ignore"):  # refused below
        var = float(carrier.var())
    # a subnormal variance has lost digits and would make subnormal noise
    if not _MIN_NORMAL <= var < math.inf:
        raise DegenerateInputError(f"carrier variance {var:.6g} is not a normal float64")
    e = _orthogonal_unit_noise(carrier, rng)
    iterations = 0

    def g(v: float) -> tuple[float, np.ndarray]:
        nonlocal iterations
        iterations += 1
        if iterations > bis.max_iterations:
            raise ConvergenceError(
                f"SCI tuning exceeded {bis.max_iterations} iterations "
                f"(target {target:.6g} bits unreachable on this data)"
            )
        t = carrier + math.sqrt(v) * e
        return mi_estimate(t, carrier, cfg, columns=columns), t

    if cfg.method == "gaussian_logdet":
        v = var / math.expm1(2.0 * target * _LN2)
        gv, t = g(v)
        residual = abs(gv - target)
        if residual < bis.epsilon:
            return v, residual, iterations, t
    v0 = _START_VARIANCE_FRACTION * var

    if g(v0)[0] >= target:
        lo, hi = v0, v0 * _BRACKET_GROWTH
        while g(hi)[0] > target:
            lo = hi
            hi *= _BRACKET_GROWTH
    else:
        lo, hi = v0 / _BRACKET_GROWTH, v0
        while g(lo)[0] < target:
            hi = lo
            lo /= _BRACKET_GROWTH

    best_res = None
    while True:
        # the product keeps its bits while normal; roots keep it from over- or underflowing
        prod = lo * hi
        mid = math.sqrt(prod) if _MIN_NORMAL <= prod < math.inf else math.sqrt(lo) * math.sqrt(hi)
        gm, t = g(mid)
        residual = abs(gm - target)
        if best_res is None or residual < best_res:
            best_res = residual
        if residual < bis.epsilon and hi / lo < _BRACKET_REL_TOL:
            return mid, residual, iterations, t
        if mid == lo or mid == hi:
            raise ConvergenceError(
                f"SCI bracket collapsed at v={mid:.6g} with residual "
                f"{best_res:.6g} bits >= epsilon {bis.epsilon:.6g}"
            )
        if gm >= target:
            lo = mid
        else:
            hi = mid


def _target_mi(
    x_other, carrier, cfg: EstimatorConfig, epsilon: float, columns: PreparedColumns | None
) -> float:
    bits = mi_estimate(x_other, carrier, cfg, columns=columns)
    if math.isinf(bits):
        raise ConvergenceError(
            "target MI is divergent (identical columns?); no finite noise "
            "variance can match it"
        )
    if bits <= epsilon:
        raise NoCommonInformationError(
            f"target MI {bits:.6g} bits is at or below epsilon "
            f"{epsilon:.6g}; the pair shares no matchable information",
            target_bits=bits,
        )
    return bits


def build_sci(
    x_i,
    x_j,
    cfg: EstimatorConfig = EstimatorConfig(),
    bis: BisectionConfig = BisectionConfig(),
    seed: int = 0,
    *,
    base_channel: int | None = None,
    partner_channel: int | None = None,
    columns: PreparedColumns | None = None,
) -> tuple[SciDescriptor, np.ndarray]:
    """Build T = x_j + noise matching MI(T; x_j) to MI(x_i; x_j).

    The noise goes into the second argument; the construction is asymmetric,
    so callers wanting both orientations build both.  Returns the descriptor
    and the T column.  ``columns`` is the run's table of prepared columns
    for ``cfg``, holding x_i and x_j; the last T it holds is the returned
    one, so the caller can keep that at no cost.
    """
    xi, xj = _pair(x_i, x_j)
    target = _target_mi(xi, xj, cfg, bis.epsilon, columns)
    v, residual, iterations, t = _tune(xj, target, cfg, bis, seed, columns)
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
    ii = channels.index_of(i)
    jj = channels.index_of(j)
    if delta_bits is None:
        delta_bits = chain_slack_bits(channels.n_samples)

    def bound_side(a: int, g: int) -> float:
        if a == g:
            return math.inf
        est = mi_estimate_full(channels.data[a], channels.data[g], cfg)
        return math.inf if est.self_pair else est.bits

    checks = []
    for g in range(channels.n_channels):
        est = mi_estimate_full(t, channels.data[g], cfg)
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
