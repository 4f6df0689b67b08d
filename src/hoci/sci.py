"""Sufficient-common-information (SCI) construction by noise injection.

An SCI for a channel pair (i, j) is T = x_j + Z with Z independent Gaussian
noise whose variance v is tuned until the estimated MI between T and x_j
matches the estimated MI between x_i and x_j.

The injected noise is made exactly orthogonal to the carrier column (in
sample), centred and of unit variance, so under the parametric
``gaussian_logdet`` estimator MI(T; x_j) = 1/2 log2(1 + var(x_j)/v) exactly,
and v = var(x_j) / (2^(2 I) - 1) solves the tuning in closed form.  A
carrier's first tuning starts there; ``binned`` and ``knn`` go on with a
safeguarded root search in ln v (``_tune``).  The observation model's tuned
variance has a population value, ``gaussian.analytic_sci_variance``, used
for validation.  Noise is seeded per carrier: the unit noise e depends on
the carrier and the seed alone, so the same inputs and seed rebuild T bit
for bit, and a run's ``PreparedColumns`` table holds one carrier's e, and
the points its searches measured, for all its surrogates.

The tuning tolerance ``EPSILON`` (bits) and call budget ``MAX_ITERATIONS``
are fixed properties of the estimator, not settings of a run; a report
records them under its ``bisection`` key.  A target MI at or below
``EPSILON`` is reported as a no-common-information signal rather than a
failure: there is nothing for the construction to match, and minimizing
callers count the pair as contributing zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelMatrix, check_seed, is_integer
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    NoCommonInformationError,
    ParameterDomainError,
)
from .estimators import EstimatorConfig, PreparedColumns, _pair, mi_estimate, mi_estimate_full

# accept only inside a bracket this narrow (hi/lo): a wide one can hold a
# point within epsilon while the variance is still far off
_BRACKET_REL_TOL = 1.005
# shortest search step in ln v, just inside the bracket tolerance
_PROBE = math.log(1.0045)
_MAX_REACH = 8.0  # longest step in ln v while the target is not bracketed
_LN2 = math.log(2.0)
_MIN_NORMAL = float(np.finfo(np.float64).tiny)
_LN_V_RANGE = (math.log(_MIN_NORMAL), math.log(float(np.finfo(np.float64).max)))
# statistical slack for chain and SCI checks: 0.02 bits at 1e5 samples, ~ N^(-1/2)
SLACK_BITS_AT_REFERENCE = 0.02
REFERENCE_SAMPLES = 10**5
# tuning tolerance in bits, and the estimator calls one tuning may spend
EPSILON = 1e-3
MAX_ITERATIONS = 60


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


def chain_slack_bits(num_samples: int) -> float:
    """Statistical slack for ordering checks between estimated levels."""
    if not (is_integer(num_samples) and num_samples >= 1):
        raise ParameterDomainError("num_samples must be positive")
    return SLACK_BITS_AT_REFERENCE * math.sqrt(REFERENCE_SAMPLES / num_samples)


def _orthogonal_unit_noise(carrier: np.ndarray, seed: int) -> np.ndarray:
    """Standard normal draw, centered, sample-orthogonal to the carrier, unit std."""
    e = np.random.default_rng(seed).standard_normal(carrier.size)
    e -= e.mean()
    c = carrier - carrier.mean()
    e -= (float(e @ c) / float(c @ c)) * c
    e -= e.mean()
    s = e.std()
    if s == 0.0:
        raise DegenerateInputError("noise degenerated to zero after orthogonalization")
    return e / s


def _carrier_noise(
    carrier: np.ndarray, seed: int, columns: PreparedColumns | None
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """The carrier's unit noise for ``seed`` and its measured curve, the
    (u, v, bits) of every tuning call made on it: one noise draw and one
    curve per carrier in a run, ``columns`` holding the last carrier's only."""
    if columns is None:
        return _orthogonal_unit_noise(carrier, seed), []
    held, held_seed = columns.noise[:2]
    if held is not carrier or held_seed != seed:
        columns.noise = (None, None, None, None)  # the last carrier's noise is freed first
        columns.noise = (carrier, seed, _orthogonal_unit_noise(carrier, seed), [])
    return columns.noise[2:]


def _surrogate(carrier: np.ndarray, e: np.ndarray, v: float) -> np.ndarray:
    t = e * math.sqrt(v)  # one allocation: the same bits as carrier + sqrt(v) * e
    t += carrier
    return t


def _y(bits: float) -> float:
    """ln(2^(2 bits) - 1): ln(var / v) under the Gaussian model."""
    a = 2.0 * bits * _LN2
    return a + math.log(-math.expm1(-a)) if bits > 0.0 else -math.inf


def _model_root(pts: list[tuple[float, float]], bracketed: bool) -> float:
    """Zero of a model of r(u) through the points (u, r), newest last: slope
    -1 through one; unbracketed, a secant with its slope kept in [-4, -1/4];
    bracketed, Muller's quadratic through three, else a secant, or NaN."""
    u, r = pts[-1]
    if len(pts) == 1:
        return u + r
    a, ra = pts[-2]
    s = (r - ra) / (u - a)
    if not bracketed:
        return u - r / min(max(s, -4.0), -0.25)
    if len(pts) > 2 and s != 0.0:
        b, rb = pts[-3]
        q = (s - (ra - rb) / (a - b)) / (u - b)
        w = s + q * (u - a)  # the quadratic's slope at u
        disc = w * w - 4.0 * r * q
        if disc >= 0.0 and w != 0.0:
            return u - 2.0 * r / (w + math.copysign(math.sqrt(disc), w))
    return u - r / s if s < 0.0 else math.nan


def _tune(
    carrier: np.ndarray,
    target: float,
    cfg: EstimatorConfig,
    seed: int,
    columns: PreparedColumns | None,
) -> tuple[float, float, int, np.ndarray]:
    """Find v with |MI(carrier + sqrt(v) e; carrier) - target| < ``EPSILON``.

    Returns (variance, residual, iterations, T): ``iterations`` is the
    estimator calls this search made (each given ``columns``), and T comes
    from the last of them, or is rebuilt bit for bit at the accepted point
    when there was none.  The search runs in u = ln v against r = y(MI) -
    y(target), where the Gaussian model is a line of slope -1, under Brent's
    safeguards: no step shorter than ``_PROBE``; unbracketed, none longer
    than ``_MAX_REACH``; bracketed, a bisection unless the step stays inside
    and is under half the step before last.  A point within ``EPSILON`` is
    probed ``_PROBE`` across, the probe staying out of the model, and
    accepted once the bracket [lo, hi], MI(lo) >= target > MI(hi), has
    hi/lo < ``_BRACKET_REL_TOL`` (the variance, not just the residual, is
    pinned); a probe that closes the bracket off epsilon steps back beside
    the point.  A search whose v leaves the normal float64 range fails as
    unreachable, like one that spends its budget.

    The curve v -> MI(T(v); carrier) does not depend on the target, so a
    search goes on from the points the carrier's earlier searches measured:
    the tightest on either side in u bracket the target unless noise
    inverted them, the three nearest seed the model, and it resumes at the
    nearer end.  A target they already bracket within ``EPSILON`` costs no
    call.  With no points, and always under ``gaussian_logdet``, the first
    call is at the closed form, which ``gaussian_logdet`` accepts on its
    residual alone.
    """
    seed = check_seed(seed)
    with np.errstate(over="ignore"):  # refused below
        var = float(carrier.var())
    # a subnormal variance has lost digits and would make subnormal noise
    if not _MIN_NORMAL <= var < math.inf:
        raise DegenerateInputError(f"carrier variance {var:.6g} is not a normal float64")
    e, curve = _carrier_noise(carrier, seed, columns)
    lo = hi = None  # (u, v, residual) of the tightest points with MI >= and < target
    pts: dict[float, float] = {}  # r by u of the modelled points, newest last
    if curve and cfg.method != "gaussian_logdet":
        lo = max((p for p in curve if p[2] >= target), default=None)
        hi = min((p for p in curve if p[2] < target), default=None)
        u, v, bits = min((p for p in (lo, hi) if p), key=lambda p: abs(p[2] - target))
        if not (lo and hi and lo[0] < hi[0]):  # one side unmeasured, or inverted by noise
            lo = hi = None
        lo, hi = (p and (p[0], p[1], abs(p[2] - target)) for p in (lo, hi))
        near = sorted(curve, key=lambda p: -abs(p[2] - target))[-3:]  # nearest last
        pts = {pu: _y(pbits) - _y(target) for pu, _, pbits in near if pbits > 0.0}
        first = 0
    else:
        v = var / math.expm1(2.0 * target * _LN2)
        u, first = math.log(v), 1
        if cfg.method == "gaussian_logdet":
            curve = []  # each target is solved from the closed form alone
    steps, probed, flat = [math.inf, math.inf], False, False  # steps in u
    for iterations in range(first, MAX_ITERATIONS + 1):
        if iterations:
            if not _LN_V_RANGE[0] <= u < _LN_V_RANGE[1]:
                raise ConvergenceError(
                    f"SCI tuning left the normal float64 range at v = e^{u:.6g} "
                    f"(target {target:.6g} bits unreachable on this data)"
                )
            t = _surrogate(carrier, e, v)
            bits = mi_estimate(t, carrier, cfg, columns=columns)
            curve.append((u, v, bits))
        residual = abs(bits - target)
        if iterations == 1 and cfg.method == "gaussian_logdet" and residual < EPSILON:
            return v, residual, iterations, t
        lo, hi = ((u, v, residual), hi) if bits >= target else (lo, (u, v, residual))
        closed = lo and hi and hi[1] < lo[1] * _BRACKET_REL_TOL
        if closed and residual < EPSILON:
            return v, residual, iterations, t if iterations else _surrogate(carrier, e, v)
        r = _y(bits) - _y(target)
        modelled = not probed  # a probe stays out of the model
        if modelled and math.isfinite(r):
            pts[u] = r
        model = list(pts.items())[-3:]
        d = _model_root(model, bool(lo and hi)) - u if math.isfinite(r) else math.nan
        if abs(d) < _PROBE:
            d = math.copysign(_PROBE, d)
        # probe across a point within epsilon, but not across a probe, nor again
        # along an unbracketed run of such points, where the MI lies flat
        probed = residual < EPSILON and modelled and (bool(lo and hi) or not flat)
        flat = residual < EPSILON if modelled else flat
        if probed:
            d = _PROBE if bits >= target else -_PROBE
        elif closed and min(lo[2], hi[2]) < EPSILON:  # back beside the end within epsilon
            d = 0.999 * ((lo if lo[2] < hi[2] else hi)[0] - u)
        elif lo and hi:
            if not (lo[0] < u + d < hi[0] and abs(d) < 0.5 * steps[-2]):
                d = 0.5 * (lo[0] + hi[0]) - u
        elif not abs(d) <= _MAX_REACH:
            d = math.copysign(_MAX_REACH, r)
        steps.append(abs(d))
        u += d
        v = math.exp(min(u, _LN_V_RANGE[1]))  # a u out of range is refused above
        if lo and hi and not lo[1] < v < hi[1]:
            raise ConvergenceError(
                f"SCI bracket collapsed at v={v:.6g} with residual "
                f"{min(lo[2], hi[2]):.6g} bits >= epsilon {EPSILON:.6g}"
            )
    raise ConvergenceError(
        f"SCI tuning exceeded {MAX_ITERATIONS} iterations "
        f"(target {target:.6g} bits unreachable on this data)"
    )


def _checked_target(bits: float) -> float:
    """The tuning target rule: a pair's MI in bits is a target unless it is
    divergent (``ConvergenceError``) or at or below ``EPSILON`` (the
    no-common-information signal)."""
    if math.isinf(bits):
        raise ConvergenceError(
            "target MI is divergent (identical columns?); no finite noise "
            "variance can match it"
        )
    if bits <= EPSILON:
        raise NoCommonInformationError(
            f"target MI {bits:.6g} bits is at or below epsilon "
            f"{EPSILON:.6g}; the pair shares no matchable information",
            target_bits=bits,
        )
    return bits


def build_sci(
    x_i,
    x_j,
    cfg: EstimatorConfig = EstimatorConfig(),
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
    target = _checked_target(mi_estimate(xi, xj, cfg, columns=columns))
    v, residual, iterations, t = _tune(xj, target, cfg, seed, columns)
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
) -> SciVerification:
    """Check the defining inequality of an SCI built for pair (i, j).

    For every channel g: MI(T; x_g) must not exceed
    min(MI(x_i; x_g), MI(x_j; x_g)) by more than the statistical slack
    ``delta_bits``, the ``chain_slack_bits`` of the sample count (0.02 bits
    at 1e5 samples, scaled as the inverse square root).  Self-pairs on the
    bound side carry divergent MI and never bind.  Report-only: violations
    are recorded, not raised.
    """
    ii = channels.index_of(i)
    jj = channels.index_of(j)
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
