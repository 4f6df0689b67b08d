#!/usr/bin/env python3
"""Run the pipeline end to end and compare with closed forms.

Draws a four-channel Gaussian ensemble with known parameters, runs the
full estimate up to order four, and lines the estimates up against the
exact bounds for those parameters and against the noise-injection
construction's limit, which the fourth-order estimate approaches instead
of R4_lower. Under gaussian_logdet the pipeline samples no surrogate: it
reads each candidate off the sample correlation matrix. So the demo then
builds one surrogate common input by hand, as the binned and knn
estimators do inside the pipeline: inject tuned noise into x_j until
I(T; x_j) matches the pairwise MI(x_i; x_j), verify that T carries no more
about any channel than the pair itself does, and read off the residual. A
final pass on pure noise shows the no-common-information path.

The build seed is derived from the run seed and the carrier channel's name,
as run_estimate derives it, rather than reused directly: injected noise
drawn from the same stream that generated the data would be correlated with
the source and break the verification.
"""

import numpy as np

from hoci import (
    ChannelMatrix,
    GaussianEnsembleSpec,
    analytic_sci_variance,
    build_sci,
    delta_quantities,
    derive_sci_seed,
    mi_estimate,
    mi_xi_xj,
    r3_lower,
    r4_lower,
    run_estimate,
    sample_ensemble,
    verify_sci,
)

SPEC = GaussianEnsembleSpec(sigma_x2=1.0, sigma_n2=1.0, rho=0.3, n=4)
NUM_SAMPLES = 100_000
SEED = 5


def full_pipeline(channels: ChannelMatrix) -> None:
    report = run_estimate(channels, seed=SEED, order=4)
    d = delta_quantities(SPEC)
    r = d.delta_rho / d.delta  # population correlation between two channels
    rows = [
        ("R2", report.levels[2].bits, mi_xi_xj(SPEC)),
        ("R3_lower", report.levels[3].bits, r3_lower(SPEC)),
        ("R4_lower", report.levels[4].bits, r4_lower(SPEC)),
    ]
    print(f"run_estimate on {channels.data.shape[0]} channels x {NUM_SAMPLES} samples:")
    for name, est, exact in rows:
        print(f"  {name:>8}: estimate {est:.4f} bits, closed form {exact:.4f} bits")
    print(f"  construction limit of R4_lower: -1/2 log2(1 - r^6) = {-0.5 * np.log2(1 - r**6):.4f} bits")
    print(f"  averaged bounds: " + ", ".join(f"Rbar{k} = {v:.4f}" for k, v in sorted(report.rbar.items())))
    print(f"  surrogates sampled: {len(report.sci_descriptors)} (gaussian_logdet reads the correlations)")
    print(f"  chain holds: {report.chain_ok}")
    print()


def one_surrogate(channels: ChannelMatrix) -> None:
    x1, x2 = channels.data[0], channels.data[1]
    build_seed = derive_sci_seed(SEED, channels.names[1])
    descriptor, t = build_sci(x1, x2, seed=build_seed, base_channel=1, partner_channel=0)
    print("single surrogate common input for the pair (x1, x2):")
    print(
        f"  tuned noise variance {descriptor.noise_variance:.3f} "
        f"(analytic {analytic_sci_variance(SPEC):.3f})"
    )
    print(f"  residual {descriptor.residual:.2e} bits after {descriptor.iterations} tuning steps")
    print(f"  I(T; x2) = {mi_estimate(t, x2):.4f} bits, matching I(x1; x2) = {mi_estimate(x1, x2):.4f}")
    print(f"  I(T; x3) = {mi_estimate(t, channels.data[2]):.4f} bits (closed-form R3 {r3_lower(SPEC):.4f})")
    check = verify_sci(t, channels, 0, 1)
    print(f"  verification passed: {check.passed}")
    for item in check.checks:
        print(f"    {item.name}: margin {item.margin_bits:+.4f} bits")
    print()


def no_common_information() -> None:
    rng = np.random.default_rng(11)
    data = rng.standard_normal((3, 20_000))
    channels = ChannelMatrix(names=("a", "b", "c"), data=data)
    report = run_estimate(channels, seed=SEED, order=3)
    print("independent channels:")
    print(f"  R3_lower = {report.levels[3].bits}, reason: {report.levels[3].reason}")
    for exc in report.exclusions[:2]:
        print(f"  excluded pair {exc.pair}: {exc.code}")


if __name__ == "__main__":
    channels = sample_ensemble(SPEC, NUM_SAMPLES, seed=SEED)
    full_pipeline(channels)
    one_surrogate(channels)
    no_common_information()
