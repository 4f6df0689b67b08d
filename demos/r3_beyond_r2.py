#!/usr/bin/env python3
"""R3 carries what R2 does not, on an exact discrete oracle.

Keeps the first four channels of an N-channel erasure construction. Each
dropped channel's symbol is then common to every kept channel, so any l
kept channels share exactly (N - l) H(Z) bits. With H(Z) = 2 / (N - 2)
the exact R2 is 2 bits at every N, while the exact R3 is (N - 3) H(Z):
1 bit at N = 4 and 1.5 bits at N = 6.

The script prints those exact levels from the oracle, then estimates r2
and r3 with the knn estimator at ten run seeds per N. The two inputs give
nearly the same r2, yet their r3 ranges lie apart: a pairwise summary
cannot tell the inputs apart, the third-order one can.
"""

from functools import reduce
from itertools import combinations
from operator import and_

from hoci import (
    ChannelMatrix,
    EstimatorConfig,
    build_ensemble,
    exact_entropy,
    mask_mi,
    run_estimate,
    sample_channels,
)

KEPT = 4
R2_BITS = 2.0
NUM_SAMPLES = 5_000
DATA_SEED = 1
RUN_SEEDS = range(10)


def binary_pmf_with_entropy(bits: float) -> tuple[float, float]:
    """(p, 1 - p) with H(p) = ``bits``, p in (0, 1/2], by bisection."""
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return (mid, 1.0 - mid)
        lo, hi = (mid, hi) if exact_entropy((mid, 1.0 - mid)) < bits else (lo, mid)


def exact_level(ensemble, level: int) -> float:
    """Min over groups of ``level`` kept channels of I(AND of all but one; the one)."""
    kept = ensemble.membership_masks[:KEPT]
    return min(
        mask_mi(ensemble, reduce(and_, (m for m in group if m != b)), b)
        for group in combinations(kept, level)
        for b in group
    )


def study(big_n: int) -> dict:
    ensemble = build_ensemble(big_n, binary_pmf_with_entropy(R2_BITS / (big_n - 2)))
    full = sample_channels(ensemble, NUM_SAMPLES, seed=DATA_SEED)
    kept = ChannelMatrix(full.names[:KEPT], full.data[:KEPT])
    reports = [
        run_estimate(kept, EstimatorConfig(method="knn"), seed=s, order=3) for s in RUN_SEEDS
    ]
    return {
        "exact": (exact_level(ensemble, 2), exact_level(ensemble, 3)),
        "r2": [rep.levels[2].bits for rep in reports],
        "r3": [rep.levels[3].bits for rep in reports],
    }


def main() -> None:
    low, high = study(4), study(6)
    for big_n, res in ((4, low), (6, high)):
        r2, r3 = res["exact"]
        print(
            f"N={big_n}: exact R2 {r2:.3f}, R3 {r3:.3f} bits; knn r2 "
            f"{min(res['r2']):.3f}-{max(res['r2']):.3f}, r3 "
            f"{min(res['r3']):.3f}-{max(res['r3']):.3f} over run seeds "
            f"{RUN_SEEDS.start}-{RUN_SEEDS.stop - 1}"
        )
    print()
    exact_r2_gap = abs(high["exact"][0] - low["exact"][0])
    exact_r3_gap = high["exact"][1] - low["exact"][1]
    r2_words = "equal" if exact_r2_gap <= 1e-12 else f"{exact_r2_gap:.3f} bits apart"
    print(f"exact: R2 values {r2_words}, R3 values {exact_r3_gap:.3f} bits apart")
    r2_gap = max(abs(a - b) for a in high["r2"] for b in low["r2"])
    overlap = min(high["r3"]) <= max(low["r3"])
    print(f"knn: r2 values differ by at most {r2_gap:.3f} bits, against an exact R3 gap of {exact_r3_gap:.3f}")
    print(
        f"knn: r3 ranges {'overlap' if overlap else 'do not overlap'} "
        f"(N=4 at most {max(low['r3']):.3f}, N=6 at least {min(high['r3']):.3f} bits)"
    )


if __name__ == "__main__":
    main()
