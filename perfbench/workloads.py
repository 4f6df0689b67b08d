"""Workload table, seeded input generators and exact oracles.

BENCHMARK.json lists the gated workloads.  knn-o3-n4 stays runnable by name
but is not gated: its two-thread kNN kernel does not follow the host speed
probe (hostspeed.py), so its rescaled time moved by about a quarter between
two ten-run sets while the host's speed changed.

The generators and closed forms are written here, independently of the
package, so a change to the package's own samplers or formulas can neither
change the benchmark's inputs nor its reference values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Symmetric Gaussian observation model shared by three workloads.
SIGMA_X2 = 1.0
SIGMA_N2 = 1.0
RHO = 0.3
# Discrete erasure construction: binary uniform base symbols, packed by place
# value with radix 4 * alphabet size (the package's default spacing).
DISCRETE_RADIX = 8
DISCRETE_ENTROPY_BITS = 1.0
# report key of each level
LEVEL_KEYS = {2: "r2", 3: "r3_lower", 4: "r4_lower"}


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "gaussian" or "discrete"
    n: int  # channels
    num_samples: int
    order: int
    estimator: str  # value of `hoci estimate --estimator`
    extra_args: tuple[str, ...]
    hoci_seed: int  # fixed `hoci estimate --seed`; the data seed varies
    why: str

    def estimate_args(self, csv_path: str, out_path: str) -> list[str]:
        return [
            "estimate", "--input", csv_path, "--out", out_path,
            "--order", str(self.order), "--estimator", self.estimator,
            "--seed", str(self.hoci_seed), *self.extra_args,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gauss-o4-n12", "gaussian", 12, 10_000, 4, "gaussian", (), 41,
            "surrogate tuning and the r3/r4 scans dominate: about 10k estimator "
            "calls per report, 58% of them in the r4 scan",
        ),
        Workload(
            "ingest-n16-o2", "gaussian", 16, 50_000, 2, "gaussian", (), 42,
            "CSV ingest dominates; order 2 skips tuning and scans, so estimator "
            "work is only the 120 pairwise calls",
        ),
        Workload(
            "knn-o3-n4", "gaussian", 4, 2_000, 3, "knn", (), 43,
            "the nonparametric kNN kernel and the tuning call count dominate; "
            "the Gaussian closed forms are bypassed",
        ),
        Workload(
            "discrete-o4-n4", "discrete", 4, 50_000, 4, "binned", ("--bins", "128"), 44,
            "exact oracle at every order and the only binned user; r4 reads "
            "about 0.92 bits against an exact 0",
        ),
    )
}


def generate(w: Workload, seed: int) -> np.ndarray:
    """Channels-by-samples data for a workload; the same seed gives the same data."""
    rng = np.random.default_rng([seed, *w.name.encode()])
    if w.model == "gaussian":
        # X_i = X + N_i, noise equicorrelated with coefficient RHO >= 0
        x = math.sqrt(SIGMA_X2) * rng.standard_normal(w.num_samples)
        own = rng.standard_normal((w.n, w.num_samples))
        common = rng.standard_normal(w.num_samples)
        noise = math.sqrt(SIGMA_N2) * (math.sqrt(1.0 - RHO) * own + math.sqrt(RHO) * common)
        return x[None, :] + noise
    # X_i is the tuple of every base symbol except Z_i
    z = rng.integers(0, 2, size=(w.n, w.num_samples))
    rows = []
    for i in range(w.n):
        others = [t for t in range(w.n) if t != i]
        rows.append(sum(z[t] * DISCRETE_RADIX**pos for pos, t in enumerate(others)))
    return np.array(rows, dtype=np.float64)


def write_csv(data: np.ndarray, path: str) -> None:
    """Rows = time, header of channel names x1..xn, values at full precision."""
    names = ",".join(f"x{i + 1}" for i in range(data.shape[0]))
    with open(path, "w") as fh:
        fh.write(names + "\n")
        np.savetxt(fh, data.T, delimiter=",", fmt="%.17g")


def oracle_bits(w: Workload) -> dict[int, float]:
    """Exact value of each level the workload's order reports, in bits.

    Gaussian: the closed forms R2 = 1/2 log2(d^2/d1) and the R3/R4 lower
    bounds.  Discrete: (n - l) H(Z).
    """
    if w.model == "discrete":
        return {lvl: (w.n - lvl) * DISCRETE_ENTROPY_BITS for lvl in range(2, w.order + 1)}
    d = SIGMA_X2 + SIGMA_N2
    dr = SIGMA_X2 + RHO * SIGMA_N2
    d1 = d * d - dr * dr
    d2 = d * d + dr * dr
    r2 = 0.5 * math.log2(d * d / d1)
    r3 = r2 + 0.5 * math.log2(d * d / d2)
    r4 = r3 + 0.5 * math.log2(0.5 + 0.5 * d1 * d2 / d**4)
    return {lvl: v for lvl, v in ((2, r2), (3, r3), (4, r4)) if lvl <= w.order}
