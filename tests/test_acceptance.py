"""Acceptance suite: nine end-to-end checks with explicit tolerances and
runtime budgets.  Each test records one labeled PASS/FAIL line, echoed in
the terminal summary."""

import filecmp
import json
import math
import time

import numpy as np
import pytest

from conftest import record_acceptance
from hoci import (
    ChannelMatrix,
    EstimatorConfig,
    GaussianEnsembleSpec,
    analytic_sci_variance,
    asymptotic_limits,
    build_ensemble,
    build_sci,
    interaction_information,
    mi_x_xi,
    mi_xi_xj,
    r3_lower,
    r4_lower,
    run_estimate,
    sample_channels,
    sample_ensemble,
    verify_theorem5,
)
from hoci.cli import main

RHO_GRID = np.linspace(-0.9, 0.99, 201)
SN2_GRID = np.geomspace(1e-3, 1e3, 61)
SX2_VALUES = (0.1, 1.0, 10.0)
CROSSOVER_RHO = (math.sqrt(6.0) - 1.0) / 5.0


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    record_acceptance(
        f"acceptance {num}/9 {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    )


def _grid_bounds():
    for sx2 in SX2_VALUES:
        for sn2 in SN2_GRID:
            for rho in RHO_GRID:
                spec = GaussianEnsembleSpec(sx2, float(sn2), float(rho))
                yield mi_xi_xj(spec), r3_lower(spec), r4_lower(spec)


def _locate_sign_change(f, lo, hi):
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_closed_form_chain_holds_on_dense_grid():
    t0 = time.monotonic()
    violations = sum(
        1 for r2, r3, r4 in _grid_bounds() if not (r2 >= r3 >= r4 >= 0.0)
    )
    elapsed = time.monotonic() - t0
    points = len(SX2_VALUES) * SN2_GRID.size * RHO_GRID.size
    ok = violations == 0 and elapsed < 5.0
    _line(1, "ordering chain on dense grid", ok,
          f"{violations} violations over {points} points, {elapsed:.2f} s")
    assert violations == 0
    assert elapsed < 5.0


def test_second_to_third_order_gap_bounded_by_half_bit():
    t0 = time.monotonic()
    gaps = [r2 - r3 for r2, r3, _ in _grid_bounds()]
    elapsed = time.monotonic() - t0
    lo, hi = min(gaps), max(gaps)
    ok = lo >= 0.0 and hi <= 0.5 and hi >= 0.49 and elapsed < 5.0
    _line(2, "half-bit gap bound", ok,
          f"gap range [{lo:.2e}, {hi:.6f}] bits, {elapsed:.2f} s")
    assert lo >= 0.0
    assert hi <= 0.5
    assert hi >= 0.49
    assert elapsed < 5.0


def test_crossover_locations_at_reference_parameters():
    t0 = time.monotonic()

    def source_minus_pairwise(rho):
        spec = GaussianEnsembleSpec(1.0, 5.0, rho)
        return mi_x_xi(spec) - mi_xi_xj(spec)

    def interaction(rho):
        return interaction_information(GaussianEnsembleSpec(1.0, 5.0, rho))

    root1 = _locate_sign_change(source_minus_pairwise, 0.1, 0.5)
    root2 = _locate_sign_change(interaction, -0.35, -0.05)
    elapsed = time.monotonic() - t0
    err1 = abs(root1 - CROSSOVER_RHO)
    err2 = abs(root2 - (-0.2))
    ok = err1 <= 0.005 and err2 <= 0.005 and elapsed < 1.0
    _line(3, "curve crossover locations", ok,
          f"roots {root1:.6f} and {root2:.6f}, errors {err1:.2e}/{err2:.2e}, "
          f"{elapsed:.2f} s")
    assert err1 <= 0.005
    assert err2 <= 0.005
    assert elapsed < 1.0


def test_large_noise_limits_match_closed_forms():
    t0 = time.monotonic()
    worst = 0.0
    for rho in (0.3, 0.6, 0.9):
        spec = GaussianEnsembleSpec(1.0, 1e6, rho)
        lim = asymptotic_limits(rho)
        worst = max(
            worst,
            abs(mi_xi_xj(spec) - lim.large_noise_r2_bits),
            abs(r3_lower(spec) - lim.large_noise_r3_bits),
        )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    _line(4, "large-noise asymptotic limits", ok,
          f"worst deviation {worst:.2e} bits, {elapsed:.2f} s")
    assert worst <= 1e-3
    assert elapsed < 1.0


def test_discrete_construction_verifies_exactly():
    t0 = time.monotonic()
    all_exact = True
    worst_enum = 0.0
    for n in (3, 4, 5, 6):
        for a in (2, 3):
            res = verify_theorem5(n, [1.0 / a] * a)
            all_exact = all_exact and res.passed
            for lv in res.levels:
                all_exact = all_exact and lv.exact_match
                assert lv.enumeration_abs_err is not None
                worst_enum = max(worst_enum, lv.enumeration_abs_err)
    elapsed = time.monotonic() - t0
    ok = all_exact and worst_enum <= 1e-10 and elapsed < 10.0
    _line(5, "exact discrete construction", ok,
          f"exact on all levels, worst enumeration error {worst_enum:.2e} bits, "
          f"{elapsed:.2f} s")
    assert all_exact
    assert worst_enum <= 1e-10
    assert elapsed < 10.0


def test_noise_tuning_recovers_analytic_variance():
    t0 = time.monotonic()
    worst_rel = 0.0
    worst_iters = 0
    for sn2 in (1.0, 5.0):
        for rho in (0.0, 0.3):
            spec = GaussianEnsembleSpec(1.0, sn2, rho, n=2)
            target = analytic_sci_variance(spec)
            for trial in range(5):
                m = sample_ensemble(spec, 100_000, seed=1000 + trial)
                desc, _ = build_sci(m.data[0], m.data[1], seed=trial)
                worst_rel = max(
                    worst_rel, abs(desc.noise_variance - target) / target
                )
                worst_iters = max(worst_iters, desc.iterations)
    elapsed = time.monotonic() - t0
    ok = worst_rel <= 0.10 and worst_iters <= 30 and elapsed < 30.0
    _line(6, "tuned noise variance", ok,
          f"worst relative error {worst_rel:.3f}, worst iterations {worst_iters}, "
          f"{elapsed:.2f} s")
    assert worst_rel <= 0.10
    assert worst_iters <= 30
    assert elapsed < 30.0


def test_gaussian_pipeline_reproduces_closed_forms():
    t0 = time.monotonic()
    details = []
    ok = True
    for idx, (sn2, rho) in enumerate([(1.0, 0.0), (1.0, 0.3), (5.0, 0.0), (5.0, 0.3)]):
        spec = GaussianEnsembleSpec(1.0, sn2, rho, n=4)
        m = sample_ensemble(spec, 100_000, seed=300 + idx)
        rep = run_estimate(m, seed=idx, order=4)
        r2_true, r3_true = mi_xi_xj(spec), r3_lower(spec)
        err2 = abs(rep.levels[2].bits - r2_true)
        err3 = abs(rep.levels[3].bits - r3_true)
        ok2 = err2 <= max(0.15 * r2_true, 0.02)
        ok3 = err3 <= max(0.15 * r3_true, 0.02)
        ok4 = rep.levels[4].bits <= rep.levels[3].bits + 0.02
        ok = ok and ok2 and ok3 and ok4
        details.append(f"({sn2},{rho}): {err2:.3f}/{err3:.3f}")
        assert ok2, (sn2, rho, rep.levels[2].bits, r2_true)
        assert ok3, (sn2, rho, rep.levels[3].bits, r3_true)
        assert ok4, (sn2, rho, rep.levels[4].bits, rep.levels[3].bits)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    _line(7, "pipeline vs closed forms", ok,
          "errors " + ", ".join(details) + f", {elapsed:.2f} s")
    assert elapsed < 120.0


def test_discrete_second_order_overestimates_third_order_detects_zero():
    t0 = time.monotonic()
    ens = build_ensemble(3, (0.5, 0.5))
    m = sample_channels(ens, 100_000, seed=4)
    rep = run_estimate(m, EstimatorConfig(method="binned", bins=16), seed=1, order=3)
    elapsed = time.monotonic() - t0
    r2, r3 = rep.levels[2].bits, rep.levels[3].bits
    ok = 0.9 <= r2 <= 1.1 and r3 <= 0.1 and elapsed < 30.0
    _line(8, "order separation on discrete data", ok,
          f"pairwise estimate {r2:.4f} bits, third-order bound {r3:.4f} bits, "
          f"{elapsed:.2f} s")
    assert 0.9 <= r2 <= 1.1
    assert r3 <= 0.1
    assert elapsed < 30.0


def test_independent_nulls_and_byte_identical_reports(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(123)
    data = rng.standard_normal((4, 10_000))
    cm = ChannelMatrix(names=("a", "b", "c", "d"), data=data)
    rep = run_estimate(cm, seed=0, order=4)
    quantities = [rep.levels[2].bits, rep.levels[3].bits, rep.levels[4].bits]
    quantities += list(rep.rbar.values()) + list(rep.rtilde.values())
    worst = max(quantities)

    csv_path = tmp_path / "null.csv"
    rows = [",".join(cm.names)]
    rows += [
        ",".join(repr(float(v)) for v in data[:, t]) for t in range(data.shape[1])
    ]
    csv_path.write_text("\n".join(rows) + "\n")
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["estimate", "--input", str(csv_path), "--order", "4", "--seed", "3", "--out"]
    rc_a = main(args + [str(out_a)])
    rc_b = main(args + [str(out_b)])
    identical = filecmp.cmp(out_a, out_b, shallow=False)
    elapsed = time.monotonic() - t0
    ok = worst <= 0.05 and rc_a == rc_b == 0 and identical and elapsed < 30.0
    _line(9, "nulls and deterministic reports", ok,
          f"largest null quantity {worst:.2e} bits, byte-identical={identical}, "
          f"{elapsed:.2f} s")
    assert worst <= 0.05
    assert rc_a == 0 and rc_b == 0
    assert identical
    assert elapsed < 30.0
    # the reports really carry content, not just equal emptiness
    doc = json.loads(out_a.read_text())
    assert doc["seed"] == 3
    assert doc["config"]["order"] == 4
