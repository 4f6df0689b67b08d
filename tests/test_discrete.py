"""Exact discrete construction: mask algebra, the enumeration oracle, the
level-by-level verification, and channel sampling."""

import math
from functools import reduce
from itertools import combinations
from operator import and_

import numpy as np
import pytest

from hoci import (
    CapacityError,
    ChannelMatrix,
    ConfigurationError,
    DegenerateInputError,
    EstimatorConfig,
    ParameterDomainError,
    all_level_masks,
    build_ensemble,
    build_t_level,
    enumerate_mask_mi,
    exact_entropy,
    mask_mi,
    run_estimate,
    sample_channels,
    verify_theorem5,
)
from hoci.discrete import ENUMERATION_TOL, _codes, _next_level, _outcome_table

H_QUARTER = 0.8112781244591328  # H(1/4, 3/4)
LOG2_3 = 1.584962500721156

UNIFORM2 = (0.5, 0.5)
UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)
SKEWED2 = (0.25, 0.75)


class TestEntropy:
    def test_known_values(self):
        assert exact_entropy(UNIFORM2) == 1.0
        assert exact_entropy(SKEWED2) == pytest.approx(H_QUARTER, rel=1e-14)
        assert exact_entropy(UNIFORM3) == pytest.approx(LOG2_3, rel=1e-14)
        assert exact_entropy((1.0, 0.0)) == 0.0

    def test_pmf_validation(self):
        with pytest.raises(ParameterDomainError):
            exact_entropy((1.0,))
        with pytest.raises(ParameterDomainError):
            exact_entropy((0.5, 0.6))
        with pytest.raises(ParameterDomainError):
            exact_entropy((-0.1, 1.1))
        with pytest.raises(ParameterDomainError):
            exact_entropy((0.5, float("nan")))


class TestEnsembleConstruction:
    def test_canonical_masks_n3(self):
        ens = build_ensemble(3, UNIFORM2)
        # character t is symbol t's membership flag
        strings = {
            "".join("1" if (m >> t) & 1 else "0" for t in range(ens.n))
            for m in ens.membership_masks
        }
        assert strings == {"011", "101", "110"}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_each_mask_omits_exactly_its_own_symbol(self, n):
        ens = build_ensemble(n, UNIFORM2)
        assert len(ens.membership_masks) == n
        for i, mask in enumerate(ens.membership_masks):
            assert mask.bit_count() == n - 1
            assert (mask >> i) & 1 == 0

    def test_construction_validation(self):
        with pytest.raises(ParameterDomainError):
            build_ensemble(2, UNIFORM2)
        with pytest.raises(ParameterDomainError):
            build_ensemble(4, (0.7, 0.7))

    def test_entropy_property(self):
        assert build_ensemble(3, SKEWED2).entropy_bits == pytest.approx(
            H_QUARTER, rel=1e-14
        )


class TestMaskMi:
    def test_overlap_weight_times_entropy(self):
        ens = build_ensemble(4, UNIFORM2)
        a, b = ens.membership_masks[0], ens.membership_masks[1]
        assert mask_mi(ens, a, b) == 2.0  # two shared symbols, 1 bit each
        assert mask_mi(ens, a, a) == 3.0
        assert mask_mi(ens, a, 0) == 0.0

    def test_scaling_with_base_entropy(self):
        ens = build_ensemble(4, UNIFORM3)
        a, b = ens.membership_masks[0], ens.membership_masks[1]
        assert mask_mi(ens, a, b) == pytest.approx(2 * LOG2_3, rel=1e-14)

    def test_mask_validation(self):
        ens = build_ensemble(3, UNIFORM2)
        with pytest.raises(ParameterDomainError):
            mask_mi(ens, 8, 1)
        with pytest.raises(ParameterDomainError):
            mask_mi(ens, -1, 1)

    def test_discrete_settings_pass_the_integer_rule(self):
        ens = build_ensemble(3, UNIFORM2)
        for mask in (1.5, True):
            for mi in (mask_mi, enumerate_mask_mi):
                with pytest.raises(ParameterDomainError, match="is not a length-3 bit-string"):
                    mi(ens, mask, 7)
        for level in (2.0, True):
            with pytest.raises(ParameterDomainError, match="level must lie in"):
                build_t_level(ens, level)
        for radix in (2.5, math.nan):
            with pytest.raises(ParameterDomainError, match="cannot injectively encode"):
                sample_channels(ens, 100, 1, radix=radix)
        # numpy integers pass
        assert mask_mi(ens, np.int64(3), 7) == enumerate_mask_mi(ens, np.int64(3), 7) == 2.0
        assert build_t_level(ens, np.int64(2)) == build_t_level(ens, 2)
        assert sample_channels(ens, 100, 1, radix=np.int64(8)).n_samples == 100


class TestEnumerationOracle:
    """The joint-pmf enumeration must reproduce the weight shortcut."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("pmf", [UNIFORM2, UNIFORM3, SKEWED2])
    def test_agreement_on_all_canonical_pairs(self, n, pmf):
        ens = build_ensemble(n, pmf)
        for a in ens.membership_masks:
            for b in ens.membership_masks:
                assert abs(
                    enumerate_mask_mi(ens, a, b) - mask_mi(ens, a, b)
                ) <= 1e-10

    def test_agreement_on_intersections(self):
        ens = build_ensemble(4, SKEWED2)
        pairs = build_t_level(ens, 2)
        for a in pairs:
            for b in ens.membership_masks:
                assert abs(
                    enumerate_mask_mi(ens, a, b) - mask_mi(ens, a, b)
                ) <= 1e-10

    def test_full_mask_self_information(self):
        ens = build_ensemble(3, SKEWED2)
        full = (1 << 3) - 1
        assert enumerate_mask_mi(ens, full, full) == pytest.approx(
            3 * H_QUARTER, abs=1e-10
        )

    def test_capacity_cap(self):
        ens = build_ensemble(13, UNIFORM3)  # 3^13 > 10^6 states
        a, b = ens.membership_masks[0], ens.membership_masks[1]
        with pytest.raises(CapacityError):
            enumerate_mask_mi(ens, a, b)

    def test_joint_table_cap(self, monkeypatch):
        # 2^5 states fit a cap of 100; the 2^4 x 2^4 joint table does not
        monkeypatch.setattr("hoci.discrete.ENUMERATION_CAP", 100)
        ens = build_ensemble(5, UNIFORM2)
        a, b = ens.membership_masks[0], ens.membership_masks[1]
        with pytest.raises(CapacityError):
            enumerate_mask_mi(ens, a, b)


class TestLevelSets:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_levels_are_all_masks_of_expected_weight(self, n):
        ens = build_ensemble(n, UNIFORM2)
        for level in range(1, n):
            masks = build_t_level(ens, level)
            assert len(masks) == math.comb(n, n - level)
            assert masks == all_level_masks(n, level)

    def test_level_one_is_the_originals(self):
        ens = build_ensemble(5, UNIFORM2)
        assert build_t_level(ens, 1) == frozenset(ens.membership_masks)

    def test_level_bounds(self):
        ens = build_ensemble(4, UNIFORM2)
        with pytest.raises(ParameterDomainError):
            build_t_level(ens, 0)
        with pytest.raises(ParameterDomainError):
            build_t_level(ens, 4)

    def test_canonical_sizes(self):
        ens = build_ensemble(6, UNIFORM2)
        assert len(build_t_level(ens, 2)) == 15
        assert len(build_t_level(ens, 5)) == 6
        assert all_level_masks(4, 3) == frozenset({0b0001, 0b0010, 0b0100, 0b1000})


class TestVerification:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("pmf", [UNIFORM2, UNIFORM3, SKEWED2])
    def test_construction_verifies_exactly(self, n, pmf):
        res = verify_theorem5(n, pmf)
        assert res.passed
        assert res.n == n
        assert len(res.levels) == n - 1
        h = exact_entropy(pmf)
        for lv in res.levels:
            assert lv.expected_bits == (n - lv.level) * h
            assert lv.exact_match
            assert lv.min_mask_mi_bits == lv.expected_bits
            assert lv.enumeration_abs_err is not None
            assert lv.enumeration_abs_err <= 1e-10
        assert res.levels[-1].level == n
        assert res.levels[-1].expected_bits == 0.0

    def test_enumeration_skipped_over_cap(self, monkeypatch):
        monkeypatch.setattr("hoci.discrete.ENUMERATION_CAP", 10)
        res = verify_theorem5(5, UNIFORM2)
        assert res.passed  # the exact shortcut still verifies
        assert all(lv.enumeration_bits is None for lv in res.levels)
        assert all(lv.enumeration_abs_err is None for lv in res.levels)

    def test_enumeration_skipped_when_joint_table_exceeds_cap(self, monkeypatch):
        # 2^5 states fit under 100, the 2^8-cell joint table of two X_i does not
        monkeypatch.setattr("hoci.discrete.ENUMERATION_CAP", 100)
        res = verify_theorem5(5, UNIFORM2)
        assert res.passed
        assert all(lv.enumeration_bits is None for lv in res.levels)
        assert all(lv.enumeration_abs_err is None for lv in res.levels)


    def test_level_walk_over_cap_refused(self, monkeypatch):
        # the widest level holds C(n, n // 2) masks: C(6, 3) = 20, C(7, 3) = 35
        monkeypatch.setattr("hoci.discrete.ENUMERATION_CAP", 20)
        assert verify_theorem5(6, UNIFORM2).passed
        with pytest.raises(CapacityError, match=r"C\(7, 3\) = 35"):
            verify_theorem5(7, UNIFORM2)

    def test_level_walk_cap_at_default(self):
        # C(23, 11) = 1,352,078 masks exceed the default 10^6 for any alphabet
        with pytest.raises(CapacityError):
            verify_theorem5(23, UNIFORM3)


def _binary_pmf_with_entropy(bits):
    """(p, 1 - p) with H(p) = ``bits``, p in (0, 1/2], by bisection."""
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return (mid, 1.0 - mid)
        lo, hi = (mid, hi) if exact_entropy((mid, 1.0 - mid)) < bits else (lo, mid)


class TestRestrictedConstruction:
    """The first four channels of an N-channel construction: each dropped
    symbol is common to every kept channel, so any l kept channels share
    (N - l) H(Z) bits.  With H(Z) = 2/(N - 2), R2 is 2 bits at every N while
    R3 and R4 move: R3 carries what R2 does not."""

    KEPT = 4

    @staticmethod
    def _levels(ens, mi):
        # level l: an original kept mask against the AND of l - 1 other kept masks
        kept = ens.membership_masks[: TestRestrictedConstruction.KEPT]
        levels = {}
        for ell in (2, 3, 4):
            values = []
            for group in combinations(kept, ell):
                for b in group:
                    a = reduce(and_, (m for m in group if m != b))
                    values.append(mi(ens, a, b))
            levels[ell] = min(values)
        return levels

    @pytest.mark.parametrize(
        "big_n, expected", [(5, (2.0, 4 / 3, 2 / 3)), (6, (2.0, 1.5, 1.0))]
    )
    def test_levels_by_shortcut_and_enumeration(self, big_n, expected):
        ens = build_ensemble(big_n, _binary_pmf_with_entropy(2.0 / (big_n - 2)))
        h = ens.entropy_bits
        assert h == pytest.approx(2.0 / (big_n - 2), abs=1e-15)
        shortcut = self._levels(ens, mask_mi)
        enumerated = self._levels(ens, enumerate_mask_mi)
        for ell in (2, 3, 4):
            assert shortcut[ell] == (big_n - ell) * h
            assert abs(enumerated[ell] - (big_n - ell) * h) <= ENUMERATION_TOL
        assert [shortcut[ell] for ell in (2, 3, 4)] == pytest.approx(expected, abs=1e-12)

    def test_equal_r2_with_r3_apart(self):
        five, six = (
            self._levels(build_ensemble(n, _binary_pmf_with_entropy(2.0 / (n - 2))), mask_mi)
            for n in (5, 6)
        )
        assert five[2] == pytest.approx(six[2], abs=1e-12)
        assert six[3] - five[3] == pytest.approx(1 / 6, abs=1e-12)
        assert six[4] - five[4] == pytest.approx(1 / 3, abs=1e-12)

    # twice the largest error of knn's r2 and r3 over run seeds 0-9 at these
    # inputs (0.043 and 0.074 bits, both at N=6), rounded up
    KNN_TOL_BITS = 0.15

    @pytest.mark.parametrize("big_n", [4, 5, 6])
    def test_knn_reads_the_exact_r2_and_r3(self, big_n):
        ens = build_ensemble(big_n, _binary_pmf_with_entropy(2.0 / (big_n - 2)))
        full = sample_channels(ens, 5_000, seed=1)
        kept = ChannelMatrix(full.names[: self.KEPT], full.data[: self.KEPT])
        rep = run_estimate(kept, EstimatorConfig(method="knn"), seed=0, order=3)
        assert rep.levels[2].bits == pytest.approx(2.0, abs=self.KNN_TOL_BITS)
        assert rep.levels[3].bits == pytest.approx(
            (big_n - 3) * ens.entropy_bits, abs=self.KNN_TOL_BITS
        )

class TestSampling:
    def test_deterministic(self):
        ens = build_ensemble(4, UNIFORM2)
        a = sample_channels(ens, 500, seed=7)
        b = sample_channels(ens, 500, seed=7)
        c = sample_channels(ens, 500, seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.names == ("x1", "x2", "x3", "x4")
        assert a.data.shape == (4, 500)

    @pytest.mark.parametrize("pmf,radix", [(UNIFORM2, 8), (UNIFORM3, 12)])
    def test_default_radix_separates_scales(self, pmf, radix):
        # default radix is 4 * alphabet_size
        ens = build_ensemble(3, pmf)
        m = sample_channels(ens, 200, seed=1)
        A = len(pmf)
        digits_hi = np.floor(m.data / radix)
        digits_lo = m.data - digits_hi * radix
        assert set(np.unique(digits_lo)) <= set(range(A))
        assert set(np.unique(digits_hi)) <= set(range(A))

    def test_channels_agree_on_shared_symbols(self):
        # decode each channel back to its symbol tuple and cross-check
        ens = build_ensemble(4, UNIFORM2)
        radix = 8
        m = sample_channels(ens, 300, seed=3)
        decoded = {}
        for i, mask in enumerate(ens.membership_masks):
            symbols = [t for t in range(4) if (mask >> t) & 1]
            for pos, t in enumerate(symbols):
                digit = np.mod(np.floor(m.data[i] / radix**pos), radix)
                if t in decoded:
                    assert np.array_equal(decoded[t], digit)
                else:
                    decoded[t] = digit
        for digit in decoded.values():
            assert set(np.unique(digit)) <= {0.0, 1.0}

    def test_dense_radix_allowed_smaller_rejected(self):
        ens = build_ensemble(3, UNIFORM3)
        m = sample_channels(ens, 100, seed=2, radix=3)
        assert float(m.data.max()) <= 8.0  # two base-3 digits
        with pytest.raises(ParameterDomainError):
            sample_channels(ens, 100, seed=2, radix=2)

    def test_sample_count_validation(self):
        ens = build_ensemble(3, UNIFORM2)
        with pytest.raises(ParameterDomainError):
            sample_channels(ens, 0, seed=1)
        with pytest.raises(DegenerateInputError):
            sample_channels(ens, 10, seed=1)  # below the channel minimum

    @pytest.mark.parametrize("seed", [-1, 2.7])
    def test_seed_follows_the_run_seed_rule(self, seed):
        # handed to numpy, -1 would raise with no hoci error code and 2.7 would sample as 2
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
            sample_channels(build_ensemble(3, UNIFORM2), 100, seed=seed)

    def test_sample_count_must_be_an_integer(self):
        with pytest.raises(ParameterDomainError, match="positive integer, got 100.5"):
            sample_channels(build_ensemble(3, UNIFORM2), 100.5, seed=1)


def _joint_mi_dense(probs, a, b):
    """The dense A^|a| x A^|b| joint table that _joint_mi replaced."""
    (ca, na), (cb, nb) = a, b
    joint = np.bincount(ca * nb + cb, weights=probs, minlength=na * nb).reshape(na, nb)
    nz = joint > 0.0
    pj = joint[nz]
    return float((pj * np.log2(pj / np.outer(joint.sum(axis=1), joint.sum(axis=0))[nz])).sum())


class TestSparseJointTable:
    """The occupied-cell joint table agrees with the dense one on every pair
    the level walk of verify_theorem5 enumerates."""

    @pytest.mark.parametrize(
        "n,pmf",
        [(4, SKEWED2), (6, SKEWED2), (8, SKEWED2), (10, SKEWED2), (8, UNIFORM2),
         (4, UNIFORM3), (6, UNIFORM3), (4, (0.2, 0.0, 0.8))],
    )
    def test_every_level_pair_matches_dense(self, n, pmf):
        ens = build_ensemble(n, pmf)
        grid, probs = _outcome_table(ens)
        originals = ens.membership_masks
        prev, gaps = frozenset(originals), []
        for _ in range(2, n + 1):
            codes = {m: _codes(grid, ens.alphabet_size, m) for m in prev.union(originals)}
            for a in prev:
                for b in originals:
                    sparse = enumerate_mask_mi(ens, a, b)
                    gaps.append(sparse - _joint_mi_dense(probs, codes[a], codes[b]))
            prev = _next_level(prev, originals)
        assert len(gaps) == sum(math.comb(n, n - ell + 1) for ell in range(2, n + 1)) * n
        assert np.all(np.abs(gaps) <= 1e-12)  # a NaN fails too
