"""Exact discrete construction with tunable overlap and its brute-force oracle.

The construction: draw n i.i.d. base symbols Z_1..Z_n from one pmf and let
X_i be the (n-1)-tuple of all symbols except Z_i.  Any l of the X_i then
share exactly n-l base symbols, so the l-th order common information is
(n-l) H(Z) — in particular the pairwise value (n-2) H(Z) grossly
overestimates the (n-th order) information common to all variables, which is
zero by construction.

Membership is represented as integer bit-masks: bit t of a mask says whether
base symbol t is included.  The canonical X_i masks have a single zero at
position t = i.  Intersections (AND) of masks realize the sufficient-common-
information variables level by level, and the MI between any two mask
variables reduces to weight(a AND b) * H(Z) because the base symbols are
i.i.d.  A full joint-pmf enumeration provides an independent oracle for that
shortcut, capped by state-space size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable

import numpy as np

from .channels import ChannelMatrix, check_seed, is_integer
from .errors import ENUMERATION_CAP, CapacityError, ParameterDomainError

ENUMERATION_TOL = 1e-10
PMF_TOL = 1e-12

# Default spacing factor between successive digit scales in sampled channels;
# see sample_channels.
RADIX_FACTOR = 4


def exact_entropy(pmf) -> float:
    """Shannon entropy -sum p log2 p in bits, with 0 log 0 = 0."""
    p = _validate_pmf(pmf)
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _validate_pmf(pmf) -> np.ndarray:
    p = np.asarray(pmf, dtype=np.float64)
    if p.ndim != 1 or p.size < 2:
        raise ParameterDomainError("pmf must be a vector over an alphabet of size >= 2")
    if (p < 0.0).any() or not np.isfinite(p).all():
        raise ParameterDomainError("pmf entries must be finite and nonnegative")
    if abs(float(p.sum()) - 1.0) > PMF_TOL:
        raise ParameterDomainError(f"pmf sums to {float(p.sum())!r}, not 1")
    return p


@dataclass(frozen=True)
class DiscreteEnsemble:
    """The canonical n-symbol construction over one base pmf."""

    n: int
    alphabet_size: int
    base_pmf: tuple[float, ...]
    entropy_bits: float
    membership_masks: tuple[int, ...]


def build_ensemble(n: int, base_pmf) -> DiscreteEnsemble:
    """Build the canonical ensemble: mask i has its single zero at position i."""
    if not (is_integer(n) and n >= 3):
        raise ParameterDomainError(f"n must be an integer >= 3, got {n}")
    p = _validate_pmf(base_pmf)
    full = (1 << n) - 1
    return DiscreteEnsemble(
        n=int(n),
        alphabet_size=int(p.size),
        base_pmf=tuple(float(v) for v in p),
        entropy_bits=exact_entropy(p),
        membership_masks=tuple(full & ~(1 << i) for i in range(n)),
    )


def _check_mask(ensemble: DiscreteEnsemble, mask: int) -> int:
    if not (is_integer(mask) and 0 <= mask < (1 << ensemble.n)):
        raise ParameterDomainError(f"mask {mask} is not a length-{ensemble.n} bit-string")
    return int(mask)


def mask_mi(ensemble: DiscreteEnsemble, mask_a: int, mask_b: int) -> float:
    """Exact MI in bits between two mask variables: weight(a AND b) * H(Z).

    Because the base symbols are i.i.d., the two symbol tuples share exactly
    the overlap symbols and the MI is the overlap's joint entropy.
    """
    a = _check_mask(ensemble, mask_a)
    b = _check_mask(ensemble, mask_b)
    return (a & b).bit_count() * ensemble.entropy_bits


def _outcome_table(ensemble: DiscreteEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """All A^n outcomes: symbol values (row per symbol) and their probabilities."""
    A, n = ensemble.alphabet_size, ensemble.n
    grid = np.indices((A,) * n).reshape(n, A**n)
    pmf = np.asarray(ensemble.base_pmf)
    probs = np.ones(A**n)
    for t in range(n):
        probs *= pmf[grid[t]]
    return grid, probs


def _codes(grid: np.ndarray, A: int, mask: int) -> tuple[np.ndarray, int]:
    """Each outcome's index among the A^|mask| values of the masked tuple, and
    that count; symbol t's digit weighs A^rank, ranked from the lowest set bit."""
    rows = [t for t in range(grid.shape[0]) if (mask >> t) & 1]
    return A ** np.arange(len(rows)) @ grid[rows], A ** len(rows)


def _entropies(ensemble: DiscreteEnsemble) -> Callable[[int], float]:
    """Each mask's tuple entropy in bits over all A^n outcomes, computed once
    per mask: one weighted ``np.bincount`` over its ``_codes``."""
    grid, probs = _outcome_table(ensemble)

    @cache
    def entropy(mask: int) -> float:
        p = np.bincount(_codes(grid, ensemble.alphabet_size, mask)[0], weights=probs)
        p = p[p > 0.0]
        return float(-(p * np.log2(p)).sum())

    return entropy


def _enumerated_mi(entropy: Callable[[int], float], a: int, b: int) -> float:
    # the two tuples are a one-to-one function of their union's tuple
    return entropy(a) + entropy(b) - entropy(a | b)


def enumerate_mask_mi(ensemble: DiscreteEnsemble, mask_a: int, mask_b: int) -> float:
    """Independent oracle: MI from the full joint pmf over both tuples.

    Enumerates all alphabet_size^n outcomes into the pmf of each tuple and
    of their union, H(a) + H(b) - H(a OR b); refuses requests where the
    outcome count or the A^|a| x A^|b| joint table's size exceeds
    ``ENUMERATION_CAP``.
    """
    a = _check_mask(ensemble, mask_a)
    b = _check_mask(ensemble, mask_b)
    A, n = ensemble.alphabet_size, ensemble.n
    if A**n > ENUMERATION_CAP:
        raise CapacityError(
            f"enumeration over {A}^{n} = {A**n} states exceeds cap {ENUMERATION_CAP}"
        )
    wa, wb = a.bit_count(), b.bit_count()
    if A ** (wa + wb) > ENUMERATION_CAP:
        raise CapacityError(
            f"joint table of {A}^{wa} x {A}^{wb} cells exceeds cap {ENUMERATION_CAP}"
        )
    return _enumerated_mi(_entropies(ensemble), a, b)


def _next_level(masks: frozenset[int], originals: tuple[int, ...]) -> frozenset[int]:
    """One construction step: AND each mask with each original, keeping only
    intersections that remove a symbol (an AND that changes nothing is not a
    new overlap)."""
    return frozenset(a & b for a in masks for b in originals if (a & b) != a)


def build_t_level(ensemble: DiscreteEnsemble, level: int) -> frozenset[int]:
    """Deduplicated masks of the level-l construction.

    Level 1 is the original masks; level l applies ``_next_level`` to level
    l-1.  For the canonical ensemble this yields all weight-(n-l) masks,
    C(n, n-l) of them.
    """
    if not (is_integer(level) and 1 <= level <= ensemble.n - 1):
        raise ParameterDomainError(
            f"level must lie in [1, {ensemble.n - 1}], got {level}"
        )
    masks = frozenset(ensemble.membership_masks)
    for _ in range(level - 1):
        masks = _next_level(masks, ensemble.membership_masks)
    return masks


@dataclass(frozen=True)
class LevelVerification:
    level: int
    expected_bits: float
    min_mask_mi_bits: float
    exact_match: bool
    enumeration_bits: float | None
    enumeration_abs_err: float | None


@dataclass(frozen=True)
class Theorem5Verification:
    n: int
    alphabet_size: int
    entropy_bits: float
    levels: tuple[LevelVerification, ...]
    passed: bool


def verify_theorem5(n: int, base_pmf) -> Theorem5Verification:
    """Check the construction's common-information values level by level.

    For each l in [2, n], the minimum MI between a level-(l-1) mask and an
    original mask must equal (n-l) H(Z) exactly on the weight-shortcut path,
    and match the joint-pmf enumeration within ``ENUMERATION_TOL`` when the
    largest joint table, A^(2n-2) cells for two original masks, fits under
    ``ENUMERATION_CAP``.  (l = n is included: the information common to all
    n variables is zero by construction.)  The level walk holds up to
    C(n, n // 2) masks at once; above ``ENUMERATION_CAP`` it is refused with
    ``CapacityError`` before any level is built.
    """
    ens = build_ensemble(n, base_pmf)
    half = ens.n // 2
    widest = math.comb(ens.n, half)
    if widest > ENUMERATION_CAP:
        raise CapacityError(
            f"level walk over C({ens.n}, {half}) = {widest} masks exceeds cap {ENUMERATION_CAP}"
        )
    h, A, originals = ens.entropy_bits, ens.alphabet_size, ens.membership_masks
    entropy = _entropies(ens) if A ** (2 * ens.n - 2) <= ENUMERATION_CAP else None
    levels = []
    prev = frozenset(originals)
    for ell in range(2, ens.n + 1):
        # weight * h is monotone in the weight, so this is the min of mask_mi
        min_shortcut = min((a & b).bit_count() for a in prev for b in originals) * h
        expected = (ens.n - ell) * h
        enum_val = enum_err = None
        if entropy is not None:
            enum_val = min(_enumerated_mi(entropy, a, b) for a in prev for b in originals)
            enum_err = abs(enum_val - expected)
        levels.append(
            LevelVerification(
                level=ell,
                expected_bits=expected,
                min_mask_mi_bits=min_shortcut,
                exact_match=min_shortcut == expected,
                enumeration_bits=enum_val,
                enumeration_abs_err=enum_err,
            )
        )
        prev = _next_level(prev, originals)
    passed = all(
        lv.exact_match
        and (lv.enumeration_abs_err is None or lv.enumeration_abs_err <= ENUMERATION_TOL)
        for lv in levels
    )
    return Theorem5Verification(
        n=ens.n,
        alphabet_size=A,
        entropy_bits=h,
        levels=tuple(levels),
        passed=passed,
    )


def sample_channels(
    ensemble: DiscreteEnsemble,
    num_samples: int,
    seed: int,
    radix: int | None = None,
) -> ChannelMatrix:
    """Draw i.i.d. base symbols and encode each X_i tuple as one real channel.

    Each tuple is packed by place value: symbol ranks within the mask map to
    digit positions with weight radix^position.  The radix defaults to
    RADIX_FACTOR * alphabet_size rather than the dense alphabet_size: the
    spacing between successive digit scales is what lets an additive-noise
    analysis degrade the encoded symbols one scale at a time instead of
    blurring all of them simultaneously.  A dense radix (= alphabet_size) is
    still valid and injective, just without that separation.
    """
    if not (is_integer(num_samples) and num_samples >= 1):
        raise ParameterDomainError(f"num_samples must be a positive integer, got {num_samples!r}")
    if radix is None:
        radix = RADIX_FACTOR * ensemble.alphabet_size
    if not (is_integer(radix) and radix >= ensemble.alphabet_size):
        raise ParameterDomainError(
            f"radix {radix} cannot injectively encode alphabet of size {ensemble.alphabet_size}"
        )
    rng = np.random.default_rng(check_seed(seed))
    z = rng.choice(ensemble.alphabet_size, size=(ensemble.n, num_samples), p=ensemble.base_pmf)
    rows = []
    for mask in ensemble.membership_masks:
        symbols = [t for t in range(ensemble.n) if (mask >> t) & 1]
        enc = np.zeros(num_samples)
        for pos, t in enumerate(symbols):
            enc += z[t] * float(radix) ** pos
        rows.append(enc)
    names = tuple(f"x{i + 1}" for i in range(ensemble.n))
    return ChannelMatrix._adopt(names, np.array(rows))


def all_level_masks(n: int, level: int) -> frozenset[int]:
    """All weight-(n-level) masks of length n (reference for dedup checks)."""
    out = set()
    for missing in combinations(range(n), level):
        m = (1 << n) - 1
        for i in missing:
            m &= ~(1 << i)
        out.add(m)
    return frozenset(out)
