"""Counter-based binomial sampling for sampled readout.

Each row's key words are folded into one uint64 with the SplitMix64
finaliser, whose top 53 bits are a uniform, and the uniform is mapped
through the inverse CDF of Binomial(shots, P). A draw therefore depends on
its key and P only, and is the same on any platform. A table has
O(sqrt(shots)) entries; shots are capped at `rules.MAX_SHOTS`, where the
widest (P = 0.5) has 655,441.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .rules import check_shots

# SplitMix64's increment and finaliser multipliers (Steele, Lea and Flood,
# "Fast splittable pseudorandom number generators", OOPSLA 2014).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LIMB = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser, a bijection of uint64 arrays (wrapping)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniforms(key: Sequence[int | np.ndarray], rows: int) -> np.ndarray:
    """One uniform in [0, 1) per row, hashed from the row's key words.

    A word is a non-negative int shared by every row or an unsigned integer
    array with one entry per row. Each word is folded in as its count of
    64-bit limbs and then its limbs, least significant first, so a word of
    any size (config.seed has no bound) gets a key of its own, and an array
    entry folds exactly like the int of the same value.
    """
    h = np.zeros(1, dtype=np.uint64)
    for word in key:
        if isinstance(word, np.ndarray):
            limbs = [1, word]
        else:
            word = operator.index(word)
            if word < 0:
                raise ValueError(f"key words must be non-negative, got {word}")
            shifts = range(0, max(word.bit_length(), 1), 64)
            limbs = [(word >> s) & _LIMB for s in shifts]
            limbs = [len(limbs), *limbs]
        for limb in limbs:
            h = _mix64((h ^ np.uint64(limb)) + _GAMMA)
    h = np.broadcast_to(h, (rows,))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _binomial_cdf(shots: int, p: float) -> tuple[int, np.ndarray]:
    """(lo, cdf): cdf[j] = P(X <= lo + j) for X ~ Binomial(shots, p), 0 < p < 1.

    The table covers mean +- (10 sd + 40), clipped to [0, shots]; by
    Bernstein's inequality the mass outside it is below 1e-21. It is
    normalised by its own total, so its last entry is exactly 1.0.
    """
    mean = shots * p
    half = 10.0 * math.sqrt(mean * (1.0 - p)) + 40.0
    lo = max(0, math.floor(mean - half))
    hi = min(shots, math.ceil(mean + half))
    k = np.arange(lo, hi, dtype=np.float64)
    # log pmf(k + 1) - log pmf(k), summed up from log pmf(lo) = 0
    steps = np.log((shots - k) / (k + 1.0)) + math.log(p / (1.0 - p))
    log_pmf = np.concatenate(([0.0], np.cumsum(steps)))
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    return lo, cdf / cdf[-1]


def sample_rates(
    probs: np.ndarray,
    shots: int,
    key: Sequence[int | np.ndarray],
    tables: dict[float, tuple[int, np.ndarray]] | None = None,
) -> np.ndarray:
    """The hit rate of one Binomial(shots, probs[r]) draw for every row r.

    Row r's draw is the inverse binomial CDF of one uniform hashed from its
    key words (see _uniforms), so it depends on its key and P only, never
    on the other rows of the call. One CDF table is built per distinct P,
    when a row first needs it, and kept in `tables` (P -> _binomial_cdf's
    table for these shots), so calls that pass one dict with the same
    shots build each table once. A P <= 0 reads 0 and a P >= 1 reads 1
    (summed squares can overshoot 1 by an ulp).
    """
    check_shots(shots)
    if tables is None:
        tables = {}
    u = _uniforms(key, len(probs))
    counts = np.where(probs >= 1.0, float(shots), 0.0)
    distinct, inverse = np.unique(probs, return_inverse=True)
    for j, p in enumerate(distinct.tolist()):
        if 0.0 < p < 1.0:
            rows = inverse == j
            if p not in tables:
                tables[p] = _binomial_cdf(shots, p)
            lo, cdf = tables[p]
            counts[rows] = lo + np.searchsorted(cdf, u[rows], side="right")
    return counts / shots
