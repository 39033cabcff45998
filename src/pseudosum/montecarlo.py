"""Seeded Monte Carlo for i.i.d. pseudo-sums, reproducible bit for bit.

Uniforms come from SplitMix64 (Steele, Lea & Flood) used in counter mode:
draw number ``trial * m + step`` is a pure function of the seed, so the
histogram is identical across runs and across any partitioning of trials.
Floats are 53-bit mantissa draws in [0, 1).

`empirical_fold` walks the trials in fixed blocks of ``_BLOCK`` and takes
one fold step at a time within a block, so its working memory is
O(_BLOCK + N) whatever the number of trials and the fold length.  Indices
come from a guide-table inverse CDF (Chen & Asau 1974), built once per law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError
from .dist import Distribution
from .lut import LutTable

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_BLOCK = 1 << 14  # trials folded together by empirical_fold


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: RNG seed, number of trials, fold length m."""

    seed: int
    trials: int
    m: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValidityError("trials must be >= 1")
        if self.m < 1:
            raise ValidityError("fold length m must be >= 1")


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MUL1
    z = (z ^ (z >> _U64(27))) * _MUL2
    return z ^ (z >> _U64(31))


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """SplitMix64 output for each counter, reduced to a float in [0, 1)."""
    base = _U64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = _mix64(base + (counters + _U64(1)) * _GAMMA)
    return (z >> _U64(11)).astype(np.float64) * 2.0**-53


class _InverseCdf:
    """Guide-table inverse CDF of one law (Chen & Asau 1974).

    Maps u in [0, 1) to the smallest k with cdf[k] > u, capped at the last
    index of positive mass: the cdf is set to inf from that index on, so a
    point of mass 0 is never drawn, even when u reaches the rounded total.

    Bucket b of K = 2^ceil(log2(8N)) holds u in [b/K, (b+1)/K); the answer
    is monotone in u, so it lies in [g[b], g[b+1]] with g[b] the answer at
    b/K.  One comparison settles buckets where g[b+1] - g[b] <= 1; the
    others, which hold at most N/(2K) <= 1/16 of the mass of u, fall back to
    a binary search.  Bucketing is exact: K is a power of two.
    """

    def __init__(self, p: np.ndarray):
        cdf = np.cumsum(p)
        cdf[np.flatnonzero(p)[-1]:] = np.inf
        k = 1 << (8 * p.size - 1).bit_length()
        g = np.searchsorted(cdf, np.arange(k + 1) / k, side="right")
        self.cdf, self.k, self.g = cdf, k, g
        self.wide = np.diff(g) >= 2
        self.any_wide = bool(self.wide.any())

    def __call__(self, u: np.ndarray) -> np.ndarray:
        b = (u * self.k).astype(np.intp)
        lo = self.g[b]
        idx = lo + (self.cdf[lo] <= u)
        if self.any_wide:
            wide = self.wide[b]
            idx[wide] = np.searchsorted(self.cdf, u[wide], side="right")
        return idx


def sample_index(p: Distribution, u: float) -> int:
    """Inverse-CDF draw: the smallest k whose cumulative mass exceeds u,
    capped at the last index of positive mass."""
    if not 0.0 <= u < 1.0:
        raise ValidityError(f"u must lie in [0, 1), got {u!r}")
    return int(_InverseCdf(p.p)(np.array([u]))[0])


def empirical_fold(
    lut: LutTable, p: Distribution, cfg: SimConfig, workers: int = 1
) -> Distribution:
    """Empirical law of the m-fold pseudo-sum over cfg.trials trials.

    Each trial left-folds m inverse-CDF samples through the table.  Trials
    are processed in fixed blocks, one fold step at a time, so memory stays
    bounded whatever cfg.trials and cfg.m.  `workers` must be >= 1; it is
    kept for compatibility and changes neither the result nor the work.
    """
    if lut.n != p.n:
        raise ValidityError(f"dimension mismatch: {lut.n} != {p.n}")
    if workers < 1:
        raise ValidityError("workers must be >= 1")
    n, m, seed = lut.n, cfg.m, cfg.seed
    flat = lut.table.ravel()
    draw = _InverseCdf(p.p)
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, cfg.trials, _BLOCK):
        trial_ids = np.arange(lo, min(lo + _BLOCK, cfg.trials), dtype=np.uint64)
        base = trial_ids * _U64(m)
        acc = draw(_uniforms(seed, base))
        for j in range(1, m):
            acc = flat[acc * n + draw(_uniforms(seed, base + _U64(j)))]
        counts += np.bincount(acc, minlength=n)
    return Distribution(counts / cfg.trials)
