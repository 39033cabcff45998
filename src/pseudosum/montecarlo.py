"""Seeded Monte Carlo for i.i.d. pseudo-sums, reproducible bit for bit.

Uniforms come from SplitMix64 (Steele, Lea & Flood) used in counter mode:
draw number ``trial * m + step`` is a pure function of the seed, so the
histogram is identical across runs and across any partitioning of trials
into workers.  Floats are 53-bit mantissa draws in [0, 1).
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


def _inverse_cdf(cdf: np.ndarray, u):
    """The smallest k with cdf[k] > u, for each u; clamped to the last index
    for u the rounded total mass does not exceed."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def sample_index(p: Distribution, u: float) -> int:
    """Inverse-CDF draw: the smallest k whose cumulative mass exceeds u."""
    if not 0.0 <= u < 1.0:
        raise ValidityError(f"u must lie in [0, 1), got {u!r}")
    return int(_inverse_cdf(np.cumsum(p.p), u))


def empirical_fold(
    lut: LutTable, p: Distribution, cfg: SimConfig, workers: int = 1
) -> Distribution:
    """Empirical law of the m-fold pseudo-sum over cfg.trials trials.

    Each trial left-folds m inverse-CDF samples through the table.  Trials
    are partitioned into contiguous blocks per worker, but the counter-mode
    RNG makes the result independent of the partitioning.
    """
    if lut.n != p.n:
        raise ValidityError(f"dimension mismatch: {lut.n} != {p.n}")
    if workers < 1:
        raise ValidityError("workers must be >= 1")
    n = lut.n
    table = lut.table
    cdf = np.cumsum(p.p)
    counts = np.zeros(n, dtype=np.int64)
    bounds = np.linspace(0, cfg.trials, workers + 1).astype(np.int64)
    m = cfg.m
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        trial_ids = np.arange(lo, hi, dtype=np.uint64)
        with np.errstate(over="ignore"):
            counters = trial_ids[:, None] * _U64(m) + np.arange(m, dtype=np.uint64)
        u = _uniforms(cfg.seed, counters)
        idx = _inverse_cdf(cdf, u)
        acc = idx[:, 0]
        for j in range(1, m):
            acc = table[acc, idx[:, j]]
        counts += np.bincount(acc, minlength=n)
    return Distribution(counts / cfg.trials)
