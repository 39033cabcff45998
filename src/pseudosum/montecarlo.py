"""Seeded Monte Carlo for i.i.d. pseudo-sums, reproducible bit for bit.

Uniforms come from SplitMix64 (Steele, Lea & Flood) used in counter mode:
draw number ``trial * m + step`` is a pure function of the seed, so the
histogram is identical across runs and across any partitioning of trials.
A draw is the 53-bit word w = output >> 11, standing for u = w * 2^-53 in
[0, 1).

`empirical_fold` walks the trials in fixed blocks of ``_BLOCK`` and takes
one fold step at a time within a block, so its working memory is
O(_BLOCK + N) whatever the number of trials and the fold length.  The
SplitMix64 state of a block steps in place, and indices come from a
guide-table inverse CDF (Chen & Asau 1974; Devroye 1986, III.2.4) built
once per law, that compares words with integer thresholds: the fold
converts no float.  The guide grows until one probe settles every bucket
(or to a fixed cap), and the few draws in buckets it leaves wide are found
by their sentinel index and binary-searched.  On a max table each trial
draws once, from the largest of its m words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError
from .dist import Distribution
from .lut import LutTable, _is_max

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
_BLOCK = 1 << 14  # trials folded together by empirical_fold
_GUIDE_DOUBLINGS = 4  # the guide grows to at most 16x its base size 2^ceil(log2 8N)


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


def _splitmix(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The SplitMix64 mix of pre-mix states z, written into out; tmp is
    scratch of the same size.  Shifts take Python ints: with numpy 2.4,
    np.right_shift(z, np.uint64(30), out=tmp) took 1.5x as long as with 30."""
    np.right_shift(z, 30, out=tmp)
    np.bitwise_xor(z, tmp, out=out)
    out *= _MUL1
    np.right_shift(out, 27, out=tmp)
    out ^= tmp
    out *= _MUL2
    np.right_shift(out, 31, out=tmp)
    out ^= tmp
    return out


def _capped_cdf(p: np.ndarray) -> np.ndarray:
    """The cdf of p, set to inf from the last index of positive mass on.

    searchsorted(cdf, u, "right") on it is the smallest k with cdf[k] > u,
    capped at that index, so a point of mass 0 is never drawn, even when u
    reaches the rounded total."""
    cdf = np.cumsum(p)
    cdf[np.flatnonzero(p)[-1]:] = np.inf
    return cdf


class _InverseCdf:
    """Guide-table inverse CDF of one law (Chen & Asau 1974), on 53-bit words.

    A word w in [0, 2^53) stands for u = w * 2^-53.  With thresholds
    t[k] = ceil(cdf[k] * 2^53) (the uint64 maximum where the cdf is capped),
    cdf[k] <= u holds exactly when t[k] <= w, so `words` maps w to the same
    index as `sample_index` maps u, with integer compares only.

    Bucket b = w >> s of K = 2^(53 - s) buckets holds u in [b/K, (b+1)/K);
    the answer is monotone in w, so it lies in [g[b], g[b+1]] with g[b] the
    answer at the bucket's first word.  A narrow bucket, where
    g[b+1] - g[b] <= 1, is settled by one probe: its entry packs g[b] above
    the s offset bits and 2^s - d below them, d = min(t[g[b]] - b 2^s, 2^s)
    the offset at which the draw passes t[g[b]], so adding the offset of w
    carries into g[b] exactly when t[g[b]] <= w.  K starts at
    2^ceil(log2(8N)) and doubles while some bucket is wide (holds two or
    more thresholds), at most _GUIDE_DOUBLINGS times, so memory stays O(N).
    A bucket still wide then (thresholds less than 1/K apart, or equal ones
    around a zero mass) gets the sentinel entry N 2^s, which no offset
    carries: the probe returns N exactly for the draws that fell in it, and
    only those are binary-searched.
    """

    def __init__(self, p: np.ndarray):
        n = p.size
        cdf = _capped_cdf(p)
        finite = np.isfinite(cdf)
        t = np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)
        t[finite] = np.ceil(cdf[finite] * 2.0**53)
        base = (8 * n - 1).bit_length()
        for bits in range(base, base + _GUIDE_DOUBLINGS + 1):
            edges = np.arange((1 << bits) + 1, dtype=np.uint64) << (53 - bits)
            g = np.searchsorted(t, edges, side="right")
            wide = np.diff(g) >= 2
            if not wide.any():
                break
        s = 53 - bits
        g, edges = g[:-1], edges[:-1]  # entry K only served the widths
        # t[g[b]] > b 2^s by the choice of g[b], so the difference is positive
        d = np.minimum(t[g] - edges, _U64(1 << s))
        probe = (g.astype(np.uint64) << s) + (_U64(1 << s) - d)
        probe[wide] = _U64(n << s)
        self.n, self.k, self.shift, self.t, self.probe = n, 1 << bits, s, t, probe
        self.mask = _U64((1 << s) - 1)
        self.any_wide = bool(wide.any())

    def words(self, w: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
        """The index drawn by each 53-bit word w, written into out (intp);
        tmp is uint64 scratch of w's size.

        Passing both keeps a fold step free of block-sized allocations: a
        block of words is 128 KiB, glibc's default mmap threshold, and with
        that threshold held fixed a fold that allocated its temporaries took
        1.7x as long.  The probe sums run in out's memory read as uint64
        (they stay below 2^63).  Every index taken is in range, so np.take
        runs with mode="clip": with the default mode="raise", out= is copied
        through a buffer, and bucket numbers (below 2^53) are read as int64,
        which it takes without the cast pass that uint64 indices cost."""
        idx = np.empty(w.size, dtype=np.intp) if out is None else out
        tmp = np.right_shift(w, self.shift, out=tmp)
        sums = np.take(self.probe, tmp.view(np.int64), out=idx.view(np.uint64), mode="clip")
        sums += np.bitwise_and(w, self.mask, out=tmp)
        sums >>= self.shift
        if self.any_wide:  # the sentinel marks the draws in wide buckets
            sel = np.flatnonzero(idx == self.n)
            idx[sel] = np.searchsorted(self.t, w[sel], side="right")
        return idx


def sample_index(p: Distribution, u: float) -> int:
    """Inverse-CDF draw: the smallest k whose cumulative mass exceeds u,
    capped at the last index of positive mass."""
    if not 0.0 <= u < 1.0:
        raise ValidityError(f"u must lie in [0, 1), got {u!r}")
    return int(np.searchsorted(_capped_cdf(p.p), u, side="right"))


def empirical_fold(
    lut: LutTable, p: Distribution, cfg: SimConfig, workers: int = 1
) -> Distribution:
    """Empirical law of the m-fold pseudo-sum over cfg.trials trials.

    Each trial left-folds m inverse-CDF samples through the table.  Trials
    are processed in fixed blocks, one fold step at a time, so memory stays
    bounded whatever cfg.trials and cfg.m.  On a max table (table[i, j] ==
    max(i, j)) a trial's fold is the draw of its largest word, since the
    inverse CDF is monotone, so each block keeps a running maximum and draws
    once.  `workers` must be >= 1; it is kept for compatibility and changes
    neither the result nor the work.
    """
    if lut.n != p.n:
        raise ValidityError(f"dimension mismatch: {lut.n} != {p.n}")
    if workers < 1:
        raise ValidityError("workers must be >= 1")
    n, m = lut.n, cfg.m
    draw = _InverseCdf(p.p)
    fold_max = _is_max(lut)
    flat = lut.table.ravel()
    seed = _U64(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    z, word, step, tmp = (np.empty(_BLOCK, dtype=np.uint64) for _ in range(4))
    acc, idx, cell = (np.empty(_BLOCK, dtype=np.intp) for _ in range(3))
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, cfg.trials, _BLOCK):
        size = min(_BLOCK, cfg.trials - lo)
        zb, wb, sb, tb, ab, ib, cb = (a[:size] for a in (z, word, step, tmp, acc, idx, cell))
        # the pre-mix state of draw trial * m + j is seed + (trial * m + j + 1) * gamma
        zb[:] = np.arange(lo, lo + size, dtype=np.uint64)
        zb *= _U64(m)
        zb += _U64(1)
        zb *= _GAMMA
        zb += seed
        _splitmix(zb, wb, tb)
        if fold_max:  # wb holds the running maximum of the trial's words
            for _ in range(1, m):
                zb += _GAMMA
                np.maximum(wb, _splitmix(zb, sb, tb), out=wb)
            wb >>= 11
            draw.words(wb, ab, tb)
        else:
            wb >>= 11
            draw.words(wb, ab, tb)
            for _ in range(1, m):
                zb += _GAMMA
                _splitmix(zb, wb, tb)
                wb >>= 11
                np.multiply(ab, n, out=cb)
                cb += draw.words(wb, ib, tb)
                np.take(flat, cb, out=ab, mode="clip")
        counts += np.bincount(ab, minlength=n)
    return Distribution(counts / cfg.trials)
