"""Seeded Monte Carlo for i.i.d. pseudo-sums, reproducible bit for bit.

Uniforms come from SplitMix64 (Steele, Lea & Flood) used in counter mode:
draw number ``trial * m + step`` is a pure function of the seed, so the
histogram is identical across runs and across any partitioning of trials.
A draw is the raw 64-bit output o, standing for the 53-bit word
w = o >> 11 and u = w * 2^-53 in [0, 1); the fold never forms w.

`empirical_fold` walks the trials in fixed blocks of ``_BLOCK`` and takes
one fold step at a time within a block, so its block buffers take O(_BLOCK)
memory whatever the number of trials and the fold length.  Beside them sit
an O(N) guide table and, on a generic table folded three or more times, a
row-offset copy of the table (N^2 indices, the size of the table itself).
The SplitMix64 state of a block steps in place, and indices come from a
guide-table inverse CDF (Chen & Asau 1974; Devroye 1986, III.2.4) built
once per law by counting thresholds per bucket.  Its entries are stored
relative to their bucket's start, so one gather, an add of the raw output
and a shift give the index: the fold converts no float.  The guide grows
until one probe settles every bucket (or to a fixed cap), and the few draws
in buckets it leaves wide are found by their sentinel index and
binary-searched.  A generic fold step adds the drawn index to the trial's
row offset (row * N) and gathers the next one from the table scaled by N.
On a max table each trial draws once, from the largest of its m outputs.
"""

from __future__ import annotations

import operator
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
        # operator.index takes Python and numpy integers alike; bool is an int
        # to it, and a float or bool here is a caller's mistake
        for name in ("seed", "trials", "m"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValidityError(f"{name} must be an integer, got {value!r}")
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidityError(f"{name} must be an integer, got {value!r}") from None
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
    """Guide-table inverse CDF of one law (Chen & Asau 1974), on raw outputs.

    A raw 64-bit output o stands for the 53-bit word w = o >> 11 and
    u = w * 2^-53.  With thresholds t[k] = ceil(cdf[k] * 2^53) (the uint64
    maximum where the cdf is capped), cdf[k] <= u holds exactly when
    t[k] <= w, so `index` maps o to the same index as `sample_index` maps u,
    with integer compares only.

    Of K = 2^bits buckets, bucket b = o >> S, S = 64 - bits, holds the words
    w in [b 2^s, (b+1) 2^s), s = S - 11.  The answer is monotone in w, so it
    lies in [g[b], g[b+1]] with g[b] = #{k: t[k] <= b 2^s} the answer at the
    bucket's first word.  A threshold 0 < t <= 2^53 lies in bucket
    (t - 1) >> s, so g[b] is the number of zero thresholds plus the number
    of keys below b: one bincount and a running sum, O(N + K).  A narrow
    bucket, holding at most one key, is settled by one probe.  With
    d = min(t[g[b]] - b 2^s, 2^s) the word offset at which the draw passes
    t[g[b]], its entry is, in wrapping uint64,

        (g[b] << S) + 2^S - (d << 11) - (b << S),

    relative to the bucket's start: adding o leaves g[b] << S plus
    2^S - d 2^11 plus o's offset in the bucket, which carries into g[b]
    exactly when that offset is >= d 2^11, that is when w's offset is >= d
    (the 11 bits that o >> 11 drops are < 2^11), that is when t[g[b]] <= w.
    So the index is (entry + o) >> S.  No sum overflows: g[b] 2^S <= 2^61,
    since 2^bits >= 8N.

    K is the smallest of 2^ceil(log2 8N) times 1, 2, ..., 2^_GUIDE_DOUBLINGS
    at which no two adjacent keys share a bucket (an O(N) check per size),
    or the largest, so memory stays O(N).  A bucket still wide then
    (thresholds less than 1/K apart, or equal ones around a zero mass) gets
    the entry (N << S) - (b << S), which no offset carries: the probe returns
    the sentinel N exactly for the draws that fell in it, and only those are
    binary-searched, on o >> 11.
    """

    def __init__(self, p: np.ndarray):
        n = p.size
        cdf = _capped_cdf(p)
        finite = np.isfinite(cdf)
        t = np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)
        t[finite] = np.ceil(cdf[finite] * 2.0**53)
        zeros = int(np.count_nonzero(t == 0))
        # t is sorted, so two thresholds share a bucket iff two adjacent keys do
        keys = t[(t > 0) & (t <= _U64(1 << 53))].astype(np.int64) - 1
        base = (8 * n - 1).bit_length()
        for bits in range(base, base + _GUIDE_DOUBLINGS + 1):
            bucket = keys >> (53 - bits)
            if not (bucket[1:] == bucket[:-1]).any():
                break
        k, s, shift = 1 << bits, 53 - bits, 64 - bits
        count = np.bincount(bucket, minlength=k)
        g = np.cumsum(count) - count + zeros
        b = np.arange(k, dtype=np.uint64)
        # t[g[b]] > b 2^s by the choice of g[b], so the difference is positive
        d = np.minimum(t[g] - (b << s), _U64(1 << s))
        probe = ((g.astype(np.uint64) - b) << shift) + (_U64(1 << shift) - (d << 11))
        wide = count >= 2
        probe[wide] = (_U64(n) - b[wide]) << shift
        self.n, self.k, self.shift, self.t, self.probe = n, k, shift, t, probe
        self.any_wide = bool(wide.any())

    def index(self, o: np.ndarray, out: np.ndarray | None = None, tmp: np.ndarray | None = None) -> np.ndarray:
        """The index drawn by each raw output o, written into out (intp);
        tmp is uint64 scratch of o's size.

        Passing both keeps a fold step free of block-sized allocations: a
        block of outputs is 128 KiB, glibc's default mmap threshold, and with
        that threshold held fixed a fold that allocated its temporaries took
        1.7x as long.  The probe sums wrap in out's memory read as uint64,
        and end below 2^63 once shifted.  Every index taken is in range, so
        np.take runs with mode="clip": with the default mode="raise", out= is
        copied through a buffer, and bucket numbers (below 2^bits) are read
        as int64, which it takes without the cast pass that uint64 indices
        cost."""
        idx = np.empty(o.size, dtype=np.intp) if out is None else out
        bucket = np.right_shift(o, self.shift, out=tmp)
        sums = np.take(self.probe, bucket.view(np.int64), out=idx.view(np.uint64), mode="clip")
        sums += o
        sums >>= self.shift
        if self.any_wide:  # the sentinel marks the draws in wide buckets
            sel = np.flatnonzero(idx == self.n)
            idx[sel] = np.searchsorted(self.t, o[sel] >> 11, side="right")
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
    max(i, j)) a trial's fold is the draw of its largest output, since the
    inverse CDF is monotone, so each block keeps a running maximum and draws
    once.  `workers` must be >= 1; it is kept for compatibility and changes
    neither the result nor the work.
    """
    if lut.n != p.n:
        raise ValidityError(f"dimension mismatch: {lut.n} != {p.n}")
    if workers < 1:
        raise ValidityError("workers must be >= 1")
    n, m = lut.n, cfg.m
    guide = _InverseCdf(p.p)
    fold_max = _is_max(lut)
    flat = lut.table.ravel()
    # every step but the last gathers a row offset, table * N, in place of
    # multiplying the running index by N; the last gathers the index itself
    rows = (lut.table * n).ravel() if m > 2 and not fold_max else flat
    # the pre-mix state of draw trial * m + j is seed + (trial * m + j + 1) * gamma
    # mod 2^64: a block starts at its first trial's state plus i * m * gamma
    stride = np.arange(_BLOCK, dtype=np.uint64) * _U64(m * int(_GAMMA) % 2**64)
    z, outputs, step, tmp = (np.empty(_BLOCK, dtype=np.uint64) for _ in range(4))
    acc, idx, cell = (np.empty(_BLOCK, dtype=np.intp) for _ in range(3))
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, cfg.trials, _BLOCK):
        size = min(_BLOCK, cfg.trials - lo)
        zb, ob, sb, tb, ab, ib, cb = (a[:size] for a in (z, outputs, step, tmp, acc, idx, cell))
        np.add(stride[:size], _U64(((lo * m + 1) * int(_GAMMA) + cfg.seed) % 2**64), out=zb)
        _splitmix(zb, ob, tb)
        if fold_max:  # ob holds the running maximum of the trial's outputs
            for _ in range(1, m):
                zb += _GAMMA
                np.maximum(ob, _splitmix(zb, sb, tb), out=ob)
            guide.index(ob, ab, tb)
        else:
            guide.index(ob, ab, tb)
            if m > 1:
                ab *= n  # the row offset of the running sum
            for j in range(1, m):
                zb += _GAMMA
                _splitmix(zb, ob, tb)
                np.add(ab, guide.index(ob, ib, tb), out=cb)
                np.take(rows if j < m - 1 else flat, cb, out=ab, mode="clip")
        counts += np.bincount(ab, minlength=n)
    return Distribution(counts / cfg.trials)
