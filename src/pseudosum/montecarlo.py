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
On a max table, in any relabeling, a trial draws its rank once, from the
largest of its m outputs.

A trial stops drawing once it reaches the zero z of the law's support (the
element with z (+) y = y (+) z = z for every y in it; on a max table, the
top rank of positive mass), since no later draw can move it: at a few fold
lengths a block counts its trials at z with one compare and, when that
saves enough steps, moves the rest to the front of its buffers.  Each
trial's draws depend on its counter alone, so the histogram is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError
from .dist import Distribution
from .lut import MAX, LutTable, as_int, same_n, structure

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
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        object.__setattr__(self, "trials", as_int(self.trials, "trials", 1))
        object.__setattr__(self, "m", as_int(self.m, "m", 1))


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
        g = np.cumsum(count)
        g -= count
        g += zeros
        # the entry is (g[b] << S) + 2^S - ((b 2^s + d) << 11), and
        # b 2^s + d = min(t[g[b]], (b+1) 2^s): built in g's memory, read as uint64
        d = np.arange(1, k + 1, dtype=np.uint64)
        d <<= s
        np.minimum(d, t[g], out=d)
        d <<= 11
        probe = g.view(np.uint64)
        probe <<= shift
        probe += _U64(1 << shift)
        probe -= d
        wide = np.flatnonzero(count >= 2).astype(np.uint64)
        probe[wide] = (_U64(n) - wide) << shift
        self.n, self.k, self.shift, self.t, self.probe = n, k, shift, t, probe
        self.any_wide = bool(wide.size)

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


def _compact(keep: np.ndarray, spare: np.ndarray, arrays) -> None:
    """Move the entries of each array that keep marks, in order, to its
    front; spare is scratch of 8-byte items, at least keep's size.  The kept
    positions are the one allocation, 8 bytes per kept entry: on a block of
    2^14 with 10-90% of it dropped, a gather through them took 1/4 to 1/11
    of the time of an allocation-free scatter through a running count
    (np.cumsum, np.putmask, np.put)."""
    at = np.flatnonzero(keep)
    for a in arrays:
        moved = np.take(a, at, out=spare[:at.size].view(a.dtype), mode="clip")
        a[:at.size] = moved


def _support_zero(table: np.ndarray, p: np.ndarray) -> int | None:
    """The zero of supp p under the table: the z in it with z (+) y =
    y (+) z = z for every y in it, or None.  A zero is idempotent and
    unique (z = z (+) z' = z'), so the support's idempotents are filtered by
    one element y0, and the few left are checked row and column: O(N)
    memory, no N^2 temporary."""
    s = np.flatnonzero(p)
    y0 = s[0]
    cand = s[table[s, s] == s]
    cand = cand[(table[cand, y0] == cand) & (table[y0, cand] == cand)]
    for z in cand:
        if (table[z, s] == z).all() and (table[s, z] == z).all():
            return int(z)
    return None


def empirical_fold(
    lut: LutTable, p: Distribution, cfg: SimConfig, workers: int = 1
) -> Distribution:
    """Empirical law of the m-fold pseudo-sum over cfg.trials trials.

    Each trial left-folds m inverse-CDF samples through the table.  Trials
    are processed in fixed blocks, one fold step at a time, so memory stays
    bounded whatever cfg.trials and cfg.m.  On a max table in rank order
    (`structure`), a trial's fold is the rank its largest output draws from
    p[order], as that inverse CDF is monotone: each block keeps a running
    maximum, draws once, and gives the counts back through order.

    A trial that reaches the zero z of supp p (z (+) y = y (+) z = z for
    every y in it; on a max table, the top rank of positive mass) stays
    there whatever it draws next, so it stops drawing: after j = 1, 2, 4, ...
    of m draws, while (1 - (1 - p(z))^j) (m - j) >= 2, a block counts its
    trials at z, and when the k found save k (m - j) steps, at least twice
    the number of trials left, it counts them at z and moves the others to
    the front of its buffers.  Every other trial keeps its own counter-mode
    draws, so the result is unchanged.  `workers` must be >= 1; it is kept for
    compatibility and changes neither the result nor the work.
    """
    same_n("distribution size", lut.n, p.n)
    as_int(workers, "workers", 1)
    n, m = lut.n, cfg.m
    st = structure(lut)
    fold_max = st.kind == MAX  # a max table folds ranks: rank r has the mass of st.order[r]
    law = p.p[st.order] if fold_max else p.p
    guide = _InverseCdf(law)
    flat = lut.table.ravel()
    # every step but the last gathers a row offset, table * N, in place of
    # multiplying the running index by N; the last gathers the index itself
    rows = (lut.table * n).ravel() if m > 2 and not fold_max else flat
    # a trial is short of the zero z of supp p while short(its running value,
    # mark) holds: on a max table, while its running maximum output o draws a
    # rank below z, o < t[z - 1] << 11 (no z if that bound is 2^64);
    # otherwise while its row offset is not z * N
    if fold_max:
        z = int(np.flatnonzero(law)[-1])
        mark = int(guide.t[z - 1]) << 11 if z else 0
        z, short, mark = (z, np.less, _U64(mark)) if mark < 2**64 else (None, None, None)
    else:
        z = _support_zero(lut.table, law)
        short, mark = np.not_equal, None if z is None else z * n
    # blocks look for trials at z after j = 1, 2, 4, ... < m draws, while a
    # trial is expected to save 2 steps there
    q = 0.0 if z is None else law[z]
    steps = (1 << i for i in range((m - 1).bit_length()))
    checks = {j for j in steps if (1 - (1 - q) ** j) * (m - j) >= 2}
    # the pre-mix state of draw trial * m + j is seed + (trial * m + j + 1) * gamma
    # mod 2^64: a block starts at its first trial's state plus i * m * gamma
    stride = np.arange(_BLOCK, dtype=np.uint64) * _U64(m * int(_GAMMA) % 2**64)
    buffers = [np.empty(_BLOCK, dtype=np.uint64) for _ in range(4)]
    buffers += [np.empty(_BLOCK, dtype=np.intp) for _ in range(3)]
    live_mask = np.empty(_BLOCK, dtype=np.bool_)
    counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, cfg.trials, _BLOCK):
        live = min(_BLOCK, cfg.trials - lo)
        zb, ob, sb, tb, ab, ib, cb = (a[:live] for a in buffers)
        np.add(stride[:live], _U64(((lo * m + 1) * int(_GAMMA) + cfg.seed) % 2**64), out=zb)
        _splitmix(zb, ob, tb)
        if not fold_max:
            guide.index(ob, ab, tb)
            if m > 1:
                ab *= n  # the row offset of the running sum
        for j in range(1, m):  # j draws folded so far
            if j in checks:
                # the running value: a max table's maximum output, else the row offset
                val = ob if fold_max else ab
                keep = short(val, mark, out=live_mask[:live])
                left = int(np.count_nonzero(keep))
                if (live - left) * (m - j) >= 2 * left:
                    _compact(keep, tb, (zb, val))
                    counts[z] += live - left
                    live = left
                    zb, ob, sb, tb, ab, ib, cb = (a[:live] for a in buffers)
                    if not live:
                        break
            zb += _GAMMA
            if fold_max:  # ob holds the running maximum of the trial's outputs
                np.maximum(ob, _splitmix(zb, sb, tb), out=ob)
            else:
                _splitmix(zb, ob, tb)
                np.add(ab, guide.index(ob, ib, tb), out=cb)
                np.take(rows if j < m - 1 else flat, cb, out=ab, mode="clip")
        if fold_max:
            guide.index(ob, ab, tb)
        counts += np.bincount(ab, minlength=n)
    if fold_max:  # counts by rank: give each to its element
        counts[st.order] = counts.copy()
    return Distribution(counts / cfg.trials)
