"""Seeded Monte Carlo for i.i.d. pseudo-sums, reproducible bit for bit.

Uniforms come from SplitMix64 (Steele, Lea & Flood) used in counter mode:
draw number ``trial * m + step`` is a pure function of the seed, so the
histogram is identical across runs and across any partitioning of trials.
A draw is the raw 64-bit output o, standing for the 53-bit word
w = o >> 11 and u = w * 2^-53 in [0, 1); the fold never forms w.

`empirical_fold` walks the trials in fixed blocks of ``_BLOCK`` = 2^15 and
takes one fold step at a time within a block, so its block buffers take
O(_BLOCK) memory whatever the number of trials and the fold length: four
rows of min(_BLOCK, trials) words, the same for every kind of table, hold
the SplitMix64 state, its mixed output, the drawn indices and each trial's
running value.  The index row is also the scratch of the SplitMix64 mix and
the mask of the zero check below, since no step needs two of them at once,
and the guide probes in it in place.  A fold in which no block can compact
(see below) runs on two threads when the process may use two CPUs and there
are two blocks or more: the caller folds every other block and one helper
thread the rest, each in four rows of its own, and their integer counts are
summed.  The rows of every thread are one allocation per call, each row
64-byte aligned.  On 2^15 words a numpy call works about 10 us outside the
GIL, so the threads overlap; on the short calls of a compacted block they
did not.  Beside the rows sit a shared row of per-trial state offsets, an
O(N) guide table and, on a RAW table, a row-offset copy of the table with
one row adjoined (N^2 + N indices, about the size of the table itself).
The SplitMix64 state of a block steps in place, and indices come from a
guide-table inverse CDF (Chen & Asau 1974; Devroye 1986, III.2.4) built
once per law by counting thresholds per bucket.  Its entries
are stored relative to their bucket's start, so one gather, an add of the
raw output and a shift give the index: the fold converts no float.  The
guide's size is read off the closest pair of thresholds: the smallest at
which one probe settles every bucket (or a fixed cap), and the few draws in
buckets it leaves wide are found by their sentinel index and
binary-searched.  A table that `structure` recognizes folds in its
canonical labels: the law is read in label order and the counts go back to
the elements.  Every trial takes m identical steps from its kind's
identity, the fold x_1 (+) ... (+) x_m read as 1 (+) x_1 (+) ... (+) x_m
with an identity 1 adjoined.  On a max table a trial keeps the running
maximum of its outputs, from 0, and draws its rank once, from the largest
of its m outputs; on a cyclic table it sums the residues it draws, from 0,
reduced mod N once per block.  A RAW fold step adds the drawn index to the
trial's row offset (row * N) and gathers the next one from the table
scaled by N, to which a row N with N (+) x = x is adjoined: a trial starts
at its offset N * N, and a block divides by N once at its end.

A trial stops drawing once it reaches the zero z of the law's support (the
element with z (+) y = y (+) z = z for every y in it; on a max table, the
top rank of positive mass; on a cyclic table, the identity, when it is the
whole support), since no later draw can move it: at a few fold
lengths a block counts its trials at z with one compare and, when that
saves enough steps, moves the rest to the front of its buffers.  Each
trial's draws depend on its counter alone, so the histogram is unchanged,
and so is it on one thread or two.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidityError, shown
from .dist import Distribution
from .lut import CYCLIC, MAX, RAW, LutTable, as_int, as_real, same_n, structure


def _u64(x: int) -> np.ndarray:
    """x as a 0-d uint64 array: as a ufunc's constant operand it took less
    time than a Python int or an np.uint64 (see `_splitmix`)."""
    return np.full((), x, dtype=np.uint64)


_GAMMA = _u64(0x9E3779B97F4A7C15)
_MUL1 = _u64(0xBF58476D1CE4E5B9)
_MUL2 = _u64(0x94D049BB133111EB)
_S27, _S30, _S31 = _u64(27), _u64(30), _u64(31)
_BLOCK = 1 << 15  # trials folded together by empirical_fold
_GUIDE_DOUBLINGS = 4  # the guide is at most 16x its base size 2^ceil(log2 8N)
_DRAWS = 2**36  # bound on max(trials, _BLOCK) * m: 9.3 min at 2^33 trials, m = 8, mod 8 (2-core x86-64)


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


def _splitmix(z: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """The SplitMix64 mix of pre-mix states z, written into out; tmp is
    scratch of the same size.  Its constants are 0-d uint64 arrays: with
    numpy 2.4, a shift of 16 elements took 1.3-1.6 us by a Python int,
    0.75-1.1 us by an np.uint64 and 0.47-0.82 us by a 0-d array, which
    matters on the short calls of a compacted block."""
    np.right_shift(z, _S30, out=tmp)
    np.bitwise_xor(z, tmp, out=out)
    out *= _MUL1
    np.right_shift(out, _S27, out=tmp)
    out ^= tmp
    out *= _MUL2
    np.right_shift(out, _S31, out=tmp)
    out ^= tmp


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
    at which no two adjacent keys share a bucket, or the largest, so memory
    stays O(N).  Keys a and b share a bucket of 2^s words exactly while
    a xor b < 2^s, so one O(N) pass finds K: with `near` the smallest xor of
    adjacent keys, bits = 54 - near.bit_length() clipped to that range (the
    smallest size when there are fewer than two keys).  A bucket still wide
    then (thresholds less than 1/K apart, or equal ones around a zero mass)
    gets the entry (N << S) - (b << S), which no offset carries: the probe
    returns the sentinel N exactly for the draws that fell in it, and only
    those are binary-searched, on o >> 11.
    """

    def __init__(self, p: np.ndarray):
        n = p.size
        cdf = _capped_cdf(p)
        finite = np.isfinite(cdf)
        t = np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)
        t[finite] = np.ceil(cdf[finite] * 2.0**53)
        zeros = int(np.count_nonzero(t == 0))
        # t is sorted, so two thresholds share a bucket iff two adjacent keys do
        keys = t[(t > 0) & (t <= _u64(1 << 53))].astype(np.int64) - 1
        near = int(np.bitwise_xor(keys[1:], keys[:-1]).min(initial=1 << 53))
        base = (8 * n - 1).bit_length()
        bits = min(max(base, 54 - near.bit_length()), base + _GUIDE_DOUBLINGS)
        k, s, shift = 1 << bits, 53 - bits, 64 - bits
        count = np.bincount(keys >> s, minlength=k)
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
        probe += _u64(1 << shift)
        probe -= d
        wide = np.flatnonzero(count >= 2).astype(np.uint64)
        probe[wide] = (_u64(n) - wide) << shift
        self.n, self.k, self.shift, self.t, self.probe = n, k, shift, t, probe
        self.shift_u64 = _u64(shift)  # the shift as index's operand
        self.any_wide = bool(wide.size)

    def index(self, o: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The index drawn by each raw output o, written into out (intp)
        and returned.

        Passing out keeps a fold step free of block-sized allocations: a
        block of outputs is 256 KiB, above glibc's default mmap threshold,
        and with that threshold held fixed a fold that allocated its
        temporaries took 1.7x as long.  The probe runs in out's memory: the
        bucket numbers (below 2^bits) are shifted into it, and np.take reads
        them there as intp indices, with no cast pass, and writes their
        entries over them as uint64.  np.take checks out= for overlap with
        the probe only, and reads index j before it writes element j.  The
        sums then wrap there and end below 2^63 once shifted.  Every index taken is in range, so np.take runs with
        mode="clip": with the default mode="raise", out= is copied through a
        buffer."""
        idx = np.empty(o.size, dtype=np.intp) if out is None else out
        sums = idx.view(np.uint64)
        np.right_shift(o, self.shift_u64, out=sums)
        np.take(self.probe, idx, out=sums, mode="clip")
        sums += o
        sums >>= self.shift_u64
        if self.any_wide:  # the sentinel marks the draws in wide buckets
            sel = np.flatnonzero(idx == self.n)
            idx[sel] = np.searchsorted(self.t, o[sel] >> 11, side="right")
        return idx


def sample_index(p: Distribution, u: float) -> int:
    """Inverse-CDF draw: the smallest k whose cumulative mass exceeds u,
    capped at the last index of positive mass."""
    x = as_real(u, "u")
    if not x < 1.0:
        raise ValidityError(f"u must lie in [0, 1), got {shown(u)}")
    return int(np.searchsorted(_capped_cdf(p.p), x, side="right"))


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


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def empirical_fold(
    lut: LutTable, p: Distribution, cfg: SimConfig, workers: int = 1
) -> Distribution:
    """Empirical law of the m-fold pseudo-sum over cfg.trials trials.

    Each trial left-folds m inverse-CDF samples through the table.  Trials
    are processed in fixed blocks, one fold step at a time, so memory stays
    bounded whatever cfg.trials and cfg.m.  A table that `structure`
    recognizes folds in its canonical labels `structure(lut).labels.s`
    (ranks or residues): draws come from the law in label order, and each
    element gets the count of its label.  On a max table a trial's fold is
    the rank its largest output draws, as that inverse CDF is monotone: each
    block keeps a running maximum and draws once.  On a cyclic table it is
    the sum of the drawn residues mod N: each block keeps running sums and
    reduces them once.  Only a RAW table folds through the table itself,
    via a row-offset copy of it with a row adjoined as an identity
    (N^2 + N indices).  Every trial takes m identical steps from its kind's
    identity: a running maximum output of 0, a residue sum of 0, or
    the adjoined row.

    A trial that reaches the zero z of supp p (z (+) y = y (+) z = z for
    every y in it; on a max table, the top rank of positive mass; on a
    cyclic table, the identity, when supp p is just it) stays
    there whatever it draws next, so it stops drawing: after j = 1, 2, 4, ...
    of m draws, while (1 - (1 - p(z))^j) (m - j) >= 2, a block counts its
    trials at z, and when the k found save k (m - j) steps, at least twice
    the number of trials left, it counts them at z and moves the others to
    the front of its buffers.  Every other trial keeps its own counter-mode
    draws, so the result is unchanged.

    Blocks hold ``_BLOCK`` = 2^15 trials.  When no zero check is scheduled,
    so that every block stays full, a fold of two blocks or more runs on two
    threads if the process may use two CPUs: the caller folds every other
    block, one helper thread the rest, and their counts are summed, so the
    histogram is the same byte for byte.  A thread folds its blocks in four
    rows of min(2^15, cfg.trials) words (state, output, drawn indices,
    running value), and the call makes the rows of every thread in one
    allocation: at 2^15 trials or more, 1 MiB on one thread and 2 MiB on
    two, beside a shared 256 KiB row of per-trial state offsets.  A helper's
    exception is raised in the caller, and no thread outlives the call.
    `workers` must be >= 1; it is kept for compatibility and changes neither
    the result nor the work split.  More than 2^36 draws raise ValidityError
    before any block, with fewer than 2^15 trials counted as a full block
    (max(cfg.trials, 2^15) * cfg.m): a block step costs about the same
    whatever its trial count, so the bound also holds m to 2^21 steps.
    """
    same_n("distribution size", lut.n, p.n)
    as_int(workers, "workers", 1)
    n, m = lut.n, cfg.m
    if max(cfg.trials, _BLOCK) * m > _DRAWS:
        raise ValidityError(f"simulation too large: trials={shown(cfg.trials)} times m={shown(m)}, with fewer than "
                            f"{_BLOCK} trials counted as {_BLOCK}, > {_DRAWS} draws")
    st = structure(lut)
    kind = st.kind
    # a recognized table folds in its canonical labels (ranks or residues):
    # element x has label st.labels.s[x], and label r is element st.labels.inv[r]
    law = p.p if st.labels is None else p.p[st.labels.inv]
    guide = _InverseCdf(law)
    if kind == RAW:
        # the row offsets y * N of the table and of a row N adjoined as an
        # identity (N (+) x = x), so a fold step multiplies nothing
        rows = np.concatenate((lut.table.ravel(), np.arange(n, dtype=np.intp)))
        rows *= n
    # a trial's running value is a max table's running maximum output
    # (uint64), or else its residue sum or row offset (intp); the trial is
    # short of the zero z of supp p while short(that value, mark) holds: on a
    # max table, while its running maximum output o draws a rank below z,
    # o < t[z - 1] << 11 (no z if that bound is 2^64); on a cyclic table,
    # where only the support {e} has a zero, while its residue sum is not 0;
    # otherwise while its row offset is not z * N
    value = np.intp
    if kind == MAX:
        z, value = int(np.flatnonzero(law)[-1]), np.uint64
        mark = int(guide.t[z - 1]) << 11 if z else 0
        z, short, mark = (z, np.less, _u64(mark)) if mark < 2**64 else (None, None, None)
    elif kind == CYCLIC:
        z, short, mark = (None if law[1:].any() else 0), np.not_equal, 0
    else:
        z = _support_zero(lut.table, law)
        short, mark = np.not_equal, None if z is None else z * n
    # blocks look for trials at z after j = 1, 2, 4, ... < m draws, while a
    # trial is expected to save 2 steps there
    q = 0.0 if z is None else law[z]
    steps = (1 << i for i in range((m - 1).bit_length()))
    checks = {j for j in steps if (1 - (1 - q) ** j) * (m - j) >= 2}
    # every trial starts at its kind's identity: the running maximum output
    # 0, the residue sum 0, or the row offset N * N of the adjoined row
    start = n * n if kind == RAW else 0
    # a block that compacts makes short numpy calls, on which threads lost to
    # their GIL handoffs, so only a fold with no zero check runs two: the
    # caller folds every other block and one helper thread the rest.  On a
    # 2-core host 3 or 4 threads took longer than 2, and 2 keep the memory
    # at two blocks' buffers whatever the host's CPU count
    blocks = range(0, cfg.trials, _BLOCK)
    threads = 1 if checks or min(_usable_cpus(), len(blocks)) < 2 else 2
    # the pre-mix state of draw trial * m + j is seed + (trial * m + j + 1) * gamma
    # mod 2^64, and each step adds gamma first: a block starts at
    # seed + first trial * m * gamma, plus i * m * gamma for its trial i
    width = min(_BLOCK, cfg.trials)
    stride = np.arange(width, dtype=np.uint64) * _u64(m * int(_GAMMA) % 2**64)
    # every thread's four block buffers (SplitMix64 state, mixed output,
    # drawn indices, running value) are rows of one allocation, each padded
    # to a multiple of 8 words and so 64-byte aligned: malloc aligns to 16
    # bytes only, and on buffers 16 or 48 bytes past a cache line numpy's
    # vector loops took 1.2x as long per fold step (unpadded rows of 32761
    # words made a mod 8 block of m = 256 take 1.11-1.15x as long as 32760)
    padded = -(-width // 8) * 8
    size = 4 * threads * padded
    pool = np.empty(size + 8, dtype=np.uint64)
    at = -pool.ctypes.data % 64 // 8
    pool = pool[at:at + size].reshape(-1, padded)[:, :width]

    def fold(starts, buffers) -> np.ndarray:
        """The counts of the blocks that start at the given trials, folded
        in the four rows of buffers."""
        buffers = (*buffers[:3], buffers[2].view(np.intp), buffers[3].view(value))
        counts = np.zeros(n, dtype=np.int64)
        for lo in starts:
            live = min(width, cfg.trials - lo)
            # the drawn indices ib, read as uint64 (tb), are also the scratch
            # of SplitMix64 and the zero check's mask, and the mixed output ob
            # is the spare of a compaction: no step needs two of them at once
            zb, ob, tb, ib, ab = (a[:live] for a in buffers)
            np.add(stride[:live], _u64((lo * m * int(_GAMMA) + cfg.seed) % 2**64), out=zb)
            ab.fill(start)
            for j in range(m):  # j draws folded so far
                if j in checks:
                    keep = short(ab, mark, out=tb.view(np.bool_)[:live])
                    left = int(np.count_nonzero(keep))
                    if (live - left) * (m - j) >= 2 * left:
                        _compact(keep, ob, (zb, ab))
                        counts[z] += live - left
                        live = left
                        zb, ob, tb, ib, ab = (a[:live] for a in buffers)
                        if not live:
                            break
                zb += _GAMMA
                _splitmix(zb, ob, tb)
                if kind == MAX:  # ab holds the running maximum of the trial's outputs
                    np.maximum(ab, ob, out=ab)
                elif kind == CYCLIC:  # ab holds the sum of the trial's residues, below m N <= 2^21 N
                    ab += guide.index(ob, ib)
                else:  # ab holds the trial's row offset
                    np.take(rows, np.add(guide.index(ob, ib), ab, out=ib), out=ab, mode="clip")
            if kind == MAX:  # the ranks the running maxima draw
                ab = guide.index(ab, ib)
            elif kind == CYCLIC:
                np.remainder(ab, n, out=ab)
            else:
                ab //= n
            counts += np.bincount(ab, minlength=n)
        return counts

    if threads == 1:
        counts = fold(blocks, pool[:4])
    else:
        helped = []

        def helper():
            try:
                helped.append(fold(blocks[1::2], pool[4:]))
            except BaseException as exc:  # re-raised by the caller
                helped.append(exc)

        thread = threading.Thread(target=helper, name="empirical_fold")
        thread.start()
        try:
            counts = fold(blocks[0::2], pool[:4])
        finally:
            thread.join()
        if isinstance(helped[0], BaseException):
            raise helped[0]
        counts += helped[0]
    if st.labels is not None:  # counts by canonical label: give each to its element
        counts = counts[st.labels.s]
    return Distribution(counts / cfg.trials)
