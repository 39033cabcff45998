import tracemalloc

import numpy as np
import pytest

from pseudosum import (
    Alphabet,
    Distribution,
    LutTable,
    SimConfig,
    ValidityError,
    empirical_fold,
    make_max_lut,
    make_mod_lut,
    power,
    sample_index,
    tv_distance,
)


def test_sim_config_validation():
    SimConfig(seed=1, trials=10, m=1)
    with pytest.raises(ValidityError):
        SimConfig(seed=1, trials=0, m=1)
    with pytest.raises(ValidityError):
        SimConfig(seed=1, trials=10, m=0)


def test_sim_config_takes_any_integer():
    # rng.integers returns numpy integers; floats and bools are mistakes
    lut, p = make_mod_lut(3), Distribution([0.2, 0.5, 0.3])
    got = {
        empirical_fold(lut, p, SimConfig(seed=seed, trials=trials, m=m)).p.tobytes()
        for seed, trials, m in ((3, 500, 2), (np.int64(3), np.int32(500), np.int8(2)), (np.uint64(3), 500, np.uint64(2)))
    }
    assert len(got) == 1
    assert SimConfig(seed=np.uint64(2**64 - 1), trials=1, m=1).seed == 2**64 - 1
    for field in ("seed", "trials", "m"):
        for bad in (10.0, np.float64(10.0), True, np.True_, "10"):
            with pytest.raises(ValidityError):
                SimConfig(**{"seed": 1, "trials": 10, "m": 2, field: bad})


def test_sample_index_examples():
    assert sample_index(Distribution.point_mass(4, 2), 0.99) == 2
    assert sample_index(Distribution([0.5, 0.5]), 0.7) == 1
    assert sample_index(Distribution([0.25, 0.75]), 0.25) == 1  # boundary goes up
    assert sample_index(Distribution([0.25, 0.75]), 0.2499999) == 0
    # rounded total mass 0.9999999999999999 <= u: the last index, not n
    assert sample_index(Distribution([0.1] * 10), 0.9999999999999999) == 9
    # ... and never a trailing point of mass 0
    assert sample_index(Distribution([0.1] * 10 + [0.0]), 0.9999999999999999) == 9
    with pytest.raises(ValidityError):
        sample_index(Distribution([0.5, 0.5]), 1.0)


def test_degenerate_fold_is_exact():
    lut = make_mod_lut(2)
    cfg = SimConfig(seed=7, trials=2000, m=2)
    emp = empirical_fold(lut, Distribution.point_mass(2, 1), cfg)
    assert emp.p.tolist() == [1.0, 0.0]


def test_determinism_across_runs_and_workers():
    lut = make_max_lut(4)
    p = Distribution([0.4, 0.3, 0.2, 0.1])
    cfg = SimConfig(seed=123456789, trials=20000, m=3)
    a = empirical_fold(lut, p, cfg)
    b = empirical_fold(lut, p, cfg)
    c = empirical_fold(lut, p, cfg, workers=8)
    d = empirical_fold(lut, p, cfg, workers=3)
    assert a.p.tobytes() == b.p.tobytes() == c.p.tobytes() == d.p.tobytes()


def test_seed_changes_output():
    lut = make_mod_lut(3)
    p = Distribution([0.2, 0.5, 0.3])
    cfg1 = SimConfig(seed=1, trials=5000, m=2)
    cfg2 = SimConfig(seed=2, trials=5000, m=2)
    a = empirical_fold(lut, p, cfg1)
    b = empirical_fold(lut, p, cfg2)
    assert a.p.tobytes() != b.p.tobytes()


def test_empirical_matches_exact_law():
    # McDiarmid: changing one trial moves the histogram tv by <= 1/T, so
    # tv concentrates within sqrt(N)/(2 sqrt(T)) + eps; at T=2e4, N<=6 the
    # 0.02 budget holds with margin far beyond the seeds used here.
    rng_cases = [
        (make_mod_lut(2), Distribution([0.75, 0.25]), 4),
        (make_max_lut(2), Distribution([0.5, 0.5]), 3),
        (make_mod_lut(6), Distribution([0.1, 0.2, 0.3, 0.1, 0.2, 0.1]), 5),
        (make_max_lut(5), Distribution([0.2, 0.2, 0.2, 0.2, 0.2]), 2),
    ]
    for i, (lut, p, m) in enumerate(rng_cases):
        cfg = SimConfig(seed=1000 + i, trials=20000, m=m)
        emp = empirical_fold(lut, p, cfg)
        exact = power(lut, p, m)
        assert tv_distance(emp, exact) <= 0.02


def test_m_one_recovers_base_law():
    lut = make_mod_lut(4)
    p = Distribution([0.4, 0.1, 0.3, 0.2])
    cfg = SimConfig(seed=99, trials=50000, m=1)
    emp = empirical_fold(lut, p, cfg)
    assert tv_distance(emp, p) <= 0.02


def test_fold_order_irrelevant_for_commutative_tables():
    # left fold equals a randomized fold tree over the same per-trial samples
    lut = make_mod_lut(5)
    p = Distribution([0.3, 0.1, 0.2, 0.25, 0.15])
    cdf = np.cumsum(p.p)
    seed, trials, m = 4242, 300, 6
    rng = np.random.default_rng(0)
    counters = np.arange(trials, dtype=np.uint64)[:, None] * np.uint64(m) + np.arange(
        m, dtype=np.uint64
    )
    idx = np.minimum(np.searchsorted(cdf, _ref_uniforms(seed, counters).ravel(), side="right").reshape(trials, m), 4)
    emp = empirical_fold(lut, p, SimConfig(seed=seed, trials=trials, m=m))
    counts = np.zeros(5)
    for row in idx:
        vals = list(row)
        while len(vals) > 1:
            i = int(rng.integers(len(vals) - 1))
            a, b = vals.pop(i), vals.pop(i)
            vals.insert(i, int(lut.table[a, b]))
        counts[vals[0]] += 1
    assert np.allclose(counts / trials, emp.p)


# The all-at-once kernel that block-wise empirical_fold replaced, kept as an
# independent reference: its own SplitMix64, every counter, uniform and index
# of a worker partition in memory together, searchsorted clamped to n - 1.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _ref_uniforms(seed, counters):
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (counters + np.uint64(1)) * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _ref_fold(lut, p, cfg, workers=1):
    n, m = lut.n, cfg.m
    cdf = np.cumsum(p.p)
    counts = np.zeros(n, dtype=np.int64)
    bounds = np.linspace(0, cfg.trials, workers + 1).astype(np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            continue
        trial_ids = np.arange(lo, hi, dtype=np.uint64)
        counters = trial_ids[:, None] * np.uint64(m) + np.arange(m, dtype=np.uint64)
        u = _ref_uniforms(cfg.seed, counters)
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), n - 1)
        acc = idx[:, 0]
        for j in range(1, m):
            acc = lut.table[acc, idx[:, j]]
        counts += np.bincount(acc, minlength=n)
    return Distribution(counts / cfg.trials)


def _s3_lut():
    """The composition table of the symmetric group S_3: associative, not
    commutative, and built raw (no structure marks)."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    table = [[perms.index(tuple(a[b[k]] for k in range(3))) for b in perms] for a in perms]
    return LutTable(Alphabet.canonical(6), np.array(table))


def test_reference_uniforms_are_splitmix64():
    # published SplitMix64 outputs for seed 0, reduced to 53 bits
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = _ref_uniforms(0, np.arange(3, dtype=np.uint64))
    assert got.tolist() == [(w >> 11) * 2.0**-53 for w in want]


def test_blocked_fold_matches_all_at_once_kernel():
    from pseudosum.lut import MAX, RAW, check_associative, structure
    from pseudosum.montecarlo import _BLOCK, _support_zero

    rng = np.random.default_rng(77)
    # Dirichlet(0.2) laws have tiny masses, so the guide table's wide buckets
    # are exercised; an interior zero is allowed, the last entry stays positive
    laws = []
    for n in (8, 16, 6):
        q = rng.dirichlet(np.full(n, 0.2))
        q[n // 2] = 0.0
        q[-1] += 1e-3
        laws.append(Distribution(q / q.sum()))
    cases = [(make_mod_lut(8), laws[0]), (make_max_lut(16), laws[1]), (_s3_lut(), laws[2])]
    # max built raw, which the fold must recognize, and max with the entry
    # its law hits most often changed, which must take the generic path
    i = np.arange(16)
    raw_max = LutTable(Alphabet.canonical(16), np.maximum.outer(i, i))
    near_max = np.maximum.outer(i, i)
    k = int(laws[1].p.argmax())
    near_max[k, k] = (k + 1) % 16
    near_max = LutTable(Alphabet.canonical(16), near_max)
    assert structure(raw_max).kind == MAX and structure(near_max).kind == RAW
    cases += [(raw_max, laws[1]), (near_max, laws[1])]
    # Z_5 x max_5 through a random relabeling (N = 25, neither cyclic nor
    # max), and a law whose first mass is zero, so its first threshold is 0
    a, b = np.divmod(np.arange(25), 5)
    product = ((a[:, None] + a[None, :]) % 5) * 5 + np.maximum.outer(b, b)
    sigma = rng.permutation(25)
    relabeled = np.empty_like(product)
    relabeled[np.ix_(sigma, sigma)] = sigma[product]
    q = rng.dirichlet(np.full(25, 0.3))
    q[0] = 0.0
    cases += [(LutTable(Alphabet.canonical(25), relabeled), Distribution(rng.dirichlet(np.full(25, 0.5)))),
              (make_mod_lut(25), Distribution(q / q.sum()))]
    for lut, p in cases:
        assert p.p[-1] > 0
        for trials in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
            for m in (1, 2, 33):
                cfg = SimConfig(seed=int(rng.integers(2**63)), trials=trials, m=m)
                want = _ref_fold(lut, p, cfg).p.tobytes()
                for workers in (1, 3, trials + 5):
                    got = empirical_fold(lut, p, cfg, workers=workers)
                    assert got.p.tobytes() == want, (lut.n, trials, m, workers)
    # laws whose support has a zero, where trials stop drawing once they reach
    # it: Z_8 plus an absorbing point, with the zero's mass from 0 to 1 (the
    # point mass needs the zero last, the mass 0 needs it elsewhere)
    zero_cases = []
    for mass in (0.0, 1e-6, 0.5, 1.0):
        lut, z = _absorbing_lut(rng, 8, last=mass == 1.0)
        q = rng.dirichlet(np.full(9, 0.5))
        q[z] = 0.0
        q *= (1.0 - mass) / q.sum()
        q[z] = mass
        zero_cases.append((lut, Distribution(q)))
    # a max table whose top rank holds half the mass, and a point mass on it
    q = rng.dirichlet(np.full(16, 0.5))
    q[-1] += q.sum()
    zero_cases += [(make_max_lut(16), Distribution(q / q.sum())), (make_max_lut(16), Distribution.point_mass(16, 15))]
    # a non-associative table in which 3 absorbs the support, but not 5, of mass 0
    table = rng.integers(7, size=(7, 7))
    table[3, :] = table[:, 3] = 3
    table[3, 5] = 1
    odd = LutTable(Alphabet.canonical(7), table)
    q = rng.dirichlet(np.full(7, 1.0))
    q[5] = 0.0
    assert check_associative(odd) is not None and _support_zero(odd.table, q) == 3
    zero_cases.append((odd, Distribution(q / q.sum())))
    for lut, p in zero_cases:
        assert p.p[-1] > 0
        for trials in (1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3):
            for m in (1, 2, 3, 33, 64):
                cfg = SimConfig(seed=int(rng.integers(2**63)), trials=trials, m=m)
                got = empirical_fold(lut, p, cfg)
                assert got.p.tobytes() == _ref_fold(lut, p, cfg).p.tobytes(), (lut.n, trials, m)


def _absorbing_lut(rng, k, last=False):
    """Z_k through a random relabeling plus an absorbing point, the zero of
    every support; returns the table and the zero's label (the last one if
    last, else any other)."""
    base = np.full((k + 1, k + 1), k)
    base[:k, :k] = (np.arange(k)[:, None] + np.arange(k)[None, :]) % k
    zero = k if last else int(rng.integers(k))
    sigma = np.append(rng.permutation(np.delete(np.arange(k + 1), zero)), zero)
    table = np.empty_like(base)
    table[np.ix_(sigma, sigma)] = sigma[base]
    return LutTable(Alphabet.canonical(k + 1), table), zero


def test_trials_at_the_zero_stop_drawing(monkeypatch):
    # a point mass on the zero: every trial is there after one draw, so a
    # block makes one SplitMix64 pass, not m, on the max path and the generic
    import pseudosum.montecarlo as mc

    splitmix, calls = mc._splitmix, []

    def counting(z, out, tmp):
        calls.append(z.size)
        return splitmix(z, out, tmp)

    monkeypatch.setattr(mc, "_splitmix", counting)
    trials, blocks = 2 * mc._BLOCK + 5, 3
    for lut, z in ((make_max_lut(8), 5), _absorbing_lut(np.random.default_rng(3), 7)):
        calls.clear()
        got = empirical_fold(lut, Distribution.point_mass(lut.n, z), SimConfig(seed=11, trials=trials, m=1000))
        assert got.p.tolist() == np.eye(lut.n)[z].tolist()
        assert len(calls) <= 2 * blocks, len(calls)


def test_relabeled_max_folds_in_rank_order():
    # a max table through a relabeling draws ranks from the law p[order] and
    # gives the counts back to the elements: the identity-max fold of p[order]
    from pseudosum.lut import MAX, structure
    from pseudosum.montecarlo import _BLOCK

    rng = np.random.default_rng(79)
    for n in (1, 2, 7, 16, 64):
        sigma = rng.permutation(n)
        lut = LutTable(Alphabet.canonical(n), sigma[np.maximum.outer(np.argsort(sigma), np.argsort(sigma))])
        order = structure(lut).order
        assert structure(lut).kind == MAX and np.array_equal(order, sigma)
        for alpha in (0.2, 1.0):
            p = Distribution(rng.dirichlet(np.full(n, alpha)))
            for trials, m in ((1, 1), (_BLOCK + 1, 2), (999, 33)):
                cfg = SimConfig(seed=int(rng.integers(2**63)), trials=trials, m=m)
                got = empirical_fold(lut, p, cfg)
                want = empirical_fold(make_max_lut(n), Distribution(p.p[order]), cfg)
                assert want.p.tobytes() == _ref_fold(make_max_lut(n), Distribution(p.p[order]), cfg).p.tobytes()
                assert got.p[order].tobytes() == want.p.tobytes(), (n, trials, m)


def test_guide_table_is_exact():
    # the float map of sample_index, which the integer guide of
    # test_integer_guide_is_exact must match; u probes the edges of the
    # guide's base size, K = 2^ceil(log2 8N) buckets
    from pseudosum.montecarlo import _capped_cdf

    rng = np.random.default_rng(31)
    laws = []
    for r, n in ((0.5, 60), (0.1, 40), (0.9, 300)):  # geometric tails
        laws.append(r ** np.arange(n))
    tiny = np.full(12, 1e-13)  # 1e-13 masses between, before and after large ones
    tiny[[2, 7]] = 0.5
    laws.append(tiny)
    for n, k in ((1, 0), (5, 0), (5, 2), (5, 4), (1024, 1000)):  # point masses
        laws.append(np.eye(n)[k])
    laws.append(rng.dirichlet(np.full(1024, 0.3)))
    laws.append(rng.dirichlet(np.full(7, 0.05)))
    splitmix = _ref_uniforms(2024, np.arange(10**5, dtype=np.uint64))
    for q in laws:
        p = Distribution(q / q.sum()).p
        cdf = np.cumsum(p)
        k = 1 << (8 * p.size - 1).bit_length()
        u = np.concatenate([
            cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
            np.arange(k + 1) / k, [0.0, 1.0 - 2.0**-53], splitmix,
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        want = np.minimum(np.searchsorted(cdf, u, side="right"), np.flatnonzero(p)[-1])
        got = np.searchsorted(_capped_cdf(p), u, side="right")
        assert np.array_equal(got, want), p.size
        assert p[got].min() > 0


def _guide_laws():
    """The laws of test_guide_table_is_exact."""
    rng = np.random.default_rng(31)
    laws = []
    for r, n in ((0.5, 60), (0.1, 40), (0.9, 300)):  # geometric tails
        laws.append(r ** np.arange(n))
    tiny = np.full(12, 1e-13)  # 1e-13 masses between, before and after large ones
    tiny[[2, 7]] = 0.5
    laws.append(tiny)
    for n, k in ((1, 0), (5, 0), (5, 2), (5, 4), (1024, 1000)):  # point masses
        laws.append(np.eye(n)[k])
    laws.append(rng.dirichlet(np.full(1024, 0.3)))
    laws.append(rng.dirichlet(np.full(7, 0.05)))
    return laws


def _capped_wide_law():
    """A law whose guide table still has wide buckets at its size cap."""
    return np.random.default_rng(5).dirichlet(np.full(1024, 0.05))


def test_integer_guide_is_exact():
    # the fold draws from raw outputs o standing for 53-bit words w = o >> 11,
    # u = w * 2^-53, with no float left:
    # it must match the float inverse CDF at every threshold and bucket edge
    from pseudosum.montecarlo import _GUIDE_DOUBLINGS, _InverseCdf

    splitmix = (_ref_uniforms(2024, np.arange(10**5, dtype=np.uint64)) * 2.0**53).astype(np.uint64)
    # plus dense laws with no wide bucket, where one comparison decides alone
    dense = [np.full(5, 0.2), np.array([0.3, 0.2, 0.5]), np.random.default_rng(3).dirichlet(np.full(9, 50.0))]
    assert not any(_InverseCdf(q).any_wide for q in dense)
    # plus laws that widen the guide from its base 2^ceil(log2 8N) buckets:
    # (law, buckets, wide buckets left).  Thresholds 0.3 and 0.304 share a
    # bucket up to K = 128; equal thresholds around a zero mass, or too many
    # tiny masses, keep a bucket wide up to the cap
    cap = 1 << _GUIDE_DOUBLINGS
    widened = [
        (np.array([0.3, 0.004, 0.696]), 8 * 32, False),
        (np.array([0.3, 0.0, 0.2, 0.0, 0.0, 0.5]), cap * 64, True),
        (_capped_wide_law(), cap * 8192, True),
    ]
    for q, k, wide in widened:
        guide = _InverseCdf(q)
        assert (guide.k, guide.any_wide) == (k, wide)
    for q in _guide_laws() + dense + [q for q, _, _ in widened]:
        p = Distribution(q / q.sum()).p
        cdf = np.cumsum(p)
        guide = _InverseCdf(p)
        t = np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64)
        edges = np.arange(guide.k + 1, dtype=np.uint64) << np.uint64(guide.shift - 11)
        ends = np.array([0, 2**53 - 1], dtype=np.uint64)
        w = np.concatenate([t - 1, t, t + 1, edges - 1, edges, ends, splitmix])
        w = w[w < 2**53]  # t - 1 and edges - 1 wrap at 0
        want = np.minimum(np.searchsorted(cdf, w * 2.0**-53, side="right"), np.flatnonzero(p)[-1])
        # the guide reads raw outputs o, w = o >> 11: both ends of the 11 dropped bits
        for o in (w << np.uint64(11), (w << np.uint64(11)) | np.uint64(0x7FF)):
            got = guide.index(o)
            assert np.array_equal(got, want), p.size
            assert got.max() < p.size  # never the sentinel index N
            assert p[got].min() > 0


def _doubling_guide(p):
    """The guide sizing that the counting build replaced: a searchsorted of
    every bucket edge per candidate size.  Returns K, whether a bucket is
    wide, the answer at every edge b 2^s (b = 0..K), s, and the thresholds."""
    from pseudosum.montecarlo import _GUIDE_DOUBLINGS, _capped_cdf

    cdf = _capped_cdf(p)
    finite = np.isfinite(cdf)
    t = np.full(p.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    t[finite] = np.ceil(cdf[finite] * 2.0**53)
    base = (8 * p.size - 1).bit_length()
    for bits in range(base, base + _GUIDE_DOUBLINGS + 1):
        edges = np.arange((1 << bits) + 1, dtype=np.uint64) << np.uint64(53 - bits)
        g = np.searchsorted(t, edges, side="right")
        wide = np.diff(g) >= 2
        if not wide.any():
            break
    return 1 << bits, bool(wide.any()), g, 53 - bits, t


def test_counting_guide_matches_doubling_search():
    from pseudosum.montecarlo import _InverseCdf

    rng = np.random.default_rng(2718)
    laws = []
    for n in range(1, 301):
        q = rng.dirichlet(np.full(n, (0.05, 0.3, 1.0, 5.0)[n % 4]))
        if n > 1:
            q[rng.random(n) < 0.2 * (n % 2)] = 0.0  # interior zeros: equal thresholds
            q[0] *= n % 3 != 0  # a leading zero mass: threshold 0
            q[n - 1 - n % 5:] *= n % 2  # trailing zeros: capped thresholds
        if q.sum() == 0:
            q[n // 2] = 1.0
        laws.append(q / q.sum())
    laws += [np.eye(n)[k] for n, k in ((1, 0), (2, 0), (2, 1), (9, 4), (300, 0), (300, 299))]
    laws.append(_capped_wide_law())
    for q in laws:
        p = Distribution(q).p
        k, wide, g, s, t = _doubling_guide(p)
        guide = _InverseCdf(p)
        assert (guide.k, guide.any_wide) == (k, wide), p.size
        # the first and the last word of every bucket, as raw outputs
        edges = np.arange(k, dtype=np.uint64) << np.uint64(s)
        assert np.array_equal(guide.index(edges << np.uint64(11)), g[:-1])
        last = np.arange(1, k + 1, dtype=np.uint64) << np.uint64(s)
        last -= np.uint64(1)
        want = np.searchsorted(t, last, side="right")
        assert np.array_equal(guide.index((last << np.uint64(11)) | np.uint64(0x7FF)), want)


def test_fold_memory_is_bounded():
    # the all-at-once kernel held 8 M counters, uniforms and indices (about
    # 190 MB); a max table takes the running-maximum path, mod 8 the table fold
    # the capped law holds the guide at its largest, 16 * 2^13 buckets
    p = Distribution([0.3, 0.05, 0.1, 0.2, 0.05, 0.1, 0.15, 0.05])
    wide = Distribution(_capped_wide_law())
    cases = [(make_max_lut(8), p), (make_mod_lut(8), p), (make_max_lut(1024), wide), (make_mod_lut(1024), wide)]
    for lut, law in cases:
        tracemalloc.start()
        try:
            empirical_fold(lut, law, SimConfig(seed=1, trials=1_000_000, m=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
