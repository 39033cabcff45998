import json

import numpy as np
import pytest

from pseudosum import (
    Alphabet,
    CONVERGED,
    CYCLE,
    Distribution,
    LutTable,
    ValidityError,
    convolve,
    degenerate_doa_necessary,
    doa_attractor,
    find_identity,
    is_stable,
    limit,
    make_cyclic_lut,
    make_max_lut,
    make_mod_lut,
    Permutation,
    power,
    tv_distance,
    verify_left_subtraction,
)

from oracles import associative_tables, brute_force_fold_law, cyclic_max_product, s3_table


def naive_power(lut, p, m):
    out = p
    for _ in range(m - 1):
        out = convolve(lut, out, p)
    return out


def test_distribution_construction():
    d = Distribution([0.25, 0.75])
    assert d.n == 2
    # renormalization inside tolerance
    d2 = Distribution(np.array([0.25, 0.75]) * (1 + 5e-10))
    assert abs(d2.p.sum() - 1.0) < 1e-15
    with pytest.raises(ValidityError):
        Distribution([0.5, 0.6])
    with pytest.raises(ValidityError):
        Distribution([-0.1, 1.1])
    with pytest.raises(ValidityError):
        Distribution([])
    with pytest.raises(ValidityError, match="support must be a collection of indices, got 5"):
        Distribution.uniform(3, support=5)
    # a NaN sums to NaN, and abs(NaN - 1) > tol is False
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, 0.5, -np.inf]):
        with pytest.raises(ValidityError, match="finite"):
            Distribution(bad)


def test_distribution_is_bit_stable():
    # a law wrapped again, or read back from its own to_json, keeps its bits;
    # dividing every vector by its sum changed 23 of 1000 laws at N = 2
    rng = np.random.default_rng(60)
    for n in (2, 3, 8, 64, 1024):
        for alpha in (0.05, 1.0, 5.0):
            for _ in range(300 if n < 1024 else 30):
                q = Distribution(rng.dirichlet(np.full(n, alpha))).p
                assert Distribution(q).p.tobytes() == q.tobytes(), (n, alpha)
                doc = json.loads(json.dumps(Distribution(q).to_json()))
                assert Distribution.from_json(doc).p.tobytes() == q.tobytes(), (n, alpha)


def test_distribution_json():
    d = Distribution([0.25, 0.75])
    assert Distribution.from_json(d.to_json()).p.tolist() == [0.25, 0.75]
    with pytest.raises(ValidityError):
        Distribution.from_json({"n": 3, "p": [0.5, 0.5]})
    with pytest.raises(ValidityError):
        Distribution.from_json({"p": [0.5, 0.5]})
    for doc in (
        {"n": "x", "p": [0.5, 0.5]},
        {"n": 2.5, "p": [0.5, 0.5]},
        {"n": [2], "p": [0.5, 0.5]},
        {"n": 2, "p": "ab"},
        {"n": 2, "p": [0.5, "a"]},
        {"n": 2, "p": ["0.5", "0.5"]},
        {"n": 2, "p": [0.5, None]},
        {"n": 2, "p": [True, False]},
        {"n": 2, "p": [[0.5], [0.25, 0.25]]},
        {"n": 2, "p": 1.0},
    ):
        with pytest.raises(ValidityError):
            Distribution.from_json(doc)


def test_convolve_examples():
    lut2 = make_mod_lut(2)
    d1 = Distribution.point_mass(2, 1)
    assert convolve(lut2, d1, d1).p.tolist() == [1.0, 0.0]
    p = Distribution([0.75, 0.25])
    # 0.75^2 + 0.25^2 = 0.625
    assert np.allclose(convolve(lut2, p, p).p, [0.625, 0.375], atol=1e-15)
    lut6 = make_mod_lut(6)
    u = Distribution.uniform(6, [0, 2, 4])
    assert tv_distance(convolve(lut6, u, u), u) <= 1e-15


def test_convolve_dimension_mismatch():
    with pytest.raises(ValidityError):
        convolve(make_mod_lut(2), Distribution([1.0]), Distribution([1.0, 0.0]))


def test_power_examples():
    lut3 = make_mod_lut(3)
    p = Distribution([0.75, 0.25])
    assert power(make_mod_lut(2), p, 1).p.tolist() == [0.75, 0.25]
    assert power(lut3, Distribution.point_mass(3, 1), 3).p.tolist() == [1.0, 0.0, 0.0]
    assert np.allclose(power(make_mod_lut(2), p, 2).p, [0.625, 0.375], atol=1e-15)


def test_power_matches_naive_convolves():
    rng = np.random.default_rng(61)
    for lut in (make_mod_lut(5), make_max_lut(5), make_mod_lut(8), make_max_lut(8)):
        for _ in range(10):
            p = Distribution(rng.dirichlet(np.ones(lut.n)))
            for m in (2, 3, 7, 16):
                assert tv_distance(power(lut, p, m), naive_power(lut, p, m)) <= 1e-12


@pytest.mark.parametrize("n, orders", [(1, range(1, 6)), (2, range(1, 6)), (3, range(1, 6)), (4, (2, 3))])
def test_power_matches_every_draw_sequence_on_every_associative_table(n, orders):
    # every associative table of order n, under a Dirichlet law and one with
    # a zero mass, against the sum over all N^m draw sequences; m = 0 on
    # the tables with an identity
    rng = np.random.default_rng(40 + n)
    worst = 0.0
    for table in associative_tables(n):
        lut = LutTable(Alphabet.canonical(n), table)
        w = rng.dirichlet(np.ones(n))
        laws = [Distribution(w)]
        if n > 1:
            w[rng.integers(n)] = 0.0
            laws.append(Distribution(w / w.sum()))
        for p in laws:
            for m in orders:
                want = Distribution(brute_force_fold_law(table, p.p, m))
                worst = max(worst, tv_distance(power(lut, p, m), want))
        if find_identity(lut) is not None:
            assert power(lut, laws[0], 0).p.tolist() == brute_force_fold_law(table, laws[0].p, 0).tolist()
    assert worst <= 1e-12


def test_power_m_zero_and_non_associative():
    assert power(make_mod_lut(4), Distribution.uniform(4), 0).p.tolist() == [1, 0, 0, 0]
    no_identity = LutTable(Alphabet.canonical(2), [[0, 0], [0, 0]])
    with pytest.raises(ValidityError):
        power(no_identity, Distribution.uniform(2), 0)
    non_assoc = LutTable(Alphabet.canonical(2), [[0, 1], [0, 0]])
    with pytest.raises(ValidityError):
        power(non_assoc, Distribution.uniform(2), 3)
    with pytest.raises(ValidityError):
        limit(non_assoc, Distribution.uniform(2))


def test_power_at_n1024_matches_fft():
    # mod-1024 is marked associative at construction, so power runs no
    # (N, N, N) check; circular convolution powers are spectrum powers
    n, m = 1024, 5
    p = Distribution(np.random.default_rng(59).dirichlet(np.ones(n)))
    want = Distribution(np.clip(np.fft.ifft(np.fft.fft(p.p) ** m).real, 0.0, None))
    assert tv_distance(power(make_mod_lut(n), p, m), want) <= 1e-12


@pytest.mark.parametrize("m", [2**30 - 1, 2**64 - 1, 10**30])
def test_power_at_huge_m_matches_an_independent_law(m):
    # a push squares the rounding error of the total mass: undivided, the
    # mass drifted past SUM_TOL near m = 2^30 and overflowed at 2^64 - 1
    rng = np.random.default_rng(71)
    s = Permutation(rng.permutation(64))
    on_subgroup = np.where(s.s % 4 == 0, rng.dirichlet(np.ones(64)), 0.0)
    cyclic = [(make_mod_lut(8), Permutation(np.arange(8)), rng.dirichlet(np.ones(8))),
              (make_cyclic_lut(64, s), s, rng.dirichlet(np.ones(64))),
              (make_cyclic_lut(64, s), s, on_subgroup / on_subgroup.sum())]
    for lut, perm, w in cyclic:  # the uniform law on the attracting subgroup
        p = Distribution(w)
        law = doa_attractor(p, perm)
        want = Distribution.uniform(lut.n, np.flatnonzero(perm.s % law.m == 0))
        assert tv_distance(power(lut, p, m), want) <= 1e-12, (lut.n, law.m)
    w = rng.dirichlet(np.ones(64))
    for top in (64, 61):  # CDF^m, with the CDF read off the tail above x
        p = Distribution(np.where(np.arange(64) < top, w, 0.0) / w[:top].sum())
        tail = np.concatenate([np.cumsum(p.p[::-1])[-2::-1], [0.0]])
        want = np.diff(np.exp(float(m) * np.log1p(-tail)), prepend=0.0)
        assert tv_distance(power(make_max_lut(64), p, m), Distribution(want)) <= 1e-12, top
    product = LutTable(Alphabet.canonical(16), cyclic_max_product(4, 4, rng.permutation(16)))
    p = Distribution(rng.dirichlet(np.ones(16)))
    res = limit(product, p)
    assert res.status == CONVERGED
    assert tv_distance(power(product, p, m), res.dist) <= 1e-12


def test_tv_distance():
    p = Distribution([0.75, 0.25])
    assert tv_distance(p, p) == 0.0
    assert tv_distance(Distribution.point_mass(2, 0), Distribution.point_mass(2, 1)) == 1.0
    assert abs(tv_distance(p, Distribution([0.5, 0.5])) - 0.25) < 1e-15
    with pytest.raises(ValidityError):
        tv_distance(p, Distribution([1.0]))


def test_is_stable_examples():
    for n in (2, 3, 6):
        lut = make_mod_lut(n)
        assert is_stable(lut, Distribution.uniform(n))
        assert is_stable(lut, Distribution.point_mass(n, 0))
    assert not is_stable(make_mod_lut(2), Distribution([0.75, 0.25]))


def test_limit_examples():
    lut2 = make_mod_lut(2)
    res = limit(lut2, Distribution([0.75, 0.25]))
    assert res.status == CONVERGED
    assert np.allclose(res.dist.p, [0.5, 0.5], atol=1e-12)

    res = limit(lut2, Distribution.point_mass(2, 1))
    assert res.status == CYCLE
    assert res.period == 2

    lmax = make_max_lut(5)
    res = limit(lmax, Distribution.point_mass(5, 3))
    assert res.status == CONVERGED
    assert res.dist.p.tolist() == [0, 0, 0, 1, 0]


def test_limit_hash_cycle_without_parity():
    # doubling orbit of a point mass under mod 3: delta_1 -> delta_2 -> delta_1
    res = limit(make_mod_lut(3), Distribution.point_mass(3, 1))
    assert res.status == CYCLE
    assert res.period == 2


def _orbit_verdict(n, x):
    """(status, doublings, period) of limit on the point mass at x under
    mod n, from the orbit x 2^k mod n of the doubling sequence."""
    orbit = [x]
    while True:
        nxt = 2 * orbit[-1] % n
        k = len(orbit)
        if nxt == orbit[-1]:  # a fixed point; one step with delta_x probes it
            return (CONVERGED, k, None) if (nxt + x) % n == nxt else (CYCLE, k, 2)
        if nxt in orbit:
            return CYCLE, k, k - orbit.index(nxt)
        orbit.append(nxt)


def test_limit_recurrence_periods_on_point_mass_orbits():
    # the orbit of a point mass returns to its earliest repeated element:
    # mod 7 from 1 runs 1, 2, 4, 1 (period 3), mod 12 from 1 runs
    # 1, 2, 4, 8, 4 (period 2), mod 8 from 1 reaches 0 and stays (cycle 2)
    assert _orbit_verdict(7, 1) == (CYCLE, 3, 3)
    assert _orbit_verdict(12, 1) == (CYCLE, 4, 2)
    assert _orbit_verdict(8, 1) == (CYCLE, 4, 2)
    for n in range(1, 41):
        lut = make_mod_lut(n)
        for x in range(n):
            res = limit(lut, Distribution.point_mass(n, x))
            assert (res.status, res.doublings, res.period) == _orbit_verdict(n, x), (n, x)


def test_limit_validates_arguments():
    lut = make_mod_lut(2)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidityError, match="tol must be finite"):
            limit(lut, Distribution.uniform(2), tol=tol)
    with pytest.raises(ValidityError):
        limit(lut, Distribution.uniform(2), max_doublings=0)


def test_convolve_output_is_simplex_point():
    rng = np.random.default_rng(62)
    for n in (2, 5, 17):
        lut = make_mod_lut(n)
        lmax = make_max_lut(n)
        for _ in range(50):
            p = Distribution(rng.dirichlet(np.ones(n)))
            q = Distribution(rng.dirichlet(np.ones(n)))
            for table in (lut, lmax):
                r = convolve(table, p, q)
                assert (r.p >= 0).all()
                assert abs(r.p.sum() - 1.0) <= 1e-12


def test_associativity_lift_on_laws():
    rng = np.random.default_rng(63)
    for lut in (make_mod_lut(6), make_max_lut(6)):
        for _ in range(25):
            p, q, r = (Distribution(rng.dirichlet(np.ones(6))) for _ in range(3))
            left = convolve(lut, convolve(lut, p, q), r)
            right = convolve(lut, p, convolve(lut, q, r))
            assert tv_distance(left, right) <= 1e-12


def test_commutative_tables_commute_exactly():
    rng = np.random.default_rng(64)
    for lut in (make_mod_lut(7), make_max_lut(7)):
        for _ in range(20):
            p = Distribution(rng.dirichlet(np.ones(7)))
            q = Distribution(rng.dirichlet(np.ones(7)))
            assert np.array_equal(convolve(lut, p, q).p, convolve(lut, q, p).p)


def test_uniform_on_left_subtraction_subset_is_fixed_point():
    lut = make_mod_lut(6)
    for subset in ({0, 2, 4}, {0, 3}, set(range(6)), {0}):
        assert verify_left_subtraction(lut, subset)
        u = Distribution.uniform(6, subset)
        assert tv_distance(convolve(lut, u, u), u) <= 1e-12


def test_limit_verdicts_match_far_fold_powers():
    # converged means the full sequence settles: the 1000- and 1001-fold
    # powers must both sit at the limit; a cycle keeps consecutive powers
    # separated
    rng = np.random.default_rng(66)
    for n in (2, 3, 4, 6, 9):
        lut = make_mod_lut(n)
        laws = [Distribution(rng.dirichlet(np.ones(n))) for _ in range(6)]
        laws += [Distribution.point_mass(n, k) for k in range(n)]
        for p in laws:
            res = limit(lut, p)
            far = power(lut, p, 1000)
            far1 = power(lut, p, 1001)
            if res.status == CONVERGED:
                assert tv_distance(far, res.dist) <= 1e-9
                assert tv_distance(far1, res.dist) <= 1e-9
            else:
                assert res.status == CYCLE
                assert tv_distance(far, far1) > 1e-3


def test_converged_limits_are_stable_and_satisfy_necessary_condition():
    rng = np.random.default_rng(65)
    tol = 1e-12
    for n in (2, 3, 4, 6):
        for lut in (make_mod_lut(n), make_max_lut(n)):
            for _ in range(40):
                p = Distribution(rng.dirichlet(np.ones(n)))
                res = limit(lut, p, tol=tol)
                if res.status != CONVERGED:
                    continue
                assert is_stable(lut, res.dist, 2 * tol)
                peaks = np.flatnonzero(res.dist.p > 1 - 1e-9)
                if peaks.size == 1:  # converged to a point mass
                    assert degenerate_doa_necessary(lut, int(peaks[0]), p)


def _add_at_convolve_raw(table, p, q):
    """The table push-forward as np.add.at, the kernel's earlier form,
    divided by its sum as the kernel divides every push."""
    r = np.zeros(p.size)
    np.add.at(r, table, np.outer(p, q))
    return r / r.sum()


def _add_at_power(table, p, m):
    acc, base = None, p
    while m:
        if m & 1:
            acc = base if acc is None else _add_at_convolve_raw(table, acc, base)
        m >>= 1
        if m:
            base = _add_at_convolve_raw(table, base, base)
    return Distribution(acc).p


def test_kernel_matches_add_at_bitwise():
    # convolve, power and is_stable push laws through the table with one
    # bincount kernel; it must give the bytes of np.add.at, which adds the
    # same weights in the same row-major order.  On a commutative table
    # convolve pushes the pair in the order of its bytes
    rng = np.random.default_rng(67)
    luts = []
    for n in (2, 5, 16, 33):
        luts.append(make_cyclic_lut(n, Permutation(rng.permutation(n))))
        luts.append(make_max_lut(n))
    for k in (2, 3, 5):
        table = cyclic_max_product(k, k, rng.permutation(k * k))
        luts.append(LutTable(Alphabet.canonical(k * k), table))
    s3 = s3_table()
    assert not np.array_equal(s3, s3.T)
    luts.append(LutTable(Alphabet.canonical(6), s3))
    for lut in luts:
        n, t = lut.n, lut.table
        comm = np.array_equal(t, t.T)
        for alpha in (1.0, 0.2):
            dp = Distribution(rng.dirichlet(np.full(n, alpha)))
            dq = Distribution(rng.dirichlet(np.full(n, alpha)))
            p, q = dp.p, dq.p
            pair = sorted((p, q), key=np.ndarray.tobytes) if comm else (p, q)
            want = Distribution(_add_at_convolve_raw(t, *pair)).p.tobytes()
            assert convolve(lut, dp, dq).p.tobytes() == want
            if comm:
                assert convolve(lut, dq, dp).p.tobytes() == want
            for m in (1, 2, 3, 7, 64, 1000):
                assert power(lut, dp, m).p.tobytes() == _add_at_power(t, p, m).tobytes(), (n, m)
            tv = 0.5 * float(np.abs(_add_at_convolve_raw(t, p, p) - p).sum())
            assert is_stable(lut, dp, tv)
            assert not is_stable(lut, dp, np.nextafter(tv, 0.0))
