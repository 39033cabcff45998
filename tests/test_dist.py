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
    is_stable,
    limit,
    make_max_lut,
    make_mod_lut,
    power,
    tv_distance,
    verify_left_subtraction,
)


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
    # a NaN sums to NaN, and abs(NaN - 1) > tol is False
    for bad in ([np.nan, 1.0], [np.inf, 1.0], [0.5, 0.5, -np.inf]):
        with pytest.raises(ValidityError, match="finite"):
            Distribution(bad)


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


def test_limit_validates_arguments():
    lut = make_mod_lut(2)
    with pytest.raises(ValidityError):
        limit(lut, Distribution.uniform(2), tol=0.0)
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
