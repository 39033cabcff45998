import numpy as np
import pytest

from pseudosum import (
    Cdf,
    Distribution,
    ValidityError,
    check_associative,
    check_commutative,
    convolve,
    degenerate_doa_necessary,
    find_idempotents,
    find_identity,
    is_stable,
    limit,
    make_max_lut,
    max_convolve,
    max_doa,
    max_nth_root,
    max_stable_set,
    power,
    tv_distance,
)


def test_cdf_validation():
    Cdf([0.25, 1.0])
    with pytest.raises(ValidityError):
        Cdf([0.5, 0.25, 1.0])
    with pytest.raises(ValidityError):
        Cdf([0.5, 0.9])
    with pytest.raises(ValidityError):
        Cdf([-0.2, 1.0])
    p = Distribution([0.1, 0.4, 0.5])
    assert np.allclose(Cdf.from_distribution(p).F, [0.1, 0.5, 1.0])
    assert Cdf([0.25, 1.0]).n == 2 and Cdf.from_distribution(p).n == 3
    assert tv_distance(Cdf.from_distribution(p).to_distribution(), p) <= 1e-15


def test_make_max_lut():
    assert make_max_lut(2).table.tolist() == [[0, 1], [1, 1]]
    lut = make_max_lut(3)
    assert lut.table[1, 2] == 2
    assert check_associative(lut) is None
    assert check_commutative(lut) is None
    assert find_identity(lut) == 0
    assert find_idempotents(lut) == [0, 1, 2]


def test_max_convolve_examples():
    p = Distribution([0.5, 0.5])
    assert np.allclose(max_convolve(p, p).p, [0.25, 0.75], atol=1e-15)
    d1 = Distribution.point_mass(3, 1)
    d2 = Distribution.point_mass(3, 2)
    assert max_convolve(d1, d2).p.tolist() == [0, 0, 1]
    top = Distribution.point_mass(3, 2)
    q = Distribution([0.2, 0.5, 0.3])
    assert max_convolve(q, top).p.tolist() == [0, 0, 1]
    with pytest.raises(ValidityError):
        max_convolve(p, Distribution([1.0]))


def test_max_convolve_equals_generic_convolve():
    rng = np.random.default_rng(91)
    for n in (2, 3, 9, 33, 64):
        lut = make_max_lut(n)
        for _ in range(10):
            p = Distribution(rng.dirichlet(np.ones(n)))
            q = Distribution(rng.dirichlet(np.ones(n)))
            assert np.abs(max_convolve(p, q).p - convolve(lut, p, q).p).max() <= 1e-14


def test_max_stable_set():
    laws = max_stable_set(3)
    assert [d.p.tolist() for d in laws] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    lut = make_max_lut(3)
    for d in laws:
        assert is_stable(lut, d)
    u = Distribution.uniform(2)
    assert not is_stable(make_max_lut(2), u)
    assert np.allclose(max_convolve(u, u).p, [0.25, 0.75])


def test_max_stability_characterization_both_ways():
    rng = np.random.default_rng(92)
    for n in (2, 5, 9):
        lut = make_max_lut(n)
        for k in range(n):
            assert is_stable(lut, Distribution.point_mass(n, k))
        for _ in range(60):
            p = Distribution(rng.dirichlet(np.ones(n)))
            assert is_stable(lut, p) == bool((p.p > 1 - 1e-12).any())


def test_max_doa_examples():
    p = Distribution([0.5, 0.5])
    assert max_doa(p, 1) is True
    assert max_doa(Distribution([1.0, 0.0]), 1) is False  # no mass at 1
    assert max_doa(p, 0) is False  # mass above 0
    with pytest.raises(ValidityError):
        max_doa(p, 2)
    # each point above 0 carries at most MASS_EPS, and points 4 and 5 more
    # together: the tail above 4 counts as absent, the tail from 4 does not
    tiny_top = Distribution([1 - 4.5e-12] + [0.9e-12] * 5)
    assert [max_doa(tiny_top, x) for x in range(6)] == [False, False, False, False, True, False]


def test_max_doa_agrees_with_limit():
    rng = np.random.default_rng(93)
    # a point of mass at most MASS_EPS is not the attractor: limit finds the
    # point mass below it
    absent = {2: [[1 - 1e-15, 1e-15]], 3: [[0.5, 0.5 - 1e-14, 1e-14]]}
    for n in (2, 3, 6):
        lut = make_max_lut(n)
        laws = [rng.dirichlet(np.ones(n)) if rng.integers(2) else _sparse(rng, n) for _ in range(40)]
        for p in map(Distribution, laws + absent.get(n, [])):
            res = limit(lut, p)
            for x in range(n):
                expected = res.status == "converged" and res.dist.p[x] > 1 - 1e-9
                assert max_doa(p, x) == expected
            assert sum(max_doa(p, x) for x in range(n)) == 1
            if res.status == "converged":
                top = int(np.argmax(res.dist.p))
                assert degenerate_doa_necessary(lut, top, p)


def _sparse(rng, n):
    size = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=size, replace=False)
    w = np.zeros(n)
    w[support] = rng.dirichlet(np.ones(size))
    return w


def test_max_nth_root_examples_and_roundtrip():
    r = max_nth_root(Distribution([0.25, 0.75]), 2)
    assert np.allclose(r.p, [0.5, 0.5], atol=1e-15)
    for k in range(3):
        d = Distribution.point_mass(3, k)
        assert max_nth_root(d, 4).p.tolist() == d.p.tolist()
    rng = np.random.default_rng(94)
    for n in (2, 4, 7):
        for _ in range(20):
            p = Distribution(rng.dirichlet(np.ones(n)))
            for parts in range(1, 6):
                root = max_nth_root(p, parts)
                folded = root
                for _ in range(parts - 1):
                    folded = max_convolve(folded, root)
                assert tv_distance(folded, p) <= 1e-12


def test_max_nth_root_zero_cdf_entries():
    p = Distribution([0.0, 0.0, 1.0])
    assert max_nth_root(p, 3).p.tolist() == [0, 0, 1]
    # an order beyond the float range, like 10**300, gives the point mass at
    # the lowest index of positive mass: zero CDF entries stay zero although
    # the exponent is 0.0
    p = Distribution([0.0, 0.25, 0.75])
    assert max_nth_root(p, 10**400).p.tolist() == max_nth_root(p, 10**300).p.tolist() == [0, 1, 0]


def test_max_convolve_stochastically_dominates():
    rng = np.random.default_rng(95)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        p = Distribution(rng.dirichlet(np.ones(n)))
        q = Distribution(rng.dirichlet(np.ones(n)))
        Fr = np.cumsum(max_convolve(p, q).p)
        assert (Fr <= np.cumsum(p.p) + 1e-12).all()
        assert (Fr <= np.cumsum(q.p) + 1e-12).all()


def test_power_on_max_table_matches_cdf_powers():
    rng = np.random.default_rng(96)
    lut = make_max_lut(5)
    for _ in range(10):
        p = Distribution(rng.dirichlet(np.ones(5)))
        m = int(rng.integers(1, 9))
        via_cdf = np.diff(np.cumsum(p.p) ** m, prepend=0.0)
        assert np.abs(power(lut, p, m).p - via_cdf).max() <= 1e-12
