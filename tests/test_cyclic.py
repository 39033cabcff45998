import math

import numpy as np
import pytest

from pseudosum import (
    Distribution,
    IdDecomposition,
    Permutation,
    Spectrum,
    StableLaw,
    ValidityError,
    check_associative,
    check_commutative,
    classify_stable,
    construct_id,
    convolve,
    decompose_id,
    doa_attractor,
    enumerate_stable,
    find_identity,
    from_spectrum,
    in_doa,
    is_infinitely_divisible,
    is_stable,
    limit,
    make_cyclic_lut,
    make_mod_lut,
    multiply_spectra,
    nth_root_oracle,
    power,
    relabel,
    spectrum,
    stable_distribution,
    tv_distance,
    verify_left_subtraction,
)
from pseudosum.cyclic import ZERO_EPS


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def random_law(rng, n):
    kind = rng.integers(4)
    if kind == 0:
        return Distribution(rng.dirichlet(np.ones(n)))
    if kind == 1:
        return Distribution.point_mass(n, int(rng.integers(n)))
    if kind == 2:
        d = int(rng.choice(divisors(n)))
        a = int(rng.integers(n))
        return Distribution.uniform(n, [(a + j * d) % n for j in range(n // d)])
    size = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=size, replace=False)
    w = np.zeros(n)
    w[support] = rng.dirichlet(np.ones(size))
    return Distribution(w)


def random_id_input(rng, n, s=None, lam=None):
    """A canonical-support factorization input: jump on relabeled 1..m-1,
    intensity lam (default: uniform on [0, 3]) unless m = 1."""
    sp = s if s is not None else Permutation.identity(n)
    m = int(rng.choice(divisors(n)))
    a = int(rng.integers(n))
    jump_rel = np.zeros(n)
    if m == 1:
        lam = 0.0
        jump_rel[0] = 1.0
    else:
        lam = float(rng.uniform(0.0, 3.0)) if lam is None else lam
        jump_rel[1:m] = rng.dirichlet(np.ones(m - 1))
    return IdDecomposition(a=a, m=m, lam=lam, jump=Distribution(jump_rel[sp.s]))


def test_permutation_validation():
    s = Permutation([2, 0, 1])
    assert s.inv.tolist() == [1, 2, 0]
    with pytest.raises(ValidityError):
        Permutation([0, 0, 1])
    with pytest.raises(ValidityError):
        Permutation([0, 2])
    assert Permutation.from_json({"n": 3, "s": [2, 0, 1.0]}).s.tolist() == [2, 0, 1]
    for doc in (
        {"n": "x", "s": [0, 1]},
        {"n": 2, "s": [0, 1.5]},  # used to be truncated to [0, 1]
        {"n": 2, "s": [0, "1"]},
        {"n": 2, "s": 5},
        {"n": 3, "s": [0, 1]},
    ):
        with pytest.raises(ValidityError):
            Permutation.from_json(doc)


def test_spectrum_validation():
    Spectrum([1.0, 0.5])
    with pytest.raises(ValidityError):
        Spectrum([0.9, 0.5])  # f(0) != 1
    with pytest.raises(ValidityError):
        Spectrum([1.0, 1.5])  # modulus > 1
    with pytest.raises(ValidityError):
        Spectrum([1.0, 0.5j, 0.5j])  # conjugate symmetry broken


def test_stable_law_and_decomposition_validation():
    with pytest.raises(ValidityError):
        StableLaw(0, 3)
    jump = Distribution.point_mass(4, 1)
    with pytest.raises(ValidityError):
        IdDecomposition(a=0, m=3, lam=1.0, jump=jump)  # 3 does not divide 4
    with pytest.raises(ValidityError):
        IdDecomposition(a=4, m=2, lam=1.0, jump=jump)
    with pytest.raises(ValidityError):
        IdDecomposition(a=0, m=2, lam=-0.5, jump=jump)


def test_make_cyclic_lut_examples():
    assert make_cyclic_lut(3).table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    swapped = make_cyclic_lut(2, Permutation([1, 0]))
    assert swapped.table.tolist() == [[1, 0], [0, 1]]
    assert swapped.table[0, 0] == 1  # s_inv[(1+1)%2] = s_inv[0] = 1
    assert make_cyclic_lut(1).table.tolist() == [[0]]


def test_cyclic_group_properties():
    rng = np.random.default_rng(71)
    for n in range(1, 17):
        for _ in range(6):
            s = Permutation(rng.permutation(n))
            lut = make_cyclic_lut(n, s)
            assert check_associative(lut) is None
            assert check_commutative(lut) is None
            assert find_identity(lut) == s.inv[0]
            assert verify_left_subtraction(lut, range(n))


def test_spectrum_examples():
    n = 5
    s = Permutation([3, 1, 4, 0, 2])
    f = spectrum(Distribution.point_mass(n, int(s.inv[0])), s).f
    assert np.allclose(f, np.ones(n), atol=1e-12)
    f = spectrum(Distribution.uniform(n), s).f
    assert abs(f[0] - 1) < 1e-12 and np.abs(f[1:]).max() < 1e-12
    f = spectrum(Distribution([0.75, 0.25])).f
    assert np.allclose(f, [1.0, 0.5], atol=1e-15)


def test_from_spectrum_examples_and_roundtrip():
    n = 6
    s = Permutation([2, 4, 0, 5, 1, 3])
    ones = Spectrum(np.ones(n))
    assert from_spectrum(ones, s).p.tolist() == Distribution.point_mass(n, int(s.inv[0])).p.tolist()
    e0 = Spectrum([1, 0, 0, 0, 0, 0])
    assert np.allclose(from_spectrum(e0, s).p, np.full(n, 1 / 6), atol=1e-12)
    rng = np.random.default_rng(72)
    for _ in range(25):
        p = Distribution(rng.dirichlet(np.ones(n)))
        back = from_spectrum(spectrum(p, s), s)
        assert tv_distance(back, p) <= 1e-12


def test_from_spectrum_rejects_non_probability():
    # passes every Spectrum invariant, but inverts to mass -0.425 at index 2
    f = Spectrum([1.0, 0.9, -0.9, 0.9])
    with pytest.raises(ValidityError):
        from_spectrum(f, None, tol=1e-9)


def test_multiply_spectra_homomorphism():
    rng = np.random.default_rng(73)
    for n in (2, 3, 8, 17, 64):
        lut = make_mod_lut(n)
        for _ in range(5):
            p = Distribution(rng.dirichlet(np.ones(n)))
            q = Distribution(rng.dirichlet(np.ones(n)))
            lhs = spectrum(convolve(lut, p, q)).f
            rhs = multiply_spectra(spectrum(p), spectrum(q)).f
            assert np.abs(lhs - rhs).max() <= 1e-12
    n2 = multiply_spectra(Spectrum([1, 0.5]), Spectrum([1, 0.5]))
    assert np.allclose(n2.f, [1, 0.25])


def test_enumerate_stable_examples():
    laws = enumerate_stable(6)
    assert [(law.m, law.r) for law, _ in laws] == [(6, 1), (3, 2), (2, 3), (1, 6)]
    dists = [d.p.tolist() for _, d in laws]
    assert dists[0] == [1, 0, 0, 0, 0, 0]
    assert dists[1] == [0.5, 0, 0, 0.5, 0, 0]
    assert np.allclose(dists[2], [1 / 3, 0, 1 / 3, 0, 1 / 3, 0])
    assert np.allclose(dists[3], np.full(6, 1 / 6))

    assert len(enumerate_stable(5)) == 2  # prime: degenerate and full uniform
    only = enumerate_stable(1)
    assert len(only) == 1 and only[0][1].p.tolist() == [1.0]


def test_enumerate_stable_all_fixed_points_and_exhaustive():
    rng = np.random.default_rng(74)
    for n in range(1, 17):
        lut = make_mod_lut(n)
        laws = enumerate_stable(n)
        assert len(laws) == len(divisors(n))
        listed = [d for _, d in laws]
        for _, d in laws:
            assert is_stable(lut, d, 1e-12)
        # brute-force oracle: subgroup uniforms are all in the list, random
        # laws are stable only when they match a listed law
        for dd in divisors(n):
            u = Distribution.uniform(n, range(0, n, dd))
            if is_stable(lut, u, 1e-12):
                assert any(tv_distance(u, d) <= 1e-12 for d in listed)
        for _ in range(50):
            p = Distribution(rng.dirichlet(np.ones(n)))
            if is_stable(lut, p, 1e-12):
                assert any(tv_distance(p, d) <= 1e-9 for d in listed)


def test_subgroup_indicator_spectra_invert_to_listed_laws():
    for n in (1, 2, 6, 12):
        s = Permutation(np.roll(np.arange(n), 1)) if n > 1 else None
        listed = [d for _, d in enumerate_stable(n, s)]
        for r in divisors(n):
            ind = Spectrum((np.arange(n) % r == 0).astype(float))
            law = from_spectrum(ind, s)
            matches = [d for d in listed if tv_distance(law, d) <= 1e-12]
            assert len(matches) == 1


def test_stable_iff_zero_one_spectrum():
    rng = np.random.default_rng(75)
    for n in (2, 3, 6, 8):
        lut = make_mod_lut(n)
        candidates = [d for _, d in enumerate_stable(n)]
        candidates += [Distribution(rng.dirichlet(np.ones(n))) for _ in range(30)]
        for p in candidates:
            f = spectrum(p).f
            idempotent = bool((np.minimum(np.abs(f), np.abs(f - 1)) <= 1e-9).all())
            assert idempotent == is_stable(lut, p, 1e-12)


def test_classify_stable():
    assert classify_stable(Distribution.uniform(6)) == StableLaw(1, 6)
    s = Permutation([1, 2, 0])
    assert classify_stable(Distribution.point_mass(3, int(s.inv[0])), s) == StableLaw(3, 1)
    assert classify_stable(Distribution([0.75, 0.25])) is None


def test_in_doa_examples():
    assert in_doa(Distribution.uniform(4, [0, 1]), StableLaw(1, 4)) is True
    assert in_doa(Distribution.point_mass(2, 1), StableLaw(1, 2)) is False
    assert in_doa(Distribution([0.5, 0, 0.5, 0]), StableLaw(2, 2)) is True
    with pytest.raises(ValidityError):
        in_doa(Distribution.uniform(4), StableLaw(3, 1))


def test_doa_attractor_examples():
    s = Permutation([1, 0])
    assert doa_attractor(Distribution.point_mass(2, int(s.inv[0])), s) == StableLaw(2, 1)
    assert doa_attractor(Distribution([0.75, 0.25])) == StableLaw(1, 2)
    assert doa_attractor(Distribution.point_mass(2, 1)) is None


def test_doa_agrees_with_limit():
    rng = np.random.default_rng(76)
    for n in range(2, 9):
        lut = make_mod_lut(n)
        for _ in range(30):
            p = random_law(rng, n)
            res = limit(lut, p)
            att = doa_attractor(p)
            if res.status == "converged":
                assert att is not None
                assert tv_distance(res.dist, stable_distribution(att)) <= 1e-8
            else:
                assert res.status == "cycle"
                assert att is None


def test_doa_agrees_with_limit_under_permutation():
    rng = np.random.default_rng(82)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        s = Permutation(rng.permutation(n))
        lut = make_cyclic_lut(n, s)
        p = random_law(rng, n)
        res = limit(lut, p)
        att = doa_attractor(p, s)
        if res.status == "converged":
            assert att is not None
            assert tv_distance(res.dist, stable_distribution(att, s)) <= 1e-8
        else:
            assert att is None


def assert_spectrum_agrees(p, s, att):
    """The relabeled spectrum f has f = 1 on the subgroup t = 0 mod r and
    |f| < 1 off it when p is attracted to (m, r); otherwise some |f(t)| = 1
    with f(t) != 1 makes the fold powers rotate."""
    f = spectrum(p, s).f
    t = np.arange(p.n)
    if att is not None:
        assert np.abs(f[t % att.r == 0] - 1.0).max() <= 1e-9, (p.p, att)
        off = f[t % att.r != 0]
        assert off.size == 0 or np.abs(off).max() <= 1.0 - 1e-9, (p.p, att)
    else:
        rotating = (np.abs(np.abs(f) - 1.0) <= 1e-9) & (np.abs(f - 1.0) > 1e-6)
        assert rotating.any(), p.p


def test_doa_attractor_agrees_with_spectrum():
    rng = np.random.default_rng(83)
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        s = Permutation(rng.permutation(n))
        p = random_law(rng, n)
        assert_spectrum_agrees(p, s, doa_attractor(p, s))
    # the acceptance suite's criterion-4 sample (identity permutation)
    rng = np.random.default_rng(20260809 + 4)
    for n in range(2, 13):
        for _ in range(200):
            p = random_law(rng, n)
            assert_spectrum_agrees(p, None, doa_attractor(p))


def test_doa_agrees_with_limit_at_n360():
    rng = np.random.default_rng(84)
    n = 360
    s = Permutation(rng.permutation(n))
    lut = make_cyclic_lut(n, s)
    dirichlet = Distribution(rng.dirichlet(np.ones(n)))
    assert doa_attractor(dirichlet, s) == StableLaw(1, n)
    res = limit(lut, dirichlet)
    assert res.status == "converged"
    assert tv_distance(res.dist, stable_distribution(StableLaw(1, n), s)) <= 1e-8
    # relabeled support 5 + 6Z: the fold powers rotate through the cosets
    q = np.zeros(n)
    q[5::6] = rng.dirichlet(np.ones(n // 6))
    coset = Distribution(q[s.s])
    assert doa_attractor(coset, s) is None
    assert limit(lut, coset).status == "cycle"


def test_doa_masses_at_most_1e_12_count_as_absent():
    # (a) mass 1/2 at 0 and at 6; the 1.1e-12 left over is spread over the
    # other ten points, none of which carries more than 1e-12
    w = np.full(12, 1e-13)
    w[0], w[6], w[11] = 0.5, 0.5 - 1.1e-12, 2e-13
    p = Distribution(w)
    assert doa_attractor(p) == StableLaw(6, 2)
    assert [m for m in divisors(12) if in_doa(p, StableLaw(m, 12 // m))] == [6]
    # (b) uniform on 3 + 4Z; the FFT leaves residues of about 1.8e-16 on 4Z,
    # which would make the support generate all of Z_12 if they counted
    p = construct_id(IdDecomposition(a=3, m=4, lam=0.0, jump=Distribution.point_mass(12, 0)))
    assert doa_attractor(p) is None
    assert not any(in_doa(p, StableLaw(m, 12 // m)) for m in divisors(12))


def test_construct_id_examples():
    n = 4
    s = Permutation([2, 0, 3, 1])
    d = IdDecomposition(
        a=int(s.inv[0]), m=n, lam=0.0, jump=Distribution.point_mass(n, 0)
    )
    assert construct_id(d, s).p.tolist() == Distribution.point_mass(n, int(s.inv[0])).p.tolist()

    # Poisson(0.7) jumps of size 1 mod 4, independent series-summation oracle
    d = IdDecomposition(a=0, m=4, lam=0.7, jump=Distribution.point_mass(4, 1))
    got = construct_id(d)
    expect = np.zeros(4)
    for j in range(80):
        expect[j % 4] += math.exp(-0.7) * 0.7**j / math.factorial(j)
    assert np.abs(got.p - expect).max() <= 1e-12

    d = IdDecomposition(a=0, m=2, lam=0.0, jump=Distribution.point_mass(6, 0))
    assert np.allclose(construct_id(d).p, [1 / 3, 0, 1 / 3, 0, 1 / 3, 0], atol=1e-12)


def test_decompose_id_roundtrip_canonical():
    rng = np.random.default_rng(77)
    for trial in range(150):
        n = int(rng.integers(2, 13))
        s = Permutation(rng.permutation(n)) if trial % 3 else None
        d = random_id_input(rng, n, s)
        p = construct_id(d, s)
        dc = decompose_id(p, s)
        assert dc is not None
        # orbit invariants recover the raw input
        assert dc.m == d.m
        assert abs(dc.lam - d.lam) <= 1e-8
        # the factorization reproduces the law
        pc = construct_id(dc, s)
        assert tv_distance(pc, p) <= 1e-10
        # and is the canonical representative: decomposing again is identity
        dcc = decompose_id(pc, s)
        assert dcc.a == dc.a and dcc.m == dc.m
        assert abs(dcc.lam - dc.lam) <= 1e-8
        assert tv_distance(dcc.jump, dc.jump) <= 1e-8


def test_decompose_id_uniform_and_non_id():
    du = decompose_id(Distribution.uniform(5))
    assert du.a == 0 and du.m == 1 and du.lam == 0.0
    assert du.jump.p.tolist() == [1, 0, 0, 0, 0]
    assert decompose_id(Distribution([0, 0.5, 0.5])) is None
    # a near-uniform law at N = 60 and a random one at N = 360: both have a
    # negative even part of the log-spectrum
    rng = np.random.default_rng(83)
    assert decompose_id(Distribution(rng.dirichlet(np.full(60, 20.0)))) is None
    s = Permutation(rng.permutation(360))
    assert decompose_id(Distribution(rng.dirichlet(np.ones(360))), s) is None


def test_decompose_id_roundtrip_at_large_lambda():
    # construct_id laws at intensities 8, 12 and 16.  A subgroup spectrum
    # value at or below ZERO_EPS counts as a zero, so such a law is excluded;
    # the counts pin how much of each sample that limit takes.
    rng = np.random.default_rng(82)
    excluded = {}
    for lam in (8.0, 12.0, 16.0):
        excluded[lam] = 0
        for _ in range(40):
            n = int(rng.integers(4, 25))
            s = Permutation(rng.permutation(n))
            d = random_id_input(rng, n, s, lam)
            p = construct_id(d, s)
            g = np.abs(spectrum(p, s).f[:: n // d.m])
            if g.min() <= ZERO_EPS:
                excluded[lam] += 1
                continue
            dc = decompose_id(p, s)
            assert dc is not None, (lam, n, d.m)
            assert dc.m == d.m
            # the masses of p carry rounding of about 1e-16, so log|g| is
            # good to about 1e-16 / |g|; the error was at most
            # 1.2e-16 mean(1 / |g|) on 935 such laws
            assert abs(dc.lam - d.lam) <= 1e-8 + 1e-15 * np.mean(1 / g)
            assert tv_distance(construct_id(dc, s), p) <= 1e-8
    assert excluded == {8.0: 0, 12.0: 3, 16.0: 26}


def test_is_infinitely_divisible_examples():
    for a in range(4):
        assert is_infinitely_divisible(Distribution.point_mass(4, a))
    p = Distribution([0.75, 0.25])
    assert is_infinitely_divisible(p)
    d = decompose_id(p)
    assert abs(d.lam - math.log(2) / 2) <= 1e-12  # f(1)=0.5=exp(-2c)
    assert not is_infinitely_divisible(Distribution([0, 0.5, 0.5]))


def test_nth_root_oracle_examples():
    n = 3
    assert nth_root_oracle(Distribution.point_mass(n, 0), 2).p.tolist() == [1, 0, 0]
    r = nth_root_oracle(Distribution([0.625, 0.375]), 2)
    assert np.allclose(r.p, [0.75, 0.25], atol=1e-12)
    assert nth_root_oracle(Distribution([0, 0.5, 0.5]), 2) is None
    with pytest.raises(ValidityError):
        nth_root_oracle(Distribution.uniform(9), 2)
    with pytest.raises(ValidityError):
        nth_root_oracle(Distribution.uniform(4), 5)


def test_id_forward_direction_vs_oracle():
    # canonical-form laws always have fold roots at every order
    rng = np.random.default_rng(78)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        d = random_id_input(rng, n)
        p = construct_id(d)
        assert is_infinitely_divisible(p)
        for parts in (2, 3):
            assert nth_root_oracle(p, parts) is not None


def test_stable_laws_are_infinitely_divisible():
    for n in range(1, 13):
        for _, dist in enumerate_stable(n):
            assert is_infinitely_divisible(dist)


def test_id_closed_under_convolution():
    rng = np.random.default_rng(79)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        lut = make_mod_lut(n)
        pa = construct_id(random_id_input(rng, n))
        pb = construct_id(random_id_input(rng, n))
        assert is_infinitely_divisible(convolve(lut, pa, pb))


def test_permutation_invariance():
    rng = np.random.default_rng(80)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        s = Permutation(rng.permutation(n))
        p = random_law(rng, n)
        moved = relabel(p, s)

        c1 = classify_stable(p, s)
        c2 = classify_stable(moved)
        assert c1 == c2

        a1 = doa_attractor(p, s)
        a2 = doa_attractor(moved)
        assert a1 == a2

        assert is_infinitely_divisible(p, s) == is_infinitely_divisible(moved)
        d1 = decompose_id(p, s)
        if d1 is not None:
            d2 = decompose_id(moved)
            assert d1.m == d2.m
            assert abs(d1.lam - d2.lam) <= 1e-10
            assert s.s[d1.a] == d2.a
            assert tv_distance(relabel(d1.jump, s), d2.jump) <= 1e-10

        f1 = spectrum(p, s).f
        f2 = spectrum(moved).f
        assert np.abs(f1 - f2).max() <= 1e-12


def test_power_shift_consistency_of_oracle_witness():
    # the witness folds back to the law, shifted by some point mass
    rng = np.random.default_rng(81)
    lut = make_mod_lut(4)
    for _ in range(20):
        p = construct_id(random_id_input(rng, 4))
        w = nth_root_oracle(p, 3)
        assert w is not None
        folded = power(lut, w, 3)
        ok = any(
            tv_distance(convolve(lut, folded, Distribution.point_mass(4, a)), p) <= 1e-8
            for a in range(4)
        )
        assert ok
