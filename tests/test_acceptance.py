"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All samples are seeded; run with ``pytest tests/test_acceptance.py -v -s`` to
see the per-criterion lines.
"""

import numpy as np

from pseudosum import (
    Alphabet,
    Distribution,
    IdDecomposition,
    LutTable,
    Permutation,
    SimConfig,
    StableLaw,
    check_associative,
    check_commutative,
    construct_id,
    convolve,
    decompose_id,
    degenerate_doa_necessary,
    doa_attractor,
    empirical_fold,
    enumerate_stable,
    find_identity,
    in_doa,
    is_infinitely_divisible,
    is_stable,
    limit,
    make_cyclic_lut,
    make_max_lut,
    make_mod_lut,
    max_convolve,
    max_doa,
    max_nth_root,
    multiply_spectra,
    nth_root_oracle,
    power,
    spectrum,
    stable_distribution,
    tv_distance,
    verify_left_subtraction,
)
from pseudosum.cyclic import ZERO_EPS

from oracles import divisors, naive_first_assoc_failure, random_law

SEED = 20260809


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_table_algebra():
    """Cyclic tables satisfy all four group properties; the associativity
    checker finds the true first counterexample on random tables."""
    rng = np.random.default_rng(SEED + 1)
    for n in range(1, 17):
        for _ in range(20):
            s = Permutation(rng.permutation(n))
            lut = make_cyclic_lut(n, s)
            assert check_associative(lut) is None
            assert check_commutative(lut) is None
            assert find_identity(lut) == s.inv[0]
            assert verify_left_subtraction(lut, range(n))
    checked = 0
    for n in range(1, 17):
        for _ in range(100):
            table = rng.integers(0, n, size=(n, n))
            lut = LutTable(Alphabet.canonical(n), table)
            assert check_associative(lut) == naive_first_assoc_failure(table.tolist())
            checked += 1
    _report("criterion 1: table algebra", True, f"{checked} random tables")


def test_criterion_2_stable_enumeration():
    """enumerate_stable lists exactly the divisor-count laws, every one a
    self-convolution fixed point, and nothing outside the list is stable."""
    rng = np.random.default_rng(SEED + 2)
    for n in range(1, 25):
        lut = make_mod_lut(n)
        laws = enumerate_stable(n)
        assert len(laws) == len(divisors(n))
        if n > 1 and all(n % d for d in range(2, n)):
            assert len(laws) == 2  # prime
        listed = [d for _, d in laws]
        for _, d in laws:
            assert is_stable(lut, d, 1e-12)
        # brute-force oracle: all subgroup uniforms with all offsets, plus
        # 1000 random laws; any fixed point must match a listed law
        for dd in divisors(n):
            for off in range(dd):
                u = Distribution.uniform(n, [(off + j * dd) % n for j in range(n // dd)])
                if is_stable(lut, u, 1e-12):
                    assert any(tv_distance(u, q) <= 1e-12 for q in listed)
        for _ in range(1000):
            p = Distribution(rng.dirichlet(np.ones(n)))
            if is_stable(lut, p, 1e-12):
                assert any(tv_distance(p, q) <= 1e-9 for q in listed)
    _report("criterion 2: stable enumeration", True, "N <= 24, 1000 randoms per N")


def test_criterion_3_spectral_homomorphism():
    """spectrum(convolve(p,q)) equals spectrum(p)*spectrum(q) componentwise
    within 1e-12."""
    rng = np.random.default_rng(SEED + 3)
    pairs = 0
    worst = 0.0
    for n in range(2, 65):
        lut = make_mod_lut(n)
        for _ in range(16):
            p = Distribution(rng.dirichlet(np.ones(n)))
            q = Distribution(rng.dirichlet(np.ones(n)))
            lhs = spectrum(convolve(lut, p, q)).f
            rhs = multiply_spectra(spectrum(p), spectrum(q)).f
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            pairs += 1
    _report(
        "criterion 3: spectral homomorphism",
        worst <= 1e-12 and pairs >= 1000,
        f"{pairs} pairs, worst componentwise error {worst:.2e}",
    )


def _doa_sample():
    rng = np.random.default_rng(SEED + 4)
    for n in range(2, 13):
        for _ in range(200):
            yield n, random_law(rng, n)


def test_criterion_4_doa_trichotomy():
    """doa_attractor, the in_doa criterion, and direct limit iteration agree
    pairwise on every sampled law."""
    cases = 0
    for n, p in _doa_sample():
        lut = make_mod_lut(n)
        res = limit(lut, p)
        att = doa_attractor(p)
        # in_doa holds for exactly the attractor's divisor
        for m in divisors(n):
            hit = in_doa(p, StableLaw(m, n // m))
            assert hit == (att is not None and att.m == m), (n, p.p, m)
        if res.status == "converged":
            assert att is not None, (n, p.p)
            assert tv_distance(res.dist, stable_distribution(att)) <= 1e-8
        else:
            assert res.status == "cycle", (n, p.p, res.status)
            assert att is None, (n, p.p)
        cases += 1
    _report("criterion 4: DoA trichotomy", True, f"{cases} laws, N in 2..12")


def _id_sample():
    rng = np.random.default_rng(SEED + 5)
    ns = list(range(2, 13))
    for i in range(500):
        n = ns[i % len(ns)]
        divs = divisors(n)
        m = divs[i % len(divs)]
        a = int(rng.integers(n))  # all shifts
        jump = np.zeros(n)
        if m == 1:
            lam = 0.0  # the full uniform absorbs any compound-Poisson part
            jump[0] = 1.0
        else:
            lam = float(rng.uniform(0.0, 3.0))
            jump[1:m] = rng.dirichlet(np.ones(m - 1))  # canonical folded support
        yield IdDecomposition(a=a, m=m, lam=lam, jump=Distribution(jump))


def test_criterion_5_id_roundtrip():
    """decompose_id inverts construct_id: the orbit invariants (m, lambda)
    are recovered from the raw input, the factorization reproduces the law,
    and the canonical representative round-trips field for field."""
    count = 0
    for d in _id_sample():
        p = construct_id(d)
        dc = decompose_id(p)
        assert dc is not None, d
        assert dc.m == d.m
        assert abs(dc.lam - d.lam) <= 1e-8
        pc = construct_id(dc)
        assert tv_distance(pc, p) <= 1e-8
        dcc = decompose_id(pc)
        assert dcc.a == dc.a and dcc.m == dc.m
        assert abs(dcc.lam - dc.lam) <= 1e-8
        assert tv_distance(dcc.jump, dc.jump) <= 1e-8
        assert is_infinitely_divisible(p)
        count += 1
    for n in range(1, 25):
        for _, q in enumerate_stable(n):
            assert is_infinitely_divisible(q)
    _report("criterion 5: ID roundtrip", True, f"{count} factorizations + stable laws")


def _dense_root_bytes(p, n_parts):
    """The bytes of nth_root_oracle(p, n_parts) by its definition: every shift
    and every branch digit at each nonzero frequency, in lexicographic order."""
    n = p.n
    f = spectrum(p).f
    lut = make_cyclic_lut(n)
    t = np.arange(n)
    for a in range(n):
        target = f * np.exp(-2j * np.pi * a * t / n)
        nz = np.abs(target) > ZERO_EPS
        base = np.zeros(n, dtype=complex)
        base[nz] = np.abs(target[nz]) ** (1.0 / n_parts) * np.exp(1j * np.angle(target[nz]) / n_parts)
        base[0] = 1.0
        free = np.flatnonzero(nz[1:]) + 1
        digits = np.arange(n_parts**free.size)[:, None] // n_parts ** np.arange(free.size)[::-1] % n_parts
        cands = np.repeat(base[None, :], len(digits), axis=0)
        cands[:, free] *= np.exp(2j * np.pi * digits / n_parts)
        Q = np.fft.fft(cands, axis=1) / n
        for q in Q[(np.abs(Q.imag).max(axis=1) <= 1e-10) & (Q.real.min(axis=1) >= -1e-10)]:
            qq = np.clip(q.real, 0.0, None)
            root = Distribution(qq / qq.sum())
            if tv_distance(convolve(lut, power(lut, root, n_parts), Distribution.point_mass(n, a)), p) <= 1e-8:
                return root.p.tobytes()
    return None


# Reverse search bound: four times the largest N in the criterion-6 sample.
_ROOT_ORDER_BOUND = 24


def test_criterion_6_id_oracle_agreement():
    """is_infinitely_divisible vs shifted fold-root witnesses.

    6a, forward: a shift+uniform+compound-Poisson factorization gives roots
    at n = 2 and 3 (nth_root_oracle), and (0, 0.5, 0.5) is rejected by both.
    6b, reverse: every rejected law lacks a shifted fold root at some order
    n <= 24.  On a finite abelian group the infinitely divisible laws are
    exactly shift x idempotent x Poisson (Parthasarathy 1967, ch. IV; Heyer
    1977), so a rejected law with roots at every order would be a false
    negative of decompose_id.  Roots at a few small orders are not enough:
    sample law 24 has roots of every order 2..16 and none of order 17, which
    is pinned here.  nth_root_oracle must return the same root bytes as
    its dense definition at orders 2, 3 and 4 on every law.
    """
    rng = np.random.default_rng(SEED + 6)
    forward_bad = []
    reverse_bad = []
    disagree = []
    missing = {}  # sample index -> smallest order without a shifted root
    for i in range(100):
        n = 2 + (i % 5)
        p = random_law(rng, n)
        idm = is_infinitely_divisible(p)
        roots = {k: nth_root_oracle(p, k) for k in (2, 3, 4)}
        if idm and (roots[2] is None or roots[3] is None):
            forward_bad.append((n, p.p))
        disagree += [(i, k) for k, w in roots.items() if (w and w.p.tobytes()) != _dense_root_bytes(p, k)]
        if not idm:
            k = next(
                (k for k in range(2, _ROOT_ORDER_BOUND + 1)
                 if (roots[k] if k in roots else nth_root_oracle(p, k)) is None),
                None,
            )
            if k is None:
                reverse_bad.append((i, n, p.p))
            else:
                missing[i] = k
    bad_law = Distribution([0.0, 0.5, 0.5])
    both_reject = (
        not is_infinitely_divisible(bad_law)
        and nth_root_oracle(bad_law, 2) is None
        and nth_root_oracle(bad_law, 3) is None
    )
    _report(
        "criterion 6a: ID => root witnesses; (0,.5,.5) rejected by both",
        not forward_bad and both_reject,
        f"{len(forward_bad)} forward failures",
    )
    _report(
        "criterion 6: nth_root_oracle matches its dense definition, n in 2..4",
        not disagree,
        f"{len(disagree)} disagreements" + (f"; first (law, n): {disagree[0]}" if disagree else ""),
    )
    detail = f"{len(missing)} rejected laws, each without a root at some n <= {_ROOT_ORDER_BOUND}"
    if reverse_bad:
        i, n, pp = reverse_bad[0]
        detail = (
            f"{len(reverse_bad)} rejected laws with roots at every n <= {_ROOT_ORDER_BOUND},"
            f" possible decompose_id false negatives; first: law {i}, N={n},"
            f" p={np.round(pp, 4).tolist()}"
        )
    _report("criterion 6b: roots at every order => ID", not reverse_bad, detail)
    _report(
        "criterion 6b: law 24 has roots of orders 2..16, none of order 17",
        missing.get(24) == 17,
        f"smallest missing order: {missing.get(24)}",
    )


def _max_doa_sample():
    rng = np.random.default_rng(SEED + 7)
    for n in range(2, 10):
        for _ in range(25):
            yield n, random_law(rng, n)


def test_criterion_7_max_case():
    """CDF-product convolution matches the generic engine to 1e-14; the max
    table's stable laws are exactly the point masses; roots roundtrip; the
    attraction test agrees with direct iteration."""
    rng = np.random.default_rng(SEED + 8)
    worst = 0.0
    pairs = 0
    for n in range(2, 65):
        lut = make_max_lut(n)
        for _ in range(16):
            p = Distribution(rng.dirichlet(np.ones(n)))
            q = Distribution(rng.dirichlet(np.ones(n)))
            worst = max(worst, float(np.abs(max_convolve(p, q).p - convolve(lut, p, q).p).max()))
            pairs += 1
    assert pairs >= 1000 and worst <= 1e-14, worst

    for n in (2, 3, 5, 9, 16):
        lut = make_max_lut(n)
        for k in range(n):
            assert is_stable(lut, Distribution.point_mass(n, k), 1e-12)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 17))
        p = Distribution(rng.dirichlet(np.ones(n)))
        if (p.p > 1 - 1e-9).any():
            continue
        assert not is_stable(make_max_lut(n), p, 1e-12)
        checked += 1

    for _ in range(100):
        n = int(rng.integers(2, 9))
        p = Distribution(rng.dirichlet(np.ones(n)))
        for parts in range(1, 6):
            root = max_nth_root(p, parts)
            folded = root
            for _ in range(parts - 1):
                folded = max_convolve(folded, root)
            assert tv_distance(folded, p) <= 1e-12

    sweeps = 0
    for n, p in _max_doa_sample():
        lut = make_max_lut(n)
        res = limit(lut, p)
        for x in range(n):
            expected = res.status == "converged" and res.dist.p[x] > 1 - 1e-9
            assert max_doa(p, x) == expected, (n, p.p, x)
        sweeps += 1
    _report(
        "criterion 7: max case",
        True,
        f"{pairs} convolve pairs (worst {worst:.2e}), {checked} instability checks, {sweeps} DoA sweeps",
    )


def test_criterion_8_limit_theorems_as_properties():
    """Every converged limit is a stable law at 2x tolerance; every limit
    that is a point mass satisfies the degenerate-attraction necessary
    condition -- across the criterion-4 and criterion-7 samples."""
    tol = 1e-12
    converged = 0
    degenerate = 0
    for sample, make_lut in ((_doa_sample, make_mod_lut), (_max_doa_sample, make_max_lut)):
        for n, p in sample():
            lut = make_lut(n)
            res = limit(lut, p, tol=tol)
            if res.status != "converged":
                continue
            converged += 1
            assert is_stable(lut, res.dist, 2 * tol), (n, p.p)
            peak = np.flatnonzero(res.dist.p > 1 - 1e-9)
            if peak.size == 1:
                degenerate += 1
                assert degenerate_doa_necessary(lut, int(peak[0]), p), (n, p.p)
    _report(
        "criterion 8: limit theorems as properties",
        True,
        f"{converged} converged limits, {degenerate} degenerate",
    )


def test_criterion_9_monte_carlo():
    """20 fixed configurations: empirical law within tv 0.02 of the exact
    power at 1e5 trials, byte-identical across runs and worker counts.

    Oracle bound: tv concentrates around its mean E[tv] <= sqrt(N)/(2 sqrt(T))
    (Cauchy-Schwarz over per-atom binomial deviations); one trial moves tv by
    at most 1/T, so McDiarmid gives P(tv > E + eps) <= exp(-2 eps^2 T).  At
    T = 1e5 and N <= 16: E <= 0.0064, and eps = 0.0136 leaves failure
    probability exp(-37) << 1% per configuration.
    """
    configs = []
    rng = np.random.default_rng(SEED + 9)
    for i in range(10):
        n = int(rng.integers(2, 17))
        configs.append((make_mod_lut(n), Distribution(rng.dirichlet(np.ones(n))), int(rng.integers(1, 9))))
    for i in range(10):
        n = int(rng.integers(2, 17))
        configs.append((make_max_lut(n), Distribution(rng.dirichlet(np.ones(n))), int(rng.integers(1, 9))))
    worst = 0.0
    for i, (lut, p, m) in enumerate(configs):
        cfg = SimConfig(seed=SEED * 1000 + i, trials=100_000, m=m)
        emp1 = empirical_fold(lut, p, cfg)
        emp2 = empirical_fold(lut, p, cfg)
        emp8 = empirical_fold(lut, p, cfg, workers=8)
        assert emp1.p.tobytes() == emp2.p.tobytes() == emp8.p.tobytes()
        tv = tv_distance(emp1, power(lut, p, m))
        worst = max(worst, tv)
        assert tv <= 0.02, (i, tv)
    _report("criterion 9: Monte Carlo", True, f"20 configs, worst tv {worst:.4f}")
