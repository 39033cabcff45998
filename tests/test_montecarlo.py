import numpy as np
import pytest

from pseudosum import (
    Distribution,
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


def test_sample_index_examples():
    assert sample_index(Distribution.point_mass(4, 2), 0.99) == 2
    assert sample_index(Distribution([0.5, 0.5]), 0.7) == 1
    assert sample_index(Distribution([0.25, 0.75]), 0.25) == 1  # boundary goes up
    assert sample_index(Distribution([0.25, 0.75]), 0.2499999) == 0
    # rounded total mass 0.9999999999999999 <= u: the last index, not n
    assert sample_index(Distribution([0.1] * 10), 0.9999999999999999) == 9
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
    from pseudosum.montecarlo import _uniforms

    lut = make_mod_lut(5)
    p = Distribution([0.3, 0.1, 0.2, 0.25, 0.15])
    cdf = np.cumsum(p.p)
    seed, trials, m = 4242, 300, 6
    rng = np.random.default_rng(0)
    counters = np.arange(trials, dtype=np.uint64)[:, None] * np.uint64(m) + np.arange(
        m, dtype=np.uint64
    )
    idx = np.minimum(np.searchsorted(cdf, _uniforms(seed, counters).ravel(), side="right").reshape(trials, m), 4)
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
