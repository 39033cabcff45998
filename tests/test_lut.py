import tracemalloc

import numpy as np
import pytest

import pseudosum.lut as lut_module
from pseudosum import (
    Alphabet,
    Distribution,
    LutTable,
    ValidityError,
    apply,
    check_associative,
    check_commutative,
    degenerate_doa_necessary,
    find_idempotents,
    find_identity,
    make_cyclic_lut,
    make_max_lut,
    make_mod_lut,
    Permutation,
    Spectrum,
    power,
    verify_left_subtraction,
)


def naive_first_assoc_failure(table):
    """Literal triple loop, the independent oracle for check_associative."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[i][table[j][k]] != table[table[i][j]][k]:
                    return (i, j, k)
    return None


@pytest.mark.parametrize(
    "build, arr, attr",
    [
        (Alphabet, np.array([0.0, 1.0, 2.0]), "values"),
        (lambda a: LutTable(Alphabet.canonical(2), a), np.array([[0, 1], [1, 0]], dtype=np.intp), "table"),
        (Permutation, np.array([1, 0, 2], dtype=np.intp), "s"),
        (Spectrum, np.array([1.0, 0.5, 0.5], dtype=complex), "f"),
    ],
    ids=["Alphabet", "LutTable", "Permutation", "Spectrum"],
)
def test_constructors_copy_the_callers_array(build, arr, attr):
    obj = build(arr)
    before = getattr(obj, attr).copy()
    arr[0] = arr[1]  # raises if the constructor froze the caller's array
    assert np.array_equal(getattr(obj, attr), before)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValidityError):
        Alphabet([0.0, 1.0, 1.0])
    with pytest.raises(ValidityError):
        Alphabet([])


def test_lut_rejects_bad_shapes_and_entries():
    a = Alphabet.canonical(2)
    with pytest.raises(ValidityError):
        LutTable(a, [[0, 1]])
    with pytest.raises(ValidityError):
        LutTable(a, [[0, 1], [1, 2]])
    with pytest.raises(ValidityError):
        LutTable(a, [[0, -1], [1, 0]])


def test_apply_examples():
    assert apply(make_mod_lut(3), 1, 2) == 0
    assert apply(make_max_lut(4), 1, 3) == 3
    assert apply(make_mod_lut(2), 1, 1) == 0
    with pytest.raises(ValidityError):
        apply(make_mod_lut(3), 3, 0)


def test_check_associative_structured_tables_pass():
    for n in (1, 2, 3, 5, 8, 12):
        assert check_associative(make_mod_lut(n)) is None
        assert check_associative(make_max_lut(n)) is None


def test_check_associative_counterexample_is_first():
    lut = LutTable(Alphabet.canonical(2), [[0, 1], [0, 0]])
    # exhaustive scan of the 8 triples puts the first failure at (1, 0, 1)
    assert naive_first_assoc_failure([[0, 1], [0, 0]]) == (1, 0, 1)
    assert check_associative(lut) == (1, 0, 1)


def test_check_associative_matches_naive_on_random_tables():
    rng = np.random.default_rng(51)
    for n in range(1, 11):
        for _ in range(20):
            table = rng.integers(0, n, size=(n, n))
            lut = LutTable(Alphabet.canonical(n), table)
            assert check_associative(lut) == naive_first_assoc_failure(table.tolist())


def _cyclic_max_product(k, l):
    """Z_k x ({0..l-1}, max), element (a, b) at index a*l + b: associative."""
    a, b = np.divmod(np.arange(k * l), l)
    return ((a[:, None] + a[None, :]) % k) * l + np.maximum.outer(b, b)


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_check_associative_blocks_match_naive_on_perturbed_tables(monkeypatch, rows):
    # Associative tables with one cell changed in the lower-right quadrant
    # can first fail in a late row (the max and product tables do), so the
    # scan must cross blocks; random tables almost always fail at i = 0.
    rng = np.random.default_rng(57)
    bases = []
    for n in range(5, 17):
        bases.append(make_cyclic_lut(n, Permutation(rng.permutation(n))).table)
        bases.append(make_max_lut(n).table)
    for k, l in ((2, 4), (3, 4), (3, 5), (4, 3), (2, 7)):
        bases.append(_cyclic_max_product(k, l))
    late = 0
    for base in bases:
        n = len(base)
        monkeypatch.setattr(lut_module, "_ASSOC_BLOCK", rows * n * n)
        for _ in range(12):
            table = np.array(base)
            r, c = rng.integers(n // 2, n, size=2)
            table[r, c] = (table[r, c] + rng.integers(1, n)) % n
            want = naive_first_assoc_failure(table.tolist())
            assert check_associative(LutTable(Alphabet.canonical(n), table)) == want
            late += want is not None and want[0] >= rows
    assert late >= 40


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_check_associative_first_failure_on_block_boundaries(monkeypatch, rows):
    # In max_n with (n-1) (+) (n-1) set to v < n-2, triples with i <= v still
    # hold and the first failure is (v+1, n-1, n-1): v picks the failing row.
    n = 14
    monkeypatch.setattr(lut_module, "_ASSOC_BLOCK", rows * n * n)
    for v in range(n - 2):
        table = np.array(make_max_lut(n).table)
        table[n - 1, n - 1] = v
        want = (v + 1, n - 1, n - 1)
        assert naive_first_assoc_failure(table.tolist()) == want
        assert check_associative(LutTable(Alphabet.canonical(n), table)) == want


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_associative_memory_is_bounded():
    # (N, N, N) index arrays would take 8 GiB at N = 1024 and 1 GiB at 512
    n = 1024
    table = np.array(make_mod_lut(n).table)
    table[0, 700] = 3
    lut = LutTable(Alphabet.canonical(n), table)
    want = naive_first_assoc_failure(table.tolist())
    got, peak = _traced_peak(check_associative, lut)
    assert got == want == (0, 1, 699)
    assert peak < 64 * 2**20
    # an associative table without structure marks: the scan visits every block
    n = 512
    lut = LutTable(Alphabet.canonical(n), make_mod_lut(n).table)
    got, peak = _traced_peak(check_associative, lut)
    assert got is None
    assert peak < 64 * 2**20


def test_structure_marks_agree_with_checks(monkeypatch):
    rng = np.random.default_rng(58)
    luts = []
    for n in range(1, 13):
        luts.append(make_max_lut(n))
        luts += [make_cyclic_lut(n, Permutation(rng.permutation(n))) for _ in range(5)]
    for lut in luts:
        # marked at construction, before any check ran
        assert lut._assoc is True and lut._comm is True
        assert check_associative(lut) is None
        assert check_commutative(lut) is None

    # power on a marked table never runs the scan
    def no_scan(lut):
        raise AssertionError("check_associative called on a marked table")

    monkeypatch.setattr(lut_module, "check_associative", no_scan)
    for lut in (make_mod_lut(6), make_max_lut(6)):
        assert power(lut, Distribution.uniform(6), 3).n == 6


def test_counterexample_reproduces_inequality():
    rng = np.random.default_rng(52)
    found = 0
    while found < 25:
        n = int(rng.integers(2, 9))
        table = rng.integers(0, n, size=(n, n))
        lut = LutTable(Alphabet.canonical(n), table)
        bad = check_associative(lut)
        if bad is None:
            continue
        i, j, k = bad
        assert apply(lut, i, apply(lut, j, k)) != apply(lut, apply(lut, i, j), k)
        found += 1


def test_check_commutative():
    assert check_commutative(make_mod_lut(5)) is None
    assert check_commutative(make_max_lut(5)) is None
    lut = LutTable(Alphabet.canonical(2), [[0, 0], [1, 1]])
    assert check_commutative(lut) == (0, 1)


def test_find_identity():
    assert find_identity(make_mod_lut(7)) == 0
    assert find_identity(make_max_lut(5)) == 0
    # mod-2 under the label swap: identity moves to index 1
    swapped = LutTable(Alphabet.canonical(2), [[1, 0], [0, 1]])
    assert find_identity(swapped) == 1
    constant = LutTable(Alphabet.canonical(2), [[0, 0], [0, 0]])
    assert find_identity(constant) is None


def test_identity_unique_when_present():
    rng = np.random.default_rng(53)
    for n in range(1, 9):
        for _ in range(30):
            table = rng.integers(0, n, size=(n, n))
            lut = LutTable(Alphabet.canonical(n), table)
            idx = np.arange(n)
            found = [
                e
                for e in range(n)
                if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx)
            ]
            assert len(found) <= 1
            expect = found[0] if found else None
            assert find_identity(lut) == expect


def test_find_idempotents():
    assert find_idempotents(make_max_lut(5)) == [0, 1, 2, 3, 4]
    assert find_idempotents(make_mod_lut(5)) == [0]
    assert find_idempotents(make_mod_lut(4)) == [0]


def test_verify_left_subtraction():
    lut = make_mod_lut(6)
    assert verify_left_subtraction(lut, {0, 2, 4}) is True
    assert verify_left_subtraction(lut, {0, 1, 2}) is False
    assert verify_left_subtraction(make_max_lut(4), {2}) is True  # idempotent singleton
    with pytest.raises(ValidityError):
        verify_left_subtraction(lut, set())
    with pytest.raises(ValidityError):
        verify_left_subtraction(lut, {0, 6})


def test_left_subtraction_full_set_is_latin_in_first_argument():
    rng = np.random.default_rng(54)
    for n in range(1, 8):
        tables = [make_mod_lut(n).table, make_max_lut(n).table]
        tables += [rng.integers(0, n, size=(n, n)) for _ in range(20)]
        for table in tables:
            lut = LutTable(Alphabet.canonical(n), table)
            latin_cols = all(
                np.array_equal(np.sort(np.asarray(table)[:, a]), np.arange(n))
                for a in range(n)
            )
            assert verify_left_subtraction(lut, range(n)) == latin_cols


def test_degenerate_doa_necessary():
    lmax = make_max_lut(4)
    p = Distribution([0.1, 0.2, 0.3, 0.4])
    assert degenerate_doa_necessary(lmax, 3, p) is True  # top absorbs everything
    lut2 = make_mod_lut(2)
    assert degenerate_doa_necessary(lut2, 0, Distribution.point_mass(2, 0)) is True
    assert degenerate_doa_necessary(lut2, 0, Distribution([0.5, 0.5])) is False
    with pytest.raises(ValidityError):
        degenerate_doa_necessary(lut2, 1, Distribution([0.5, 0.5]))  # 1+1=0, not idempotent


def test_cyclic_luts_associative_for_random_permutations():
    rng = np.random.default_rng(55)
    for n in range(1, 17):
        for _ in range(5):
            lut = make_cyclic_lut(n, Permutation(rng.permutation(n)))
            assert check_associative(lut) is None


def test_json_round_trip_and_rejections():
    lut = make_cyclic_lut(3, Permutation([2, 0, 1]))
    doc = lut.to_json()
    back = LutTable.from_json(doc)
    assert np.array_equal(back.table, lut.table)
    assert np.array_equal(back.alphabet.values, lut.alphabet.values)

    with pytest.raises(ValidityError):
        LutTable.from_json({"n": 2, "alphabet": [0, 1], "table": [[0, 1]]})
    with pytest.raises(ValidityError):
        LutTable.from_json({"n": 2, "alphabet": [0, 0], "table": [[0, 1], [1, 0]]})
    with pytest.raises(ValidityError):
        LutTable.from_json({"n": 2, "alphabet": [0, 1], "table": [[0, 2], [1, 0]]})
    with pytest.raises(ValidityError):
        LutTable.from_json({"n": 2, "alphabet": [0, 1]})
    with pytest.raises(ValidityError):
        LutTable.from_json({"n": 2, "alphabet": [0, 1], "table": [[0, 1.5], [1, 0]]})
    assert LutTable.from_json({"n": 2.0, "alphabet": [0, 1], "table": [[0, 1.0], [1, 0]]}).n == 2
    for doc in (
        {"n": "x", "alphabet": [0, 1], "table": [[0, 1], [1, 0]]},
        {"n": 2, "alphabet": ["a", "b"], "table": [[0, 1], [1, 0]]},
        {"n": 2, "alphabet": 7, "table": [[0, 1], [1, 0]]},
        {"n": 2, "alphabet": [0, 1], "table": [[0, 1], [1]]},
        {"n": 2, "alphabet": [0, 1], "table": [[0, "1"], [1, 0]]},
        {"n": 2, "alphabet": [0, 1], "table": [[0, 1e300], [1, 0]]},
        {"n": 2, "alphabet": [0, 1], "table": [[0, float("nan")], [1, 0]]},
    ):
        with pytest.raises(ValidityError):
            LutTable.from_json(doc)
