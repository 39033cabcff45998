import itertools
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import pseudosum as ps
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

from oracles import associative_tables, cyclic_max_product, naive_first_assoc_failure, s3_table


@pytest.mark.parametrize(
    "build, arr, attr",
    [
        (Alphabet, np.array([0.0, 1.0, 2.0]), "values"),
        (lambda a: LutTable(Alphabet.canonical(2), a), np.array([[0, 1], [1, 0]], dtype=np.intp), "table"),
        (Permutation, np.array([1, 0, 2], dtype=np.intp), "s"),
        (Spectrum, np.array([1.0, 0.5, 0.5], dtype=complex), "f"),
        # a list is read into a new array; a memoryview's array is the caller's buffer
        (lambda a: LutTable(Alphabet.canonical(2), a), [[0, 1], [1, 0]], "table"),
        (lambda a: LutTable(Alphabet.canonical(2), memoryview(a)), np.array([[0, 1], [1, 0]], dtype=np.intp), "table"),
        (Permutation, [1, 0, 2], "s"),
        (lambda a: Permutation(memoryview(a)), np.array([1, 0, 2], dtype=np.intp), "s"),
    ],
    ids=[
        "Alphabet", "LutTable", "Permutation", "Spectrum",
        "LutTable-list", "LutTable-memoryview", "Permutation-list", "Permutation-memoryview",
    ],
)
def test_constructors_copy_the_callers_array(build, arr, attr):
    obj = build(arr)
    before = getattr(obj, attr).copy()
    arr[0] = arr[1]  # raises if the constructor froze the caller's array
    assert np.array_equal(getattr(obj, attr), before)


def test_as_array_integer_bound():
    # |x| < 2^62, compared as floats; np.abs of the int64 minimum overflowed
    # to itself, so -2^63 once passed
    for values in ([-(2**63), 1], [2**62, 0], [0, -(2**62)], [2.0**62], [-(2.0**62)], [2**63], [2**62 - 1], [2.5, 1]):
        with pytest.raises(ValidityError, match="x entries must be integers"):
            lut_module.as_array(values, "x", np.intp)
        with pytest.raises(ValidityError, match="x entries must be integers"):
            lut_module.as_array(np.array(values), "x", np.intp)
    top = 2**62 - 2**10  # the largest float below 2^62 is 2^62 - 2^9
    for values in ([2.0, 3], [top, -top], [float(top), -float(top)], [0]):
        for arg in (values, np.array(values)):
            got = lut_module.as_array(arg, "x", np.intp)
            assert got.dtype == np.intp and got.tolist() == [int(v) for v in values]


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValidityError):
        Alphabet([0.0, 1.0, 1.0])
    with pytest.raises(ValidityError):
        Alphabet([])


def test_alphabet_rejects_non_finite_values():
    # LutTable.to_json would emit NaN or Infinity, which is not JSON
    for values in ([float("nan"), 1.0], [float("inf"), 0.0], [0.0, float("-inf")]):
        with pytest.raises(ValidityError, match="finite"):
            Alphabet(values)
    assert Alphabet([-0.5, 2.0, 1e300]).n == 3


def test_lut_rejects_bad_shapes_and_entries():
    # 1.7 used to be truncated to 1, and NaN to raise a raw ValueError
    for table in ([[0, 1]], [[0, 1], [1, 2]], [[0, -1], [1, 0]], [[0, 1.7], [1, 0]], [[0, np.nan], [1, 0]]):
        with pytest.raises(ValidityError):
            LutTable(Alphabet.canonical(2), table)


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


def test_check_associative_matches_naive_on_all_order_3_tables():
    for cells in itertools.product(range(3), repeat=9):
        table = [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]
        assert check_associative(LutTable(Alphabet.canonical(3), table)) == naive_first_assoc_failure(table)


def test_associative_order_4_tables_are_exactly_the_enumerated_ones():
    # 3492 associative tables of order 4 (OEIS A023814; Forsythe 1955); among
    # them the 4! relabelings of max_4 and the 4!/2 of Z_4
    tables = associative_tables(4)
    assert len(tables) == 3492
    kinds = {lut_module.MAX: 0, lut_module.CYCLIC: 0, lut_module.RAW: 0}
    for table in tables:
        lut = LutTable(Alphabet.canonical(4), table)
        assert check_associative(lut) is None
        kinds[lut_module.structure(lut).kind] += 1
    assert kinds == {lut_module.MAX: 24, lut_module.CYCLIC: 12, lut_module.RAW: 3456}


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
def test_check_associative_blocks_match_naive_on_perturbed_tables(rows):
    # Associative tables with one cell changed in the lower-right quadrant
    # can first fail in a late row (the max and product tables do), so the
    # scan must go past row 0; random tables almost always fail at i = 0.
    # The scan has no row blocks any more: rows is the row at or past which
    # at least 40 first failures must lie.
    rng = np.random.default_rng(57)
    bases = []
    for n in range(5, 17):
        bases.append(make_cyclic_lut(n, Permutation(rng.permutation(n))).table)
        bases.append(make_max_lut(n).table)
    for k, l in ((2, 4), (3, 4), (3, 5), (4, 3), (2, 7)):
        bases.append(cyclic_max_product(k, l))
    late = 0
    for base in bases:
        n = len(base)
        for _ in range(12):
            table = np.array(base)
            r, c = rng.integers(n // 2, n, size=2)
            table[r, c] = (table[r, c] + rng.integers(1, n)) % n
            want = naive_first_assoc_failure(table.tolist())
            assert check_associative(LutTable(Alphabet.canonical(n), table)) == want
            late += want is not None and want[0] >= rows
    assert late >= 40


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_check_associative_first_failure_on_block_boundaries(rows):
    # In max_n with (n-1) (+) (n-1) set to v < n-2, triples with i <= v still
    # hold and the first failure is (v+1, n-1, n-1): v picks the failing row.
    # The scan has no row blocks any more: rows sets the order, n = 14..26.
    n = 10 + 4 * rows
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
    # an associative table that is neither cyclic nor max, Z_2 x Z_256: the
    # scan visits every block
    a, b = np.divmod(np.arange(512), 256)
    lut = LutTable(Alphabet.canonical(512), ((a[:, None] + a) % 2) * 256 + (b[:, None] + b) % 256)
    assert lut_module.structure(lut).kind == lut_module.RAW
    got, peak = _traced_peak(check_associative, lut)
    assert got is None
    assert peak < 64 * 2**20


def test_check_associative_memory_at_n256():
    # a relabeled Z_16 x max_16 is associative but neither cyclic nor max, so
    # every row is scanned; indices re-cast to intp took 512 KiB a row
    s = np.random.default_rng(19).permutation(256)
    lut = LutTable(Alphabet.canonical(256), cyclic_max_product(16, 16, s))
    got, peak = _traced_peak(check_associative, lut)
    assert lut_module.structure(lut).kind == lut_module.RAW
    assert got is None
    assert peak < 2 * 2**20


def test_check_associative_memory_at_n128():
    # np.take copies a read-only index array such as lut.table, so the scan
    # must index the table in place: no 8N^2-byte intp copy of it
    n = 128
    s = np.random.default_rng(23).permutation(n)
    lut = LutTable(Alphabet.canonical(n), cyclic_max_product(8, 16, s))
    assert not lut.table.flags.writeable
    got, peak = _traced_peak(check_associative, lut)
    assert lut_module.structure(lut).kind == lut_module.RAW
    assert got is None
    assert peak < 8 * n * n


def test_structure_agrees_with_checks(monkeypatch):
    rng = np.random.default_rng(58)
    luts = []
    for n in range(1, 13):
        luts.append(make_max_lut(n))
        luts += [make_cyclic_lut(n, Permutation(rng.permutation(n))) for _ in range(5)]
    for lut in luts:
        st = lut_module.structure(lut)
        if st.kind == lut_module.MAX:
            assert lut.n == 1 or np.array_equal(lut.table, make_max_lut(lut.n).table)
            assert np.array_equal(st.labels.s, np.arange(lut.n))
        else:
            assert st.kind == lut_module.CYCLIC
            assert np.array_equal(make_cyclic_lut(lut.n, st.labels).table, lut.table)
        assert st.commutative
        assert lut_module._scan_associative(lut.table) is None
        assert check_commutative(lut) is None

    # power on a recognized table never runs the scan, however it was built
    def no_scan(table):
        raise AssertionError("associativity scan run on a recognized table")

    monkeypatch.setattr(lut_module, "_scan_associative", no_scan)
    for lut in (make_mod_lut(6), make_max_lut(6)):
        for table in (lut, LutTable(Alphabet.canonical(6), lut.table)):
            assert check_associative(table) is None
            assert power(table, Distribution.uniform(6), 3).n == 6


def _relabeled_models(n):
    """{table bytes: kind} for every relabeling of max_N and of Z_N, over
    all N! permutations; MAX wins where both give one table, as at N = 1."""
    idx = np.arange(n)
    found = {}
    for kind, op in ((lut_module.CYCLIC, (idx[:, None] + idx) % n), (lut_module.MAX, np.maximum.outer(idx, idx))):
        for perm in itertools.permutations(range(n)):
            lab = np.array(perm)  # lab[x]: the element x stands for in the model table
            found[np.argsort(lab)[op[lab[:, None], lab]].tobytes()] = kind
    return found


def test_structure_matches_brute_force_over_relabelings():
    rng = np.random.default_rng(59)

    def relabel(table):
        sigma = rng.permutation(len(table))
        out = np.empty_like(table)
        out[np.ix_(sigma, sigma)] = sigma[table]
        return out

    klein = np.bitwise_xor.outer(np.arange(4), np.arange(4))
    a, b = np.arange(6) % 2, np.arange(6) // 2  # x = 2b + a in Z_2 x Z_3, which is cyclic
    z2z3 = (b[:, None] + b) % 3 * 2 + (a[:, None] + a) % 2
    assert lut_module.structure(LutTable(Alphabet.canonical(6), z2z3)).kind == lut_module.CYCLIC
    seeds = [klein, s3_table(), z2z3, cyclic_max_product(2, 2), cyclic_max_product(2, 3),
             cyclic_max_product(3, 2)]
    tables, perturbed = [], []
    for n in range(1, 7):
        idx = np.arange(n)
        for base in ((idx[:, None] + idx) % n, np.maximum.outer(idx, idx)):
            tables += [relabel(base) for _ in range(4)]
            one = relabel(base)
            for r, c, v in itertools.product(range(n), range(n), range(n)):
                if v != one[r, c]:
                    t = one.copy()
                    t[r, c] = v
                    perturbed.append(t)
            for _ in range(4):  # two entries of a row swapped: often still a latin square
                t = relabel(base)
                r, c1, c2 = rng.integers(0, n, size=3)
                t[r, [c1, c2]] = t[r, [c2, c1]]
                tables.append(t)
        tables += [rng.integers(0, n, size=(n, n)) for _ in range(20)]
    tables += [relabel(t) for t in seeds for _ in range(3)]
    models = {n: _relabeled_models(n) for n in range(1, 7)}
    recognized = 0
    for k, table in enumerate(tables + perturbed):
        lut = LutTable(Alphabet.canonical(len(table)), table)
        st = lut_module.structure(lut)
        assert st.kind == models[len(table)].get(lut.table.tobytes(), lut_module.RAW)
        # a changed cell is always rejected, except at N = 2, where Z_2 with
        # one cell changed is max_2
        assert k < len(tables) or len(table) <= 2 or st.kind == lut_module.RAW
        if st.kind != lut_module.RAW:
            recognized += 1
            assert naive_first_assoc_failure(table.tolist()) is None
            assert np.array_equal(table, table.T) and st.commutative
            lab = st.labels.s
            op = np.maximum if st.kind == lut_module.MAX else lambda a, b: (a + b) % len(table)
            assert np.array_equal(np.argsort(lab)[op(lab[:, None], lab)], table)
        else:
            assert st.commutative == (naive_first_comm_failure(table.tolist()) is None)
    assert recognized >= 90


def test_structure_matches_brute_force_on_every_small_table():
    # every magma of order <= 3 and every associative table of order 4: the
    # kind is CYCLIC or MAX exactly when one of the N! relabelings of Z_N or
    # max_N is the table, and the labels found rebuild it
    tables = [np.array(cells).reshape(n, n) for n in (1, 2, 3) for cells in itertools.product(range(n), repeat=n * n)]
    tables += [np.array(t) for t in associative_tables(4)]
    models = {n: _relabeled_models(n) for n in range(1, 5)}
    alphabets = {n: Alphabet.canonical(n) for n in range(1, 5)}
    kinds = {lut_module.MAX: 0, lut_module.CYCLIC: 0, lut_module.RAW: 0}
    for table in tables:
        n = len(table)
        lut = LutTable(alphabets[n], table)
        st = lut_module.structure(lut)
        kinds[st.kind] += 1
        assert st.kind == models[n].get(lut.table.tobytes(), lut_module.RAW)
        if st.kind == lut_module.CYCLIC:
            assert np.array_equal(make_cyclic_lut(n, st.labels).table, table)
        elif st.kind == lut_module.MAX:
            s = st.labels.s
            assert np.array_equal(st.labels.inv[np.maximum.outer(s, s)], table)
        else:
            assert st.labels is None
    # orders 1-4: 1 + 2 + 6 + 24 relabelings of max_N, 2 + 3 + 12 of Z_N
    # (Z_1 is max_1)
    assert kinds == {lut_module.MAX: 33, lut_module.CYCLIC: 17, lut_module.RAW: 1 + 16 + 19683 + 3492 - 50}


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


def naive_first_comm_failure(table):
    """Literal double loop, the independent oracle for check_commutative."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            if table[i][j] != table[j][i]:
                return (i, j)
    return None


def test_check_commutative_matches_naive():
    # random tables, and symmetric ones with one cell changed, which fail
    # first at that cell or its mirror
    rng = np.random.default_rng(53)
    tables = []
    for n in range(1, 13):
        for _ in range(10):
            tables.append(rng.integers(0, n, size=(n, n)))
            upper = np.triu(rng.integers(0, n, size=(n, n)))
            sym = upper + np.triu(upper, 1).T
            tables.append(sym)
            r, c = rng.integers(0, n, size=2)
            sym = sym.copy()
            sym[r, c] = (sym[r, c] + rng.integers(1, max(n, 2))) % n
            tables.append(sym)
    failures = 0
    for table in tables:
        want = naive_first_comm_failure(table.tolist())
        n = len(table)
        assert check_commutative(LutTable(Alphabet.canonical(n), table)) == want
        assert lut_module.is_commutative(LutTable(Alphabet.canonical(n), table)) == (want is None)
        failures += want is not None
    assert 0 < failures < len(tables)


def test_structure_memory_is_bounded():
    # an intp index grid alone is 8 MiB at N = 1024; a group table must be
    # recognized in O(N) memory, with no N^2 array at all
    n = 1024
    i = np.arange(n)
    got, peak = _traced_peak(lut_module.structure, LutTable(Alphabet.canonical(n), np.maximum.outer(i, i)))
    assert got.kind == lut_module.MAX
    assert peak < 4 * 2**20
    got, peak = _traced_peak(lut_module.structure, LutTable(Alphabet.canonical(n), make_mod_lut(n).table))
    assert got.kind == lut_module.CYCLIC
    assert peak < 64 * 2**10
    # a max table changed above its last row, and the one-element tables
    table = np.maximum.outer(i[:8], i[:8])
    table[2, 5] = 4
    assert lut_module.structure(LutTable(Alphabet.canonical(8), table)).kind == lut_module.RAW
    assert lut_module.structure(make_cyclic_lut(1)).kind == lut_module.MAX
    assert lut_module.structure(make_max_lut(1)).kind == lut_module.MAX


def test_find_identity():
    assert find_identity(make_mod_lut(7)) == 0
    assert find_identity(make_max_lut(5)) == 0
    # mod-2 under the label swap: identity moves to index 1
    swapped = LutTable(Alphabet.canonical(2), [[1, 0], [0, 1]])
    assert find_identity(swapped) == 1
    constant = LutTable(Alphabet.canonical(2), [[0, 0], [0, 0]])
    assert find_identity(constant) is None
    # every element idempotent, and 1 a left identity only
    left_only = LutTable(Alphabet.canonical(3), [[0, 2, 0], [0, 1, 2], [0, 2, 2]])
    assert find_identity(left_only) is None


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


def test_reprs_show_the_values():
    # a repr names the class and its values; but for LutTable's, it reads back
    names = {"Alphabet": Alphabet, "Distribution": Distribution, "Permutation": Permutation, "Spectrum": Spectrum}
    for value in (Alphabet([0.5, -2.0, 3.0]), Distribution([0.25, 0.75]), Permutation([2, 0, 1]),
                  Spectrum([1.0, 0.25 + 0.5j, 0.25 - 0.5j])):
        text = repr(value)
        back = eval(text, names)
        assert type(back) is type(value) and repr(back) == text, text
    assert repr(Alphabet([0.5, -2.0])) == "Alphabet([0.5, -2.0])"
    assert repr(make_mod_lut(3)) == "LutTable(n=3)"


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


P4, P6 = Distribution([0.1, 0.2, 0.3, 0.4]), Distribution(np.arange(1, 7) / 21)
CFG = ps.SimConfig(seed=3, trials=500, m=3)

# (entry point, a valid integer argument, an out-of-range one); each call
# puts its integer argument v where a count, an index, an index-set entry or
# a size that must agree with another goes
INTEGER_ARGUMENTS = {
    "make_max_lut": (lambda v: make_max_lut(v), 3, 0),
    "make_cyclic_lut": (lambda v: make_cyclic_lut(v), 3, 0),
    "Alphabet.canonical": (lambda v: Alphabet.canonical(v), 3, 0),
    "Permutation.identity": (lambda v: Permutation.identity(v), 3, 0),
    "Distribution.point_mass n": (lambda v: Distribution.point_mass(v, 1), 3, 0),
    "Distribution.point_mass k": (lambda v: Distribution.point_mass(4, v), 2, 4),
    "Distribution.uniform n": (lambda v: Distribution.uniform(v), 3, 0),
    "Distribution.uniform support": (lambda v: Distribution.uniform(6, [0, v, 4]), 2, 6),
    "power": (lambda v: power(make_mod_lut(4), P4, v), 5, -1),
    "limit": (lambda v: ps.limit(make_max_lut(4), P4, max_doublings=v), 3, 0),
    "max_nth_root": (lambda v: ps.max_nth_root(P4, v), 3, 0),
    "nth_root_oracle": (lambda v: ps.nth_root_oracle(P4, v), 2, 0),
    "max_stable_set": (lambda v: ps.max_stable_set(v), 3, 0),
    "enumerate_stable": (lambda v: ps.enumerate_stable(v), 6, 0),
    "max_doa": (lambda v: ps.max_doa(Distribution([0.5, 0.5, 0.0, 0.0]), v), 1, 4),
    "apply i": (lambda v: apply(make_mod_lut(4), v, 3), 2, 4),
    "apply j": (lambda v: apply(make_mod_lut(4), 3, v), 2, -1),
    "degenerate_doa_necessary": (lambda v: degenerate_doa_necessary(make_max_lut(4), v, P4), 3, 4),
    "verify_left_subtraction": (lambda v: verify_left_subtraction(make_mod_lut(6), [0, v, 4]), 2, 6),
    "StableLaw m": (lambda v: ps.StableLaw(v, 3), 2, 0),
    "StableLaw r": (lambda v: ps.StableLaw(2, v), 3, 0),
    "IdDecomposition a": (lambda v: ps.IdDecomposition(a=v, m=3, lam=0.5, jump=P6), 2, 6),
    "IdDecomposition m": (lambda v: ps.IdDecomposition(a=1, m=v, lam=0.5, jump=P6), 3, 0),
    "SimConfig seed": (lambda v: ps.SimConfig(seed=v, trials=10, m=2), 3, None),
    "SimConfig trials": (lambda v: ps.SimConfig(seed=1, trials=v, m=2), 3, 0),
    "SimConfig m": (lambda v: ps.SimConfig(seed=1, trials=10, m=v), 3, 0),
    "empirical_fold workers": (lambda v: ps.empirical_fold(make_mod_lut(4), P4, CFG, workers=v), 2, 0),
    "empirical_fold sizes": (lambda v: ps.empirical_fold(make_mod_lut(v), P4, CFG), 4, 3),
    "max_convolve": (lambda v: ps.max_convolve(P4, Distribution.uniform(v)), 4, 3),
    "multiply_spectra": (lambda v: ps.multiply_spectra(ps.spectrum(P4), ps.spectrum(Distribution.uniform(v))), 4, 3),
    "in_doa": (lambda v: ps.in_doa(P6, ps.StableLaw(2, v)), 3, 2),
    "relabel": (lambda v: ps.relabel(P4, Permutation.identity(v)), 4, 3),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_take_any_integer_and_nothing_else(name):
    call, good, out_of_range = INTEGER_ARGUMENTS[name]
    # the pickle holds the types too: a numpy integer must not leak into a result
    got = {pickle.dumps(call(v)) for v in (good, np.int64(good), np.uint64(good))}
    assert len(got) == 1
    # a 5000-digit integer is past Python's int-to-str digit limit: its message must not print it
    huge = (out_of_range, 10**5000 if out_of_range > good else -(10**5000)) if out_of_range is not None else ()
    for bad in (2.5, np.float64(2.0), True, np.True_, "2") + huge:
        with pytest.raises(ValidityError):
            call(bad)


def test_messages_show_integers_past_the_digit_limit_by_size():
    # repr refuses an int of more than 4300 digits; a message shows its size
    huge = 10**5000
    assert lut_module.shown(3) == "3" and lut_module.shown("2") == "'2'"
    assert lut_module.shown(huge) == "<16610-bit int>" and lut_module.shown(-huge) == "-<16610-bit int>"
    assert lut_module.shown(np.array([huge], dtype=object)) == "<ndarray too long to print>"
    # any other text is capped at 40 characters
    assert lut_module.shown("x" * 100) == "'" + "x" * 39 + "... (102 characters)"
    assert lut_module.shown(10**3999) == "1" + "0" * 39 + "... (4000 characters)"
    for call, message in (
        (lambda: ps.IdDecomposition(a=1, m=huge, lam=0.5, jump=P6), "m=<16610-bit int> must divide n=6"),
        (lambda: ps.nth_root_oracle(P4, huge), "root search too large: <16610-bit int>^2"),
        (lambda: Distribution.uniform(3, support=np.array(huge, dtype=object)), "got <ndarray too long to print>"),
        (lambda: ps.sample_index(P4, np.array([huge], dtype=object)), "got <ndarray too long to print>"),
        (lambda: ps.sample_index(P4, 10**300), "got 1" + "0" * 39 + "... (301 characters)"),
    ):
        with pytest.raises(ValidityError, match=re.escape(message)):
            call()


# (entry point, a valid array argument as a nested list); each call puts its
# array argument v where a vector, a table or a JSON number goes
ARRAY_ARGUMENTS = {
    "Alphabet": (Alphabet, [0.0, 1.5, 3.0]),
    "Distribution": (Distribution, [0.25, 0.75]),
    "Spectrum": (Spectrum, [1.0, 0.5, 0.5]),
    "Cdf": (ps.Cdf, [0.25, 1.0]),
    "Permutation": (Permutation, [1, 0, 2]),
    "LutTable": (lambda v: LutTable(Alphabet.canonical(2), v), [[0, 1], [1, 0]]),
    "json_size": (lut_module.json_size, 2),
    "Distribution.from_json n": (lambda v: Distribution.from_json({"n": v, "p": [0.25, 0.75]}), 2),
    "Distribution.from_json p": (lambda v: Distribution.from_json({"n": 2, "p": v}), [0.25, 0.75]),
    "Permutation.from_json": (lambda v: Permutation.from_json({"n": 3, "s": v}), [1, 0, 2]),
    "LutTable.from_json alphabet": (lambda v: LutTable.from_json({"n": 2, "alphabet": v, "table": [[0, 1], [1, 0]]}),
                                    [0, 1]),
    "LutTable.from_json table": (lambda v: LutTable.from_json({"n": 2, "alphabet": [0, 1], "table": v}),
                                 [[0, 1], [1, 0]]),
}


def _with_first(v, x):
    """v, a number or nested list, with its first number replaced by x."""
    return [_with_first(v[0], x)] + v[1:] if isinstance(v, list) else x


@pytest.mark.parametrize("name", ARRAY_ARGUMENTS)
def test_array_arguments_take_finite_numbers_only(name):
    call, good = ARRAY_ARGUMENTS[name]
    assert pickle.dumps(call(good)) == pickle.dumps(call(np.array(good, dtype=float)))
    bad = [_with_first(good, x) for x in (np.nan, np.inf, -np.inf, "1")]
    bad += [np.ones(np.shape(good), dtype=bool), [good, [good]], [good]]  # bools, ragged, one dimension too many
    for v in bad:
        with pytest.raises(ValidityError):
            call(v)


# (entry point, a valid real argument); each call puts its real argument v
# where a tolerance or an intensity goes
REAL_ARGUMENTS = {
    "limit": (lambda v: ps.limit(make_max_lut(4), P4, tol=v), 1e-12),
    "is_stable": (lambda v: ps.is_stable(make_mod_lut(4), P4, v), 1e-12),
    "decompose_id": (lambda v: ps.decompose_id(ps.construct_id(ps.IdDecomposition(1, 3, 0.5, P6)), tol=v), 1e-9),
    "is_infinitely_divisible": (lambda v: ps.is_infinitely_divisible(P6, tol=v), 1e-9),
    "IdDecomposition lam": (lambda v: ps.IdDecomposition(a=1, m=3, lam=v, jump=P6), 0.5),
    "sample_index": (lambda v: ps.sample_index(P4, v), 0.5),
}


@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_real_arguments_take_finite_reals_only(name):
    call, good = REAL_ARGUMENTS[name]
    # the pickle holds the types too: a numpy float must not leak into a result
    assert pickle.dumps(call(good)) == pickle.dumps(call(np.float64(good)))
    for bad in (np.nan, np.inf, -1, True, "0.5", 10**5000, -(10**5000)):
        with pytest.raises(ValidityError):
            call(bad)
