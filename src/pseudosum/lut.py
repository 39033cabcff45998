"""Finite alphabets, pseudo-summation lookup tables, and algebraic checks.

A lookup table stores the binary operation x_i (+) x_j as an N x N matrix of
alphabet indices.  Everything downstream (convolution powers, stable-law
classification) only needs the index matrix; the alphabet is a relabeling
layer kept alongside for presentation.  The ``json_*`` helpers here check
the numbers of every JSON document the package reads.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidityError

_ASSOC_BLOCK = 1 << 20  # triples compared per block by check_associative


def json_numbers(value, what: str) -> np.ndarray:
    """A JSON number or nested list of numbers as an array.  Strings,
    booleans, nulls, objects and ragged lists raise ValidityError."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ValidityError(f"{what} is not a numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidityError(f"{what} must hold numbers only")
    return arr


def json_integers(value, what: str) -> np.ndarray:
    """As json_numbers, cast to intp; a float entry must be integral (2.0,
    not 2.5) and within the int64 range."""
    arr = json_numbers(value, what)
    if arr.dtype.kind == "f" and not ((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**62)).all():
        raise ValidityError(f"{what} entries must be integers")
    return arr.astype(np.intp)


def json_size(value) -> int:
    """The size field ``n`` of a JSON document."""
    arr = json_integers(value, "n")
    if arr.ndim != 0:
        raise ValidityError("n must be a single integer")
    return int(arr)


class Alphabet:
    """Ordered list of N pairwise-distinct real values, indexed 0..N-1."""

    def __init__(self, values):
        arr = np.array(values, dtype=float)  # a copy: the caller's array stays writable
        if arr.ndim != 1 or arr.size < 1:
            raise ValidityError("alphabet must be a non-empty 1-d sequence of reals")
        if np.unique(arr).size != arr.size:
            raise ValidityError("alphabet values must be pairwise distinct")
        arr.setflags(write=False)
        self.values = arr

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def canonical(cls, n: int) -> "Alphabet":
        """The alphabet 0, 1, ..., n-1."""
        return cls(np.arange(n, dtype=float))

    def __repr__(self):
        return f"Alphabet({self.values.tolist()})"


class LutTable:
    """An N x N operation table over alphabet indices.

    ``table[i, j]`` is the index of x_i (+) x_j.  Instances are immutable;
    all operations on them are pure functions.
    """

    def __init__(self, alphabet: Alphabet, table):
        tab = np.array(table, dtype=np.intp)  # a copy: the caller's array stays writable
        n = alphabet.n
        if tab.shape != (n, n):
            raise ValidityError(f"table must be {n}x{n}, got shape {tab.shape}")
        if tab.min() < 0 or tab.max() >= n:
            raise ValidityError("table entries must be alphabet indices in [0, n)")
        tab.setflags(write=False)
        self.alphabet = alphabet
        self.table = tab
        # memoized by is_associative / is_commutative; set up front by
        # make_cyclic_lut and make_max_lut, whose tables are so by construction
        self._assoc: bool | None = None
        self._comm: bool | None = None

    @property
    def n(self) -> int:
        return self.alphabet.n

    @classmethod
    def from_json(cls, doc: dict) -> "LutTable":
        try:
            n = json_size(doc["n"])
            alphabet = json_numbers(doc["alphabet"], "alphabet")
            table = doc["table"]
        except (KeyError, TypeError) as exc:
            raise ValidityError(f"lut document missing field: {exc}") from exc
        if alphabet.ndim == 1 and alphabet.size != n:
            raise ValidityError(f"alphabet length {alphabet.size} does not match n={n}")
        tab = json_integers(table, "table")
        return cls(Alphabet(alphabet), tab)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alphabet": self.alphabet.values.tolist(),
            "table": self.table.tolist(),
        }

    def __repr__(self):
        return f"LutTable(n={self.n})"


def apply(lut: LutTable, i: int, j: int) -> int:
    """The operation table entry for (i, j): index of x_i (+) x_j."""
    n = lut.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValidityError(f"indices ({i}, {j}) out of range for n={n}")
    return int(lut.table[i, j])


def check_associative(lut: LutTable) -> tuple[int, int, int] | None:
    """None when A(i, A(j,k)) == A(A(i,j), k) holds for all triples, else the
    lexicographically smallest failing (i, j, k).

    Scans blocks of rows i in order and returns at the first block holding a
    failure, so working memory is O(block + N^2), not O(N^3).
    """
    n = lut.n
    t = lut.table.astype(np.min_scalar_type(n - 1))
    rows = max(1, _ASSOC_BLOCK // (n * n))
    for lo in range(0, n, rows):
        blk = t[lo : lo + rows]
        # bad[i, j, k]: t[lo+i, t[j, k]] != t[t[lo+i, j], k].  np.take, not
        # blk[:, t]: with numpy 2.4 on a Xeon the latter ran 2-4x slower at
        # 2-8 rows per block, np.take at an even pace for every height.
        bad = np.take(blk, t, axis=1) != t[blk]
        first = bad.argmax()  # row-major = lexicographic order
        if bad.flat[first]:
            i, j, k = np.unravel_index(first, bad.shape)
            return lo + int(i), int(j), int(k)
    return None


def is_associative(lut: LutTable) -> bool:
    if lut._assoc is None:
        lut._assoc = check_associative(lut) is None
    return lut._assoc


def is_commutative(lut: LutTable) -> bool:
    if lut._comm is None:
        lut._comm = bool(np.array_equal(lut.table, lut.table.T))
    return lut._comm


def check_commutative(lut: LutTable) -> tuple[int, int] | None:
    """None when the table is symmetric, else the lexicographically smallest
    (i, j) with A(i,j) != A(j,i)."""
    t = lut.table
    bad = np.argwhere(t != t.T)
    if bad.size == 0:
        return None
    i, j = bad[0]
    return int(i), int(j)


def find_identity(lut: LutTable) -> int | None:
    """The unique two-sided identity index, or None.

    Two-sided identities are unique when they exist, so scanning in index
    order is canonical.
    """
    t = lut.table
    idx = np.arange(lut.n)
    for e in range(lut.n):
        if np.array_equal(t[e], idx) and np.array_equal(t[:, e], idx):
            return e
    return None


def find_idempotents(lut: LutTable) -> list[int]:
    """All indices x with x (+) x = x, ascending."""
    diag = np.diagonal(lut.table)
    return [int(x) for x in np.flatnonzero(diag == np.arange(lut.n))]


def verify_left_subtraction(lut: LutTable, subset) -> bool:
    """True when, for every a, b in the subset, x (+) a = b has exactly one
    solution x inside the subset."""
    J = sorted(set(int(x) for x in subset))
    if not J:
        raise ValidityError("subset must be non-empty")
    if J[0] < 0 or J[-1] >= lut.n:
        raise ValidityError("subset contains out-of-range indices")
    J_arr = np.asarray(J, dtype=np.intp)
    # x |-> x (+) a must permute J for each a in J
    for a in J:
        if not np.array_equal(np.sort(lut.table[J_arr, a]), J_arr):
            return False
    return True


def degenerate_doa_necessary(lut: LutTable, x: int, p, tol: float = 1e-12) -> bool:
    """Necessary condition for p to be attracted to the point mass at x:
    all mass must sit on { y : x (+) y = x }.

    Requires x (+) x = x; a False return certifies p is not attracted.
    """
    if apply(lut, x, x) != x:
        raise ValidityError(f"index {x} is not idempotent (x (+) x != x)")
    if p.n != lut.n:
        raise ValidityError(f"distribution size {p.n} does not match table size {lut.n}")
    mass = p.p[lut.table[x] == x].sum()
    return bool(mass >= 1.0 - tol)
