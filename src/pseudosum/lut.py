"""Finite alphabets, pseudo-summation lookup tables, and algebraic checks.

A lookup table stores the binary operation x_i (+) x_j as an N x N matrix of
alphabet indices.  Everything downstream (convolution powers, stable-law
classification) only needs the index matrix; the alphabet is a relabeling
layer kept alongside for presentation.  The helpers here read every
argument of the package: `json_fields` the fields of every JSON document;
`as_array` every vector or table, from Python or from a JSON document;
`as_real` every tolerance and intensity; `as_int`, `as_index`, `index_set`
and `same_n` every count, index, index set and pair of sizes.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .errors import ValidityError, shown

MASS_EPS = 1e-12  # mass at or below this counts as absent (a point, or a tail)
CYCLIC, MAX, RAW = "cyclic", "max", "raw"  # the kinds of Structure


def as_array(values, what: str, dtype=float, ndim: int = 1, entries: str | None = None) -> np.ndarray:
    """values, numbers nested ndim deep, as a fresh array of dtype.  Strings,
    bools, nulls, objects, ragged nesting, complex values for a real dtype,
    an empty array and a non-finite entry raise ValidityError; so does, for
    an integer dtype, an entry that is not integral or not below 2^62 in
    size, while JSON's 2.0 reads as 2.  The messages call the array what and
    its entries entries (default "{what} entries")."""
    entries = entries or f"{what} entries"
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting, rejected below as an object array
        arr = np.asarray(None)
    if arr.dtype.kind not in ("iufc" if np.dtype(dtype).kind == "c" else "iuf"):
        raise ValidityError(f"{what} must hold numbers only")
    if arr.ndim != ndim or arr.size < 1:
        shape = f"a non-empty {ndim}-d sequence" if ndim else "a single number"
        raise ValidityError(f"{what} must be {shape}")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        raise ValidityError(f"{entries} must be finite")
    if np.dtype(dtype).kind in "iu" and not (
        (arr.dtype.kind in "iu" or (arr == np.trunc(arr)).all())
        and -(2.0**62) < float(arr.min())
        and float(arr.max()) < 2.0**62  # min/max, not np.abs: that overflows at -2^63
    ):
        raise ValidityError(f"{entries} must be integers")
    # np.asarray made arr for this call unless it is the caller's own array
    # or a view of the caller's buffer: only those need a copy
    return arr.astype(dtype, copy=arr is values or not arr.flags.owndata)


def json_size(value) -> int:
    """The size field ``n`` of a JSON document."""
    return int(as_array(value, "n", np.intp, ndim=0))


def json_fields(doc, what: str, *names: str) -> tuple:
    """The JSON document doc's size field ``n`` read by json_size, then its
    fields names, in that order.  A doc that is not an object, or that lacks
    a field, raises ValidityError naming the document what."""
    if not isinstance(doc, Mapping):
        raise ValidityError(f"{what} document must be a JSON object")
    try:
        return (json_size(doc["n"]), *(doc[name] for name in names))
    except KeyError as exc:
        raise ValidityError(f"{what} document missing field: {exc}") from exc


def as_int(value, name: str, low: int | None = None) -> int:
    """value, a Python or numpy integer, as a Python int, checked to be at
    least low when low is given.  A bool, float (even 2.0) or string is a
    caller's mistake and raises ValidityError; a JSON document, which may
    write an integer as 2.0, goes through as_array instead."""
    try:
        if isinstance(value, (bool, np.bool_)):  # operator.index takes bool as an int
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValidityError(f"{name} must be an integer, got {shown(value)}") from None
    if low is not None and value < low:
        raise ValidityError(f"{name} must be >= {low}, got {shown(value)}")
    return value


def as_real(value, name: str, positive: bool = False) -> float:
    """value, a finite Python or numpy real, as a Python float, checked to be
    >= 0, or > 0 when positive.  A bool, string or complex raises
    ValidityError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is not Real
        raise ValidityError(f"{name} must be a real number, got {shown(value)}")
    try:
        x = float(value)
    except OverflowError:  # a Python int beyond the float range
        x = math.inf
    if not ((x > 0 if positive else x >= 0) and x < math.inf):  # NaN fails both
        raise ValidityError(f"{name} must be finite and {'>' if positive else '>='} 0, got {shown(value)}")
    return x


def as_index(value, n: int, name: str) -> int:
    """as_int(value), checked to lie in [0, n)."""
    k = as_int(value, name)
    if not 0 <= k < n:
        raise ValidityError(f"{name} must lie in [0, {n}), got {shown(k)}")
    return k


def index_set(values, n: int, name: str) -> np.ndarray:
    """The distinct indices among values, ascending, as intp: each passes
    as_index, and there is at least one."""
    try:
        idx = sorted({as_index(v, n, f"{name} entry") for v in values})
    except TypeError:  # values is not iterable
        raise ValidityError(f"{name} must be a collection of indices, got {shown(values)}") from None
    if not idx:
        raise ValidityError(f"{name} must not be empty")
    return np.array(idx, dtype=np.intp)


def same_n(what: str, n: int, *sizes: int) -> None:
    """Check that each of sizes equals n; a mismatch m raises
    ValidityError('{what} {m} does not match n={n}')."""
    for m in sizes:
        if m != n:
            raise ValidityError(f"{what} {m} does not match n={n}")


class Alphabet:
    """Ordered list of N pairwise-distinct finite real values, indexed 0..N-1."""

    def __init__(self, values):
        arr = as_array(values, "alphabet", entries="alphabet values")  # a copy: the caller's array stays writable
        # a sorted compare, not np.unique: with numpy 2.4 its first call
        # imports numpy.ma, about 13 ms of a CLI process
        srt = np.sort(arr)
        if (srt[1:] == srt[:-1]).any():
            raise ValidityError("alphabet values must be pairwise distinct")
        arr.setflags(write=False)
        self.values = arr

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def canonical(cls, n: int) -> "Alphabet":
        """The alphabet 0, 1, ..., n-1."""
        return cls(np.arange(as_int(n, "n", 1), dtype=float))

    def __repr__(self):
        return f"Alphabet({self.values.tolist()})"


class LutTable:
    """An N x N operation table over alphabet indices.

    ``table[i, j]`` is the index of x_i (+) x_j.  Instances are immutable;
    all operations on them are pure functions.
    """

    def __init__(self, alphabet: Alphabet, table):
        tab = as_array(table, "table", np.intp, ndim=2)  # a copy: the caller's array stays writable
        n = alphabet.n
        if tab.shape != (n, n):
            raise ValidityError(f"table must be {n}x{n}, got shape {tab.shape}")
        if tab.min() < 0 or tab.max() >= n:
            raise ValidityError("table entries must be alphabet indices in [0, n)")
        tab.setflags(write=False)
        self.alphabet = alphabet
        self.table = tab
        # memoized by structure and is_associative
        self._structure: Structure | None = None
        self._assoc: bool | None = None

    @property
    def n(self) -> int:
        return self.alphabet.n

    @classmethod
    def from_json(cls, doc: dict) -> "LutTable":
        n, alphabet, table = json_fields(doc, "lut", "alphabet", "table")
        alphabet = Alphabet(alphabet)
        same_n("alphabet length", n, alphabet.n)
        return cls(alphabet, table)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "alphabet": self.alphabet.values.tolist(),
            "table": self.table.tolist(),
        }

    def __repr__(self):
        return f"LutTable(n={self.n})"


class Permutation:
    """A bijection s of 0..n-1 together with its inverse."""

    def __init__(self, s):
        arr = as_array(s, "permutation", np.intp)  # a copy: the caller's array stays writable
        if not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValidityError("permutation must be a bijection on [0, n)")
        inv = np.empty_like(arr)
        inv[arr] = np.arange(arr.size)
        arr.setflags(write=False)
        inv.setflags(write=False)
        self.s = arr
        self.inv = inv

    @property
    def n(self) -> int:
        return int(self.s.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(as_int(n, "n", 1)))

    @classmethod
    def from_json(cls, doc: dict) -> "Permutation":
        n, s = json_fields(doc, "permutation", "s")
        perm = cls(s)
        same_n("permutation length", n, perm.n)
        return perm

    def to_json(self) -> dict:
        return {"n": self.n, "s": self.s.tolist()}

    def __repr__(self):
        return f"Permutation({self.s.tolist()})"


def _ident(s: Permutation | None, n: int) -> Permutation:
    if s is None:
        return Permutation.identity(n)
    same_n("permutation size", n, s.n)
    return s


def apply(lut: LutTable, i: int, j: int) -> int:
    """The operation table entry for (i, j): index of x_i (+) x_j."""
    return int(lut.table[as_index(i, lut.n, "i"), as_index(j, lut.n, "j")])


def make_cyclic_lut(n: int, s: Permutation | None = None) -> LutTable:
    """The table x (+) y = s_inv[(s[x] + s[y]) % n] on the canonical alphabet."""
    n = as_int(n, "n", 1)
    s = _ident(s, n)
    grid = (s.s[:, None] + s.s[None, :]) % n
    return LutTable(Alphabet.canonical(n), s.inv[grid])


def make_mod_lut(n: int) -> LutTable:
    """Plain mod-n addition (identity permutation)."""
    return make_cyclic_lut(n)


def make_max_lut(n: int) -> LutTable:
    """The table x (+) y = max(x, y) on the canonical alphabet."""
    n = as_int(n, "n", 1)
    idx = np.arange(n)
    return LutTable(Alphabet.canonical(n), np.maximum.outer(idx, idx))


Structure = NamedTuple("Structure", [("kind", str), ("labels", "Permutation | None"), ("commutative", bool)])


def structure(lut: LutTable) -> Structure:
    """The table's kind, read off its entries once, in O(N^2) time and O(N)
    memory beyond one N^2 boolean.  Both recognized kinds relabel a classical
    operation op through the Permutation labels, s = labels.s: table[x, y]
    is labels.inv[op(s[x], s[y])], and both are associative and commutative.
    MAX: op is max, and s[x] = #{y : x (+) y = x} - 1 is x's rank in the
    chain; every element is idempotent.  CYCLIC: op is addition mod N, as
    make_cyclic_lut(N, labels) builds, and s[x] is x's residue; e, the one
    idempotent, is a two-sided identity, N/2 - 1 gathers step the powers of
    all g at once to the first g with no g^k = e, k <= N/2 (in Z_N a
    generator, which serves), and s[g^k] = k.  RAW: any other table, labels
    None."""
    if lut._structure is not None:
        return lut._structure
    # candidate labels lab, then one check, row by row, that lab relabels the
    # table to op, against inv = argsort(lab) repeated so op's values need no mod
    t, n = lut.table, lut.n
    idx = np.arange(n)
    idem = np.flatnonzero(np.diagonal(t) == idx)
    kind, labels = RAW, None
    if idem.size == n:
        kind, lab, op, copies = MAX, np.count_nonzero(t == idx[:, None], axis=1) - 1, np.maximum, 1
    elif idem.size == 1 and find_identity(lut) is not None:
        e = x = idem[0]
        power, alive = idx, idx != e  # power[g] = g^k; alive[g]: g^j != e for 0 < j <= k
        for _ in range(n // 2 - 1):  # in Z_N a non-generator has order <= N/2
            power = t.ravel()[power * n + idx]
            alive &= power != e
        if alive.any():
            col, lab, power = t[:, alive.argmax()], np.full(n, -1), None  # drop power before the check
            for k in range(n):
                lab[x], x = k, col[x]
            kind, op, copies = CYCLIC, np.add, 2
    if kind != RAW:
        look = np.tile(np.argsort(lab), copies)
        if np.array_equal(lab[look[:n]], idx) and all((row == look[op(v, lab)]).all() for row, v in zip(t, lab)):
            labels = Permutation(lab)
    commutative = labels is not None or check_commutative(lut) is None
    lut._structure = Structure(kind if labels is not None else RAW, labels, commutative)
    return lut._structure


def check_associative(lut: LutTable) -> tuple[int, int, int] | None:
    """None when A(i, A(j,k)) == A(A(i,j), k) holds for all triples, else the
    lexicographically smallest failing (i, j, k).

    Cyclic and max tables (`structure`) pass unscanned; others are scanned
    one row i at a time up to the first failing one, in O(N^2) memory.
    """
    return None if structure(lut).kind != RAW else _scan_associative(lut.table)


def _scan_associative(table: np.ndarray) -> tuple[int, int, int] | None:
    n = table.shape[0]
    t = table.astype(np.min_scalar_type(n - 1))  # the gathered values
    for i in range(n):
        # bad[j, k]: t[i, t[j, k]] != t[t[i, j], k], indexed through the intp
        # table, as narrow indices would be re-cast to an N^2 intp temporary
        bad = t[i][table] != t[t[i]]
        first = bad.argmax()  # row-major = lexicographic order
        if bad.flat[first]:
            return (i, *divmod(int(first), n))
    return None


def is_associative(lut: LutTable) -> bool:
    if lut._assoc is None:
        lut._assoc = check_associative(lut) is None
    return lut._assoc


def is_commutative(lut: LutTable) -> bool:
    return structure(lut).commutative


def check_commutative(lut: LutTable) -> tuple[int, int] | None:
    """None when the table is symmetric, else the lexicographically smallest
    (i, j) with A(i,j) != A(j,i)."""
    t = lut.table
    bad = t != t.T
    first = bad.argmax()  # row-major = lexicographic order
    if not bad.flat[first]:
        return None
    return divmod(int(first), lut.n)


def find_identity(lut: LutTable) -> int | None:
    """The unique two-sided identity index, or None.

    An identity is idempotent, so only the idempotents are tried; two-sided
    identities are unique when they exist, so their order does not matter.
    """
    t = lut.table
    idx = np.arange(lut.n)
    for e in find_idempotents(lut):
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
    J = index_set(subset, lut.n, "subset")
    # x |-> x (+) a must permute J for each a in J
    return all(np.array_equal(np.sort(lut.table[J, a]), J) for a in J)


def degenerate_doa_necessary(lut: LutTable, x: int, p) -> bool:
    """Necessary condition for p to be attracted to the point mass at x:
    all mass must sit on { y : x (+) y = x }.

    Requires x (+) x = x; a False return certifies p is not attracted.
    """
    x = as_index(x, lut.n, "x")
    if lut.table[x, x] != x:
        raise ValidityError(f"index {x} is not idempotent (x (+) x != x)")
    same_n("distribution size", lut.n, p.n)
    mass = p.p[lut.table[x] == x].sum()
    return bool(mass >= 1.0 - MASS_EPS)
