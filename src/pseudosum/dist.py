"""Exact distribution arithmetic under a pseudo-summation table.

Convolution pushes a pair of independent laws through the table, powers are
computed by binary doubling, and ``limit`` follows the doubling sequence to a
fixed point (a stable law) or reports a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError, shown
from .lut import (
    LutTable, as_array, as_index, as_int, as_real, find_identity, index_set, is_associative, is_commutative,
    json_fields, same_n,
)

SUM_TOL = 1e-9          # construction: |sum(p) - 1| beyond this is rejected
FIXED_POINT_TOL = 1e-12

CONVERGED = "converged"
CYCLE = "cycle"
MAX_ITERATIONS = "max_iterations"


class Distribution:
    """A probability vector over alphabet indices 0..n-1.

    Entries must be nonnegative and sum to 1 within SUM_TOL.  The vector is
    divided by its sum unless that is within N ulps of 1 (N * 2^-52), which
    the sum of a divided vector is: wrapping a law again, or reading back its
    own `to_json`, gives the same bits.
    """

    def __init__(self, p):
        arr = as_array(p, "p", entries="probabilities")  # a copy: the caller's array stays writable
        if (arr < 0).any():
            raise ValidityError("probabilities must be nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValidityError(f"probabilities sum to {shown(float(total))}, not 1 within {SUM_TOL}")
        if abs(total - 1.0) > arr.size * np.finfo(float).eps:
            arr /= total
        arr.setflags(write=False)
        self.p = arr

    @property
    def n(self) -> int:
        return int(self.p.size)

    @classmethod
    def point_mass(cls, n: int, k: int) -> "Distribution":
        n = as_int(n, "n", 1)
        p = np.zeros(n)
        p[as_index(k, n, "k")] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, n: int, support=None) -> "Distribution":
        """Uniform on the given index set (default: all of 0..n-1)."""
        n = as_int(n, "n", 1)
        if support is None:
            return cls(np.full(n, 1.0 / n))
        idx = index_set(support, n, "support")
        p = np.zeros(n)
        p[idx] = 1.0 / idx.size
        return cls(p)

    @classmethod
    def from_json(cls, doc: dict) -> "Distribution":
        n, p = json_fields(doc, "distribution", "p")
        dist = cls(p)
        same_n("probability vector length", n, dist.n)
        return dist

    def to_json(self) -> dict:
        return {"n": self.n, "p": self.p.tolist()}

    def __repr__(self):
        return f"Distribution({self.p.tolist()})"


@dataclass(frozen=True)
class LimitResult:
    """Outcome of the doubling iteration: one of CONVERGED (with the limiting
    law and the number of doublings used), CYCLE (with a period hint, in
    doubling steps; 2 for odd/even oscillation), or MAX_ITERATIONS."""

    status: str
    dist: Distribution | None = None
    doublings: int = 0
    period: int | None = None


def _convolve_raw(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Push the law pair (a, b) through the table: r[k] sums a[i] * b[j] over
    the cells with table[i, j] == k, adding in row-major order, and r is
    divided by its sum.  A push squares the rounding error of the total mass,
    so without the division a 1-ulp drift from 1 compounds doubly
    exponentially over repeated squaring; with it, every law stays on the
    simplex."""
    r = np.bincount(table.ravel(), np.outer(a, b).ravel(), minlength=table.shape[0])
    r /= r.sum()
    return r


def _tv_raw(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def convolve(lut: LutTable, p: Distribution, q: Distribution) -> Distribution:
    """Law of X (+) Y for independent X ~ p, Y ~ q.

    On a commutative table the pair is put in one fixed order (by the bytes
    of the two laws) before the push, so convolve(p, q) and convolve(q, p)
    are bitwise identical.
    """
    same_n("distribution size", lut.n, p.n, q.n)
    if is_commutative(lut) and q.p.tobytes() < p.p.tobytes():
        p, q = q, p
    return Distribution(_convolve_raw(lut.table, p.p, q.p))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the l1 distance; in [0, 1]."""
    same_n("distribution size", p.n, q.n)
    return _tv_raw(p.p, q.p)


def power(lut: LutTable, p: Distribution, m: int) -> Distribution:
    """Law of the m-fold pseudo-sum of i.i.d. copies of p, by binary doubling.

    Requires an associative table (doubling reassociates the fold).  m = 0 is
    allowed only when the table has an identity, giving its point mass.  It
    takes at most 2 log2(m) pushes, each divided by its sum, so a law of any
    m, 2^64 - 1 or 10^30 too, stays on the simplex.
    """
    same_n("distribution size", lut.n, p.n)
    m = as_int(m, "m", 0)
    if not is_associative(lut):
        raise ValidityError("table is not associative; powers are ill-defined")
    if m == 0:
        e = find_identity(lut)
        if e is None:
            raise ValidityError("m = 0 requires a table with an identity element")
        return Distribution.point_mass(lut.n, e)
    table = lut.table
    acc: np.ndarray | None = None
    base = p.p
    while m:
        if m & 1:
            acc = base if acc is None else _convolve_raw(table, acc, base)
        m >>= 1
        if m:
            base = _convolve_raw(table, base, base)
    return Distribution(acc)


def is_stable(lut: LutTable, p: Distribution, tol: float = FIXED_POINT_TOL) -> bool:
    """True when p is a fixed point of self-convolution, i.e. the law of
    X1 (+) X2 equals p within total variation tol."""
    same_n("distribution size", lut.n, p.n)
    tol = as_real(tol, "tol")
    return _tv_raw(_convolve_raw(lut.table, p.p, p.p), p.p) <= tol


def limit(
    lut: LutTable,
    p: Distribution,
    tol: float = FIXED_POINT_TOL,
    max_doublings: int = 64,
) -> LimitResult:
    """Follow the doubling sequence q, q(+)q, ... of m-fold sum laws along
    m = 2^k.

    Returns CONVERGED only for genuine full-sequence convergence: once the
    doubling sequence settles, one extra convolution with p probes the odd
    subsequence, and a moving fixed point is reported as CYCLE (odd/even
    oscillation, period 2).  Recurrence of an earlier iterate, the earliest
    within total variation tol of the new one, is also a CYCLE.  The converged
    payload is guaranteed stable at tolerance 2*tol.
    """
    same_n("distribution size", lut.n, p.n)
    tol = as_real(tol, "tol", positive=True)
    max_doublings = as_int(max_doublings, "max_doublings", 1)
    if not is_associative(lut):
        raise ValidityError("table is not associative; limits are ill-defined")
    table = lut.table
    q = p.p
    kept = []  # the iterates before q; iterate j is the law of the 2^j-fold sum
    for k in range(1, max_doublings + 1):
        nxt = _convolve_raw(table, q, q)
        if _tv_raw(nxt, q) <= tol:
            probe = _convolve_raw(table, nxt, p.p)
            if _tv_raw(probe, nxt) > tol:
                return LimitResult(CYCLE, doublings=k, period=2)
            return LimitResult(CONVERGED, dist=Distribution(nxt), doublings=k)
        for j, prior in enumerate(kept):
            if _tv_raw(nxt, prior) <= tol:
                return LimitResult(CYCLE, doublings=k, period=k - j)
        kept.append(q)
        q = nxt
    return LimitResult(MAX_ITERATIONS, doublings=max_doublings)
