"""Exact distribution arithmetic under a pseudo-summation table.

Convolution pushes a pair of independent laws through the table, powers are
computed by binary doubling, and ``limit`` follows the doubling sequence to a
fixed point (a stable law) or reports a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityError
from .lut import LutTable, find_identity, is_associative, is_commutative, json_numbers, json_size

SUM_TOL = 1e-9          # construction: |sum(p) - 1| beyond this is rejected
FIXED_POINT_TOL = 1e-12
_CYCLE_QUANTUM = 1e-10  # probability quantum for cycle-detection hashing

CONVERGED = "converged"
CYCLE = "cycle"
MAX_ITERATIONS = "max_iterations"


class Distribution:
    """A probability vector over alphabet indices 0..n-1.

    Entries must be nonnegative and sum to 1 within ``tol``; the vector is
    renormalized exactly on construction.
    """

    def __init__(self, p, tol: float = SUM_TOL):
        arr = np.asarray(p, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidityError("probability vector must be a non-empty 1-d sequence")
        if not np.isfinite(arr).all():
            raise ValidityError("probabilities must be finite")
        if (arr < 0).any():
            raise ValidityError("probabilities must be nonnegative")
        total = arr.sum()
        if abs(total - 1.0) > tol:
            raise ValidityError(f"probabilities sum to {total!r}, not 1 within {tol}")
        arr = arr / total
        arr.setflags(write=False)
        self.p = arr

    @property
    def n(self) -> int:
        return int(self.p.size)

    @classmethod
    def point_mass(cls, n: int, k: int) -> "Distribution":
        if not 0 <= k < n:
            raise ValidityError(f"point mass index {k} out of range for n={n}")
        p = np.zeros(n)
        p[k] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, n: int, support=None) -> "Distribution":
        """Uniform on the given index set (default: all of 0..n-1)."""
        if support is None:
            return cls(np.full(n, 1.0 / n))
        idx = sorted(set(int(k) for k in support))
        if not idx or idx[0] < 0 or idx[-1] >= n:
            raise ValidityError("support must be a non-empty subset of [0, n)")
        p = np.zeros(n)
        p[idx] = 1.0 / len(idx)
        return cls(p)

    @classmethod
    def from_json(cls, doc: dict) -> "Distribution":
        try:
            n, p = json_size(doc["n"]), json_numbers(doc["p"], "p")
        except (KeyError, TypeError) as exc:
            raise ValidityError(f"distribution document missing field: {exc}") from exc
        if p.ndim == 1 and p.size != n:
            raise ValidityError(f"probability vector length {p.size} does not match n={n}")
        return cls(p)

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


def _check_same_n(*sizes) -> int:
    n = sizes[0]
    if any(m != n for m in sizes[1:]):
        raise ValidityError(f"dimension mismatch: sizes {sizes}")
    return n


def _convolve_raw(table: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    r = np.zeros(p.size)
    np.add.at(r, table, np.outer(p, q))
    return r


def _tv_raw(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(p - q).sum())


def convolve(lut: LutTable, p: Distribution, q: Distribution) -> Distribution:
    """Law of X (+) Y for independent X ~ p, Y ~ q.

    For commutative tables the weight matrix is symmetrized so that
    convolve(p, q) and convolve(q, p) are bitwise identical.
    """
    _check_same_n(lut.n, p.n, q.n)
    weights = np.outer(p.p, q.p)
    if is_commutative(lut):
        weights = (weights + weights.T) / 2.0
    r = np.zeros(p.n)
    np.add.at(r, lut.table, weights)
    return Distribution(r)


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the l1 distance; in [0, 1]."""
    _check_same_n(p.n, q.n)
    return _tv_raw(p.p, q.p)


def power(lut: LutTable, p: Distribution, m: int) -> Distribution:
    """Law of the m-fold pseudo-sum of i.i.d. copies of p, by binary doubling.

    Requires an associative table (doubling reassociates the fold).  m = 0 is
    allowed only when the table has an identity, giving its point mass.
    """
    _check_same_n(lut.n, p.n)
    if m < 0:
        raise ValidityError("fold length m must be >= 0")
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
    _check_same_n(lut.n, p.n)
    return _tv_raw(_convolve_raw(lut.table, p.p, p.p), p.p) <= tol


def _quantize_key(p: np.ndarray) -> bytes:
    return np.rint(p / _CYCLE_QUANTUM).astype(np.int64).tobytes()


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
    oscillation, period 2).  Recurrence of an earlier iterate (detected by
    hashing probabilities quantized at 1e-10) is also a CYCLE.  The converged
    payload is guaranteed stable at tolerance 2*tol.
    """
    _check_same_n(lut.n, p.n)
    if tol <= 0:
        raise ValidityError("tol must be positive")
    if max_doublings < 1:
        raise ValidityError("max_doublings must be >= 1")
    if not is_associative(lut):
        raise ValidityError("table is not associative; limits are ill-defined")
    table = lut.table
    q = p.p
    seen = {_quantize_key(q): (0, q)}
    for k in range(1, max_doublings + 1):
        nxt = _convolve_raw(table, q, q)
        # self-convolution squares the total mass, so a 1-ulp drift from 1
        # compounds doubly exponentially over 64 doublings; stay on the simplex
        nxt /= nxt.sum()
        if _tv_raw(nxt, q) <= tol:
            probe = _convolve_raw(table, nxt, p.p)
            if _tv_raw(probe, nxt) > tol:
                return LimitResult(CYCLE, doublings=k, period=2)
            return LimitResult(CONVERGED, dist=Distribution(nxt), doublings=k)
        key = _quantize_key(nxt)
        hit = seen.get(key)
        if hit is not None:
            # the hash is only an accelerant: a quantum-level collision during
            # slow convergence is not a recurrence, so confirm at tol
            prior, vec = hit
            if _tv_raw(nxt, vec) <= tol:
                return LimitResult(CYCLE, doublings=k, period=k - prior)
        else:
            seen[key] = (k, nxt)
        q = nxt
    return LimitResult(MAX_ITERATIONS, doublings=max_doublings)
