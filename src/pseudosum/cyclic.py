"""Cyclic pseudo-summation through a relabeling permutation.

The table is modular addition conjugated by a permutation s:
``x (+) y = s_inv[(s[x] + s[y]) % N]``.  Under the relabeling Y = s(X) every
law gets a characteristic function (the DFT of the relabeled probability
vector), multiplicative under convolution, which drives everything here:
stable laws are exactly the uniform laws on subgroups (pushed through s_inv),
a law is attracted iff its relabeled support lies in the subgroup generated
by the support's pairwise differences (a gcd rule), and infinitely divisible
laws factor as shift (+) subgroup-uniform (+) compound Poisson.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidityError
from .dist import Distribution, convolve, power, tv_distance
from .lut import Alphabet, LutTable, json_integers, json_size

ZERO_EPS = 1e-9    # |spectrum value| at or below this counts as a true zero
_MASS_EPS = 1e-12  # a point mass at or below this counts as absent from a support


class Permutation:
    """A bijection s of 0..n-1 together with its inverse."""

    def __init__(self, s):
        arr = np.array(s, dtype=np.intp)  # a copy: the caller's array stays writable
        if arr.ndim != 1 or arr.size < 1:
            raise ValidityError("permutation must be a non-empty 1-d sequence")
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
        return cls(np.arange(n))

    @classmethod
    def from_json(cls, doc: dict) -> "Permutation":
        try:
            n, s = json_size(doc["n"]), json_integers(doc["s"], "permutation")
        except (KeyError, TypeError) as exc:
            raise ValidityError(f"permutation document missing field: {exc}") from exc
        if s.ndim == 1 and s.size != n:
            raise ValidityError(f"permutation length {s.size} does not match n={n}")
        return cls(s)

    def to_json(self) -> dict:
        return {"n": self.n, "s": self.s.tolist()}

    def __repr__(self):
        return f"Permutation({self.s.tolist()})"


class Spectrum:
    """Characteristic values f(0..n-1) of a law on the relabeled cycle.

    Valid spectra have f(0) = 1, modulus at most 1, and the conjugate
    symmetry f(t) = conj(f(n-t)) of real probability vectors.
    """

    def __init__(self, f, tol: float = 1e-9):
        arr = np.array(f, dtype=complex)  # a copy: the caller's array stays writable
        if arr.ndim != 1 or arr.size < 1:
            raise ValidityError("spectrum must be a non-empty 1-d sequence")
        if abs(arr[0] - 1.0) > tol:
            raise ValidityError(f"spectrum must have f(0) = 1, got {arr[0]!r}")
        if (np.abs(arr) > 1.0 + 1e-12).any():
            raise ValidityError("spectrum values must have modulus at most 1")
        mirrored = np.conj(np.concatenate([arr[:1], arr[:0:-1]]))
        if np.abs(arr - mirrored).max() > tol:
            raise ValidityError("spectrum lacks the conjugate symmetry of a real law")
        arr.setflags(write=False)
        self.f = arr

    @property
    def n(self) -> int:
        return int(self.f.size)

    def __repr__(self):
        return f"Spectrum({self.f.tolist()})"


@dataclass(frozen=True)
class StableLaw:
    """Descriptor of a stable law for the cyclic table: the uniform law on
    the subgroup of index m (equivalently on r = n/m points spaced m apart,
    pushed through s_inv).  m = n encodes the point mass at s_inv[0]."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1 or self.r < 1:
            raise ValidityError("stable law requires m >= 1 and r >= 1")

    @property
    def n(self) -> int:
        return self.m * self.r


@dataclass(frozen=True)
class IdDecomposition:
    """Canonical factorization of an infinitely divisible law: a point shift
    ``a``, a uniform component on the subgroup descriptor ``m``, and a
    compound Poisson part with intensity ``lam`` and jump law ``jump``."""

    a: int
    m: int
    lam: float
    jump: Distribution

    def __post_init__(self):
        n = self.jump.n
        if self.lam < 0:
            raise ValidityError("intensity must be nonnegative")
        if self.m < 1 or n % self.m != 0:
            raise ValidityError(f"m={self.m} must divide n={n}")
        if not 0 <= self.a < n:
            raise ValidityError(f"shift {self.a} out of range for n={n}")


def _ident(s: Permutation | None, n: int) -> Permutation:
    if s is None:
        return Permutation.identity(n)
    if s.n != n:
        raise ValidityError(f"permutation size {s.n} does not match n={n}")
    return s


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def make_cyclic_lut(n: int, s: Permutation | None = None) -> LutTable:
    """The table x (+) y = s_inv[(s[x] + s[y]) % n] on the canonical alphabet."""
    if n < 1:
        raise ValidityError("n must be >= 1")
    s = _ident(s, n)
    grid = (s.s[:, None] + s.s[None, :]) % n
    lut = LutTable(Alphabet.canonical(n), s.inv[grid])
    # a relabeled Z_n is an abelian group: nothing needs to re-derive that
    lut._assoc = lut._comm = True
    return lut


def make_mod_lut(n: int) -> LutTable:
    """Plain mod-n addition (identity permutation)."""
    return make_cyclic_lut(n)


def relabel(p: Distribution, s: Permutation) -> Distribution:
    """The law of s(X): mass at index k moves to index s[k]."""
    if s.n != p.n:
        raise ValidityError(f"permutation size {s.n} does not match n={p.n}")
    return Distribution(_relabeled_raw(p, s))


def _relabeled_raw(p: Distribution, s: Permutation) -> np.ndarray:
    q = np.empty(p.n)
    q[s.s] = p.p
    return q


def _spectrum_raw(q: np.ndarray) -> np.ndarray:
    # positive-exponent transform of the relabeled vector
    return np.fft.ifft(q) * q.size


def spectrum(p: Distribution, s: Permutation | None = None) -> Spectrum:
    """Characteristic values f(t) = sum_k p_k exp(2i pi s[k] t / n)."""
    s = _ident(s, p.n)
    return Spectrum(_spectrum_raw(_relabeled_raw(p, s)))


def from_spectrum(F: Spectrum, s: Permutation | None = None, tol: float = 1e-9) -> Distribution:
    """Invert a spectrum back to a law on the original labels.

    Rejects inverses that are not probability vectors: imaginary parts or
    negative masses beyond tol.  Tiny negatives are clamped and the vector
    renormalized.
    """
    s = _ident(s, F.n)
    q = np.fft.fft(F.f) / F.n
    if np.abs(q.imag).max() > tol:
        raise ValidityError("spectrum does not invert to a real vector")
    re = q.real
    if re.min() < -tol:
        raise ValidityError("spectrum does not invert to a nonnegative vector")
    re = np.clip(re, 0.0, None)
    p = re[s.s]
    return Distribution(p / p.sum())


def multiply_spectra(F: Spectrum, G: Spectrum) -> Spectrum:
    """Pointwise product; the spectrum of the convolution of the two laws."""
    if F.n != G.n:
        raise ValidityError(f"dimension mismatch: {F.n} != {G.n}")
    return Spectrum(F.f * G.f)


def stable_distribution(law: StableLaw, s: Permutation | None = None) -> Distribution:
    """The law described by a StableLaw: uniform mass 1/r at the indices
    s_inv[j * m], j = 0..r-1."""
    n = law.n
    s = _ident(s, n)
    q = np.zeros(n)
    q[np.arange(law.r) * law.m] = 1.0 / law.r
    return Distribution(q[s.s])


def enumerate_stable(
    n: int, s: Permutation | None = None
) -> list[tuple[StableLaw, Distribution]]:
    """All stable laws for the cyclic table on n points: one per divisor m of
    n, ordered from the point mass (m = n) down to the full uniform (m = 1).
    The list is exhaustive."""
    if n < 1:
        raise ValidityError("n must be >= 1")
    s = _ident(s, n)
    out = []
    for m in reversed(_divisors(n)):
        law = StableLaw(m, n // m)
        out.append((law, stable_distribution(law, s)))
    return out


def classify_stable(
    p: Distribution, s: Permutation | None = None, tol: float = 1e-9
) -> StableLaw | None:
    """The stable law matching p within total variation tol, or None."""
    s = _ident(s, p.n)
    for law, q in enumerate_stable(p.n, s):
        if tv_distance(p, q) <= tol:
            return law
    return None


def in_doa(p: Distribution, target: StableLaw, s: Permutation | None = None) -> bool:
    """Whether p is attracted to the given stable law (its fold powers
    converge to it in distribution)."""
    if target.n != p.n:
        raise ValidityError(f"target law is for n={target.n}, distribution has n={p.n}")
    return doa_attractor(p, s) == target


def doa_attractor(p: Distribution, s: Permutation | None = None) -> StableLaw | None:
    """The stable law attracting p, or None when the fold powers cycle.

    Relabeled, p lives on a coset a + gZ_n, where g is the gcd of n and the
    pairwise differences of its support.  Its m-fold powers live on
    ma + gZ_n, so they converge iff a is in gZ_n, and then to the uniform law
    on gZ_n (Kawada & Ito 1940).  A point of mass at most 1e-12 counts as
    absent from the support.
    """
    s = _ident(s, p.n)
    support = s.s[p.p > _MASS_EPS]
    g = math.gcd(p.n, *(support - support[0]).tolist())
    return StableLaw(g, p.n // g) if support[0] % g == 0 else None


def construct_id(d: IdDecomposition, s: Permutation | None = None) -> Distribution:
    """Exact law of shift (+) subgroup-uniform (+) compound Poisson.

    Built in the relabeled coordinates: linear phase for the shift, the
    subgroup indicator for the uniform part, exp(lam * (f_jump - 1)) for the
    compound Poisson part, then inverted through s_inv.
    """
    n = d.jump.n
    s = _ident(s, n)
    r = n // d.m
    t = np.arange(n)
    a_rel = int(s.s[d.a])
    phase = np.exp(2j * np.pi * a_rel * t / n)
    uniform_part = (t % r == 0).astype(float)
    f_jump = _spectrum_raw(_relabeled_raw(d.jump, s))
    F = phase * uniform_part * np.exp(d.lam * (f_jump - 1.0))
    return from_spectrum(Spectrum(F), s)


def _odd_part_search(
    y: np.ndarray, budget: float, S: np.ndarray, rest: np.ndarray, bound: np.ndarray
) -> np.ndarray | None:
    """S x for the first x = y + 2 pi w (w integer) found depth-first with
    sum(x^2) <= budget and |S x| <= bound, or None.  Each depth takes the w
    that suffix sums of y^2 (y in (-pi, pi]) leave in the ball, nearest y
    first (Fincke & Pohst, Math. Comp. 44, 1985), and drops a prefix whose
    S x the rest of x cannot bring back within the bound: by Cauchy-Schwarz,
    x after depth v moves (S x)_k by at most rest[v, k] = |S[k, v+1:]| times
    sqrt(budget left).
    """
    half = y.size
    tail = np.append(np.cumsum(y[::-1] ** 2)[::-1], 0.0)
    stack = [(0, budget, np.zeros(half))]
    while stack:
        v, left, Sx = stack.pop()
        if v == half:
            return Sx
        r = math.sqrt(max(left - tail[v + 1], 0.0))
        lo = math.ceil((-r - y[v]) / (2 * np.pi))
        hi = math.floor((r - y[v]) / (2 * np.pi))
        for k in sorted(range(lo, hi + 1), key=lambda k: -abs(y[v] + 2 * np.pi * k)):
            x = y[v] + 2 * np.pi * k  # pushed farthest first: nearest y is tried first
            kid = Sx + S[:, v] * x
            if (np.abs(kid) <= bound + rest[v] * math.sqrt(max(left - x * x, 0.0))).all():
                stack.append((v + 1, left - x * x, kid))
    return None


def decompose_id(
    p: Distribution, s: Permutation | None = None, tol: float = 1e-9
) -> IdDecomposition | None:
    """Canonical factorization of an infinitely divisible law, or None.

    The spectrum's zero set must be the complement of a subgroup (the
    uniform component).  On it, g = shift x exp(psi) with jump intensities
    C >= -tol, psi(u) = sum_k C_k (exp(2 pi i k u / m) - 1).  One FFT of
    log|g| gives lam = -mean log|g| and the even part e_k of C exactly, and
    rejects e_k < -tol.  The odd part then has |o_k| <= e_k + tol, so by
    Parseval sum_u (Im psi(u))^2 <= m sum_k (e_k + tol)^2; for each shift
    the 2 pi log branches inside that ball are searched depth-first, pruned
    on the odd-part bound (exact, no cap).  The canonical form has the jump law on the relabeled residues
    1..m-1, jump mass at 0 folded out of the intensity, and the shift
    reduced modulo m; it must reproduce p within 1e-7 TV.
    """
    n = p.n
    s = _ident(s, n)
    q = _relabeled_raw(p, s)
    f = _spectrum_raw(q)
    support = np.flatnonzero(np.abs(f) > ZERO_EPS)
    m = support.size
    if m == 0 or n % m != 0:
        return None
    r = n // m
    if not np.array_equal(support, np.arange(m) * r):
        return None
    g = f[::r]
    re_psi = np.fft.fft(np.log(np.abs(g))).real / m
    lam = max(0.0, -float(re_psi[0]))
    e = re_psi[1:]  # even part of the jump intensities C
    if e.size and e.min() < -tol:
        return None
    # Im psi is odd, so its values at u = 1..half fix it and carry half the
    # Parseval sum; there the odd part of C is o = (2 / m) S Im psi
    half = (m - 1) // 2
    u = np.arange(m)
    S = np.sin(2 * np.pi * np.outer(u[1 : half + 1], u[1 : half + 1]) / m)
    sq = np.append(np.zeros((half, 1)), S[:, :0:-1] ** 2, axis=1)
    rest = np.sqrt(np.cumsum(sq, axis=1)[:, ::-1]).T  # rest[v, k] = |S[k, v+1:]|
    budget = 0.5 * m * float(np.sum((e + tol) ** 2))
    bound = 0.5 * m * (e[:half] + tol)
    for a_rel in range(m):
        phase = np.angle(g * np.exp(-2j * np.pi * a_rel * u / m))
        if m % 2 == 0 and abs(phase[m // 2]) > 1e-7:
            continue  # the half-frequency value must be real positive
        Sx = _odd_part_search(phase[1 : half + 1], budget, S, rest, bound)
        if Sx is not None:
            break
    else:
        return None
    o = 2 * Sx / m
    C = e + np.concatenate([o, np.zeros(m - 1 - 2 * half), -o[::-1]])
    C = np.clip(C, 0.0, None)
    jump_rel = np.zeros(n)
    if lam > tol:
        jump_rel[1:m] = C / C.sum()
    else:
        lam = 0.0
        jump_rel[0] = 1.0
    out = IdDecomposition(
        a=int(s.inv[a_rel]), m=m, lam=lam, jump=Distribution(jump_rel[s.s])
    )
    # the factorization must actually reproduce the law
    if tv_distance(construct_id(out, s), p) > 1e-7:
        return None
    return out


def is_infinitely_divisible(
    p: Distribution, s: Permutation | None = None, tol: float = 1e-9
) -> bool:
    """True when p factors as shift (+) subgroup-uniform (+) compound
    Poisson, decided by decompose_id's exact search (a spectrum value at or
    below ZERO_EPS counts as a zero).  Such laws have shifted fold roots of
    every order.  Roots at a few small orders do not imply a factorization:
    some laws this rejects have roots of orders 2..16 but none of order 17.
    That roots at every order imply one is the classical result that
    infinitely divisible laws on a finite abelian group are shift x
    idempotent x Poisson (Parthasarathy 1967, ch. IV; Heyer 1977); this code
    does not prove it, and the acceptance tests check it only up to a
    bounded order."""
    return decompose_id(p, s, tol) is not None


def nth_root_oracle(
    p: Distribution, n_parts: int, s: Permutation | None = None
) -> Distribution | None:
    """Brute-force witness for n-fold divisibility: a law q whose n_parts-fold
    pseudo-sum, shifted by some point, reproduces p within 1e-8.

    Enumerates every shift and every branch assignment of the n-th roots of
    the relabeled spectrum (zero values take root zero), inverts each
    candidate, and verifies the first valid one through the fold itself.
    Guarded to n <= 8 alphabet points and n_parts <= 4.
    """
    n = p.n
    if n > 8 or n_parts > 4:
        raise ValidityError("oracle guard: requires n <= 8 and n_parts <= 4")
    if n_parts < 1:
        raise ValidityError("n_parts must be >= 1")
    s = _ident(s, n)
    f = _spectrum_raw(_relabeled_raw(p, s))
    lut = make_cyclic_lut(n, s)
    t = np.arange(n)
    for a_rel in range(n):
        target = f * np.exp(-2j * np.pi * a_rel * t / n)
        zero = np.abs(target) <= ZERO_EPS
        base = np.zeros(n, dtype=complex)
        nz = ~zero
        base[nz] = np.abs(target[nz]) ** (1.0 / n_parts) * np.exp(
            1j * np.angle(target[nz]) / n_parts
        )
        base[0] = 1.0
        free = [v for v in range(1, n) if not zero[v]]
        k = len(free)
        count = n_parts**k
        digits = (
            np.arange(count)[:, None] // n_parts ** np.arange(k - 1, -1, -1)
        ) % n_parts
        cands = np.repeat(base[None, :], count, axis=0)
        if k:
            cands[:, free] = cands[:, free] * np.exp(2j * np.pi * digits / n_parts)
        Q = np.fft.fft(cands, axis=1) / n
        ok = (np.abs(Q.imag).max(axis=1) <= 1e-10) & (Q.real.min(axis=1) >= -1e-10)
        for row in np.flatnonzero(ok):
            qq = np.clip(Q[row].real, 0.0, None)
            root = Distribution(qq[s.s] / qq.sum())
            folded = power(lut, root, n_parts)
            shifted = convolve(lut, folded, Distribution.point_mass(n, int(s.inv[a_rel])))
            if tv_distance(shifted, p) <= 1e-8:
                return root
    return None
