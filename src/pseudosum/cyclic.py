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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidityError
from .dist import SUM_TOL, Distribution, convolve, power, tv_distance
from .lut import MASS_EPS, Alphabet, LutTable, as_array, as_index, as_int, as_real, json_fields, same_n, shown

ZERO_EPS = 1e-9  # |spectrum value| at or below this counts as a true zero
_ROOT_CELLS = 2**20  # nth_root_oracle's bound on n_parts^(N // 2) * N^2
_BRANCH_NODES = 2**17  # decompose_id's bound on the branch prefixes it visits, over all shifts


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


class Spectrum:
    """Characteristic values f(0..n-1) of a law on the relabeled cycle.

    Valid spectra have modulus at most 1, and f(0) = 1 and the conjugate
    symmetry f(t) = conj(f(n-t)) of real probability vectors within SUM_TOL.
    """

    def __init__(self, f):
        arr = as_array(f, "spectrum", complex)  # a copy: the caller's array stays writable
        if abs(arr[0] - 1.0) > SUM_TOL:
            raise ValidityError(f"spectrum must have f(0) = 1, got {arr[0]!r}")
        if (np.abs(arr) > 1.0 + 1e-12).any():
            raise ValidityError("spectrum values must have modulus at most 1")
        mirrored = np.conj(np.concatenate([arr[:1], arr[:0:-1]]))
        if np.abs(arr - mirrored).max() > SUM_TOL:
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
        object.__setattr__(self, "m", as_int(self.m, "m", 1))
        object.__setattr__(self, "r", as_int(self.r, "r", 1))

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
        object.__setattr__(self, "lam", as_real(self.lam, "lam"))
        object.__setattr__(self, "m", as_int(self.m, "m", 1))
        if n % self.m != 0:
            raise ValidityError(f"m={shown(self.m)} must divide n={n}")
        object.__setattr__(self, "a", as_index(self.a, n, "a"))


def _ident(s: Permutation | None, n: int) -> Permutation:
    if s is None:
        return Permutation.identity(n)
    same_n("permutation size", n, s.n)
    return s


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def make_cyclic_lut(n: int, s: Permutation | None = None) -> LutTable:
    """The table x (+) y = s_inv[(s[x] + s[y]) % n] on the canonical alphabet."""
    n = as_int(n, "n", 1)
    s = _ident(s, n)
    grid = (s.s[:, None] + s.s[None, :]) % n
    return LutTable(Alphabet.canonical(n), s.inv[grid])


def make_mod_lut(n: int) -> LutTable:
    """Plain mod-n addition (identity permutation)."""
    return make_cyclic_lut(n)


def relabel(p: Distribution, s: Permutation | None = None) -> Distribution:
    """The law of s(X): mass at index k moves to index s[k]."""
    return Distribution(p.p[_ident(s, p.n).inv])


def _relabeled_spectrum(p: Distribution, s: Permutation) -> np.ndarray:
    # positive-exponent transform of the relabeled vector
    return np.fft.ifft(p.p[s.inv]) * p.n


def _unrelabeled(q: np.ndarray, s: Permutation) -> Distribution:
    """The law whose relabeled masses are q clipped at 0: pulled back
    through s and divided by its sum."""
    p = np.clip(q, 0.0, None)[s.s]
    return Distribution(p / p.sum())


def spectrum(p: Distribution, s: Permutation | None = None) -> Spectrum:
    """Characteristic values f(t) = sum_k p_k exp(2i pi s[k] t / n)."""
    return Spectrum(_relabeled_spectrum(p, _ident(s, p.n)))


def from_spectrum(F: Spectrum, s: Permutation | None = None) -> Distribution:
    """Invert a spectrum back to a law on the original labels.

    Rejects inverses that are not probability vectors: imaginary parts or
    negative masses beyond SUM_TOL.  Tiny negatives are clamped and the
    vector renormalized.
    """
    s = _ident(s, F.n)
    q = np.fft.fft(F.f) / F.n
    if np.abs(q.imag).max() > SUM_TOL:
        raise ValidityError("spectrum does not invert to a real vector")
    if q.real.min() < -SUM_TOL:
        raise ValidityError("spectrum does not invert to a nonnegative vector")
    return _unrelabeled(q.real, s)


def multiply_spectra(F: Spectrum, G: Spectrum) -> Spectrum:
    """Pointwise product; the spectrum of the convolution of the two laws."""
    same_n("spectrum size", F.n, G.n)
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
    n = as_int(n, "n", 1)
    s = _ident(s, n)
    out = []
    for m in reversed(_divisors(n)):
        law = StableLaw(m, n // m)
        out.append((law, stable_distribution(law, s)))
    return out


def classify_stable(p: Distribution, s: Permutation | None = None) -> StableLaw | None:
    """The stable law matching p within total variation SUM_TOL, or None."""
    s = _ident(s, p.n)
    for law, q in enumerate_stable(p.n, s):
        if tv_distance(p, q) <= SUM_TOL:
            return law
    return None


def in_doa(p: Distribution, target: StableLaw, s: Permutation | None = None) -> bool:
    """Whether p is attracted to the given stable law (its fold powers
    converge to it in distribution)."""
    same_n("target law size", p.n, target.n)
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
    support = s.s[p.p > MASS_EPS]
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
    f_jump = _relabeled_spectrum(d.jump, s)
    F = phase * uniform_part * np.exp(d.lam * (f_jump - 1.0))
    return from_spectrum(Spectrum(F), s)


def _odd_part_search(
    y: np.ndarray, budget: float, S: np.ndarray, rest: np.ndarray, bound: np.ndarray, nodes: Iterator[int]
) -> np.ndarray | None:
    """S x for the first x = y + 2 pi w (w integer) found depth-first with
    sum(x^2) <= budget and |S x| <= bound, or None.  Each depth takes the w
    that suffix sums of y^2 (y in (-pi, pi]) leave in the ball, nearest y
    first (Fincke & Pohst, Math. Comp. 44, 1985), and drops a prefix whose
    S x the rest of x cannot bring back within the bound: by Cauchy-Schwarz,
    x after depth v moves (S x)_k by at most rest[v, k] = |S[k, v+1:]| times
    sqrt(budget left).  Each prefix visited takes one item of the iterator
    nodes, shared by the caller's searches; ValidityError when it runs out.
    """
    half = y.size
    tail = np.append(np.cumsum(y[::-1] ** 2)[::-1], 0.0)
    stack = [(0, budget, np.zeros(half))]
    while stack:
        if next(nodes, None) is None:
            raise ValidityError(f"decomposition search too large: over {_BRANCH_NODES} branch prefixes")
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
    C >= -tol', psi(u) = sum_k C_k (exp(2 pi i k u / m) - 1), where
    tol' = tol + 1e-16 sum(1 / |g|) allows for the rounding of the masses.
    One FFT of log|g| gives lam = -mean log|g| and the even part e_k of C
    exactly, and rejects e_k < -tol'.  The odd part then has
    |o_k| <= e_k + tol', so by Parseval
    sum_u (Im psi(u))^2 <= m sum_k (e_k + tol')^2; for each shift the 2 pi
    log branches inside that ball are searched depth-first, pruned on the
    odd-part bound, with no approximation.  The canonical form has the jump
    law on the relabeled residues 1..m-1, jump mass at 0 folded out of the
    intensity, and the shift reduced modulo m; it must reproduce p within
    1e-7 TV.  Raises ValidityError when the search visits more than 2^17
    branch prefixes over all shifts (a few seconds): a law whose smallest
    subgroup spectrum value lies just above ZERO_EPS has a Parseval ball
    holding millions of them.
    """
    tol, n = as_real(tol, "tol"), p.n
    s = _ident(s, n)
    f = _relabeled_spectrum(p, s)
    support = np.flatnonzero(np.abs(f) > ZERO_EPS)
    m = support.size
    if m == 0 or n % m != 0:
        return None
    r = n // m
    if not np.array_equal(support, np.arange(m) * r):
        return None
    g = f[::r]
    mag = np.abs(g)
    re_psi = np.fft.fft(np.log(mag)).real / m
    lam = max(0.0, -float(re_psi[0]))
    e = re_psi[1:]  # even part of the jump intensities C
    # the masses carry rounding of about 1e-16, so log|g| is good to about
    # 1e-16 / |g| and C to about 1e-16 sum(1 / |g|): the sign tests allow that
    tol_c = tol + 1e-16 * float(np.sum(1.0 / mag))
    if e.size and e.min() < -tol_c:
        return None
    # Im psi is odd, so its values at u = 1..half fix it and carry half the
    # Parseval sum; there the odd part of C is o = (2 / m) S Im psi
    half = (m - 1) // 2
    u = np.arange(m)
    S = np.sin(2 * np.pi * np.outer(u[1 : half + 1], u[1 : half + 1]) / m)
    sq = np.append(np.zeros((half, 1)), S[:, :0:-1] ** 2, axis=1)
    rest = np.sqrt(np.cumsum(sq, axis=1)[:, ::-1]).T  # rest[v, k] = |S[k, v+1:]|
    budget = 0.5 * m * float(np.sum((e + tol_c) ** 2))
    bound = 0.5 * m * (e[:half] + tol_c)
    nodes = iter(range(_BRANCH_NODES))
    for a_rel in range(m):
        phase = np.angle(g * np.exp(-2j * np.pi * a_rel * u / m))
        if m % 2 == 0 and abs(phase[m // 2]) > 1e-7:
            continue  # the half-frequency value must be real positive
        Sx = _odd_part_search(phase[1 : half + 1], budget, S, rest, bound, nodes)
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
    below ZERO_EPS counts as a zero); raises its ValidityError when the
    search passes its bound.  Such laws have shifted fold roots of every
    order.  Roots at a few small orders do not imply a factorization:
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
    """Exhaustive witness for n-fold divisibility: the first law q, over all
    shifts and all branches c of the n_parts-th root of the relabeled spectrum
    in lexicographic order, whose inverse is real and nonnegative to 1e-10
    and whose n_parts-fold pseudo-sum, shifted, is within 1e-8 TV of p; or
    None.  A real inverse needs |c[N - v] - conj(c[v])| <= 2 N 1e-10
    (Parseval), and two branches of one root differ far more, so each free
    frequency v <= N/2 keeps only the branch pairs within 1e-8 of conjugate
    (real roots at v = N/2): at most n_parts^(N // 2) candidates per shift.
    Raises ValidityError when n_parts^(N // 2) N^2, which bounds the
    candidates and the N^2 verifying table, exceeds 2^20."""
    n, n_parts = p.n, as_int(n_parts, "n_parts", 1)
    if (n // 2) * math.log2(n_parts) + 2 * math.log2(n) > math.log2(_ROOT_CELLS):
        raise ValidityError(f"root search too large: {shown(n_parts)}^{n // 2} * {n}^2 > {_ROOT_CELLS}")
    s = _ident(s, n)
    f = _relabeled_spectrum(p, s)
    lut = make_cyclic_lut(n, s)
    t = np.arange(n)
    digit = np.arange(n_parts if n > 1 else 1)  # N = 1: any n_parts passes, no branch is used
    branch = np.exp(2j * np.pi * digit / n_parts)
    for a_rel in range(n):
        target = f * np.exp(-2j * np.pi * a_rel * t / n)
        nz = np.abs(target) > ZERO_EPS
        base = np.zeros(n, dtype=complex)
        base[nz] = np.abs(target[nz]) ** (1.0 / n_parts) * np.exp(
            1j * np.angle(target[nz]) / n_parts
        )
        base[0] = 1.0
        cands = base[None, :]
        for v in np.flatnonzero(nz[1 : n // 2 + 1]) + 1:
            rv, rw = base[v] * branch, base[n - v] * branch
            # whether rw[j] is near conj(rv[i]) depends on (i + j) % n_parts only
            j = (np.argmin(np.abs(rw - np.conj(base[v]))) - digit) % n_parts
            keep = (np.abs(rw[j] - np.conj(rv)) <= 1e-8) & ((2 * v != n) | (digit == j))
            rows = cands.shape[0]
            cands = np.repeat(cands, np.count_nonzero(keep), axis=0)
            cands[:, v], cands[:, n - v] = np.tile(rv[keep], rows), np.tile(rw[j[keep]], rows)
        Q = np.fft.fft(cands, axis=1) / n
        ok = (np.abs(Q.imag).max(axis=1) <= 1e-10) & (Q.real.min(axis=1) >= -1e-10)
        for row in np.flatnonzero(ok):
            root = _unrelabeled(Q[row].real, s)
            folded = power(lut, root, n_parts)
            shifted = convolve(lut, folded, Distribution.point_mass(n, int(s.inv[a_rel])))
            if tv_distance(shifted, p) <= 1e-8:
                return root
    return None
