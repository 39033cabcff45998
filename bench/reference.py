"""Independent reference answers for the benchmark's checks.

Nothing here calls pseudosum: every kernel is written from the definitions
so that a check compares the library against a separate implementation.
Checks run outside the timed region.
"""

from __future__ import annotations

import numpy as np


def tv(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def conv(table: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Law of X (+) Y through any table, by weighted bincount."""
    return np.bincount(table.ravel(), weights=np.outer(p, q).ravel(), minlength=p.size)


def power_generic(table: np.ndarray, p: np.ndarray, m: int) -> np.ndarray:
    """m-fold law by right-to-left doubling with the bincount kernel."""
    acc = None
    base = p
    while m:
        if m & 1:
            acc = base if acc is None else conv(table, base, acc)
        m >>= 1
        if m:
            base = conv(table, base, base)
    return acc


def power_cyclic(s: np.ndarray, p: np.ndarray, m: int) -> np.ndarray:
    """m-fold law for x (+) y = s_inv[(s[x] + s[y]) % N]: f^m by FFT."""
    q = np.empty(p.size)
    q[s] = p
    r = np.fft.ifft(np.fft.fft(q) ** m).real
    return np.clip(r, 0.0, None)[s]


def power_max(p: np.ndarray, m: int) -> np.ndarray:
    """m-fold law for x (+) y = max(x, y): the CDF raised to m."""
    F = np.cumsum(p)
    F[-1] = 1.0
    return np.diff(F**m, prepend=0.0)


def spectrum(s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """f(t) = sum_k p_k exp(2 pi i s[k] t / N), from the definition."""
    n = p.size
    t = np.arange(n)
    return np.exp(2j * np.pi * np.outer(t, s) / n) @ p


def stable_law(s: np.ndarray, m: int) -> np.ndarray:
    """Uniform law on the subgroup of index m, in original labels."""
    on = (s % m) == 0
    return on / on.sum()


def construct_id(s: np.ndarray, a: int, m: int, lam: float, jump: np.ndarray) -> np.ndarray:
    """Law of shift a (+) uniform on the index-m subgroup (+) compound
    Poisson(lam, jump), from its spectrum."""
    n = s.size
    t = np.arange(n)
    F = np.exp(2j * np.pi * s[a] * t / n) * (t % (n // m) == 0) * np.exp(lam * (spectrum(s, jump) - 1.0))
    q = np.fft.fft(F).real / n
    return np.clip(q, 0.0, None)[s]


def shifted_fold_matches(s: np.ndarray, root: np.ndarray, k: int, p: np.ndarray, tol: float) -> bool:
    """Whether some point shift of the k-fold cyclic law of root equals p."""
    folded = power_cyclic(s, root, k)
    q = np.empty(p.size)
    q[s] = folded
    target = np.empty(p.size)
    target[s] = p
    return any(tv(np.roll(q, a), target) <= tol for a in range(p.size))


def is_fixed_point(table: np.ndarray, q: np.ndarray, p: np.ndarray, tol: float) -> bool:
    """q (+) q == q and q (+) p == q under the bincount kernel."""
    return tv(conv(table, q, q), q) <= tol and tv(conv(table, q, p), q) <= tol


def max_conv(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Law of max(X, Y): generic kernel up to N = 512, CDF product above."""
    n = p.size
    if n <= 512:
        idx = np.arange(n)
        return conv(np.maximum.outer(idx, idx), p, q)
    return np.diff(np.cumsum(p) * np.cumsum(q), prepend=0.0)


def mc_tv_bound(n: int, trials: int, delta: float = 1e-9) -> float:
    """Bound on the TV distance between an empirical histogram of `trials`
    i.i.d. draws on n points and its law, failing with probability < delta:
    E[TV] <= sqrt(n / trials) / 2, plus McDiarmid's deviation term."""
    return 0.5 * np.sqrt(n / trials) + np.sqrt(np.log(1.0 / delta) / (2.0 * trials))
