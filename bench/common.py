"""Queries, test tables and laws shared by the workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import reference as ref


@dataclass
class Query:
    """One timed call.  `run` makes the call; `check` gets its result outside
    the timed region and returns None or a failure message."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def dirichlet(rng, n: int, conc: float = 1.0) -> np.ndarray:
    return rng.dirichlet(np.full(n, conc))


def tv_check(got, want, tol: float, what: str) -> str | None:
    d = ref.tv(got, want)
    return None if d <= tol else f"{what}: TV {d:.3g} to reference > {tol:g}"


class Table:
    """A test table with what its checks need: the index array, its kind,
    and laws with known fold behaviour.

    Kinds: ``cyclic`` (modular addition through permutation s), ``max``,
    and two associative tables with neither structure, hidden behind a
    random relabeling sigma: ``product`` (Z_k through a permutation, times
    max on k points; N = k^2) and ``absorbing`` (Z_{N-1} through a
    permutation plus one absorbing element).
    """

    def __init__(self, kind: str, n: int, rng):
        self.kind, self.n = kind, n
        self.s = self.sigma = None
        if kind == "cyclic":
            self.s = rng.permutation(n)
            self.k, self.t = n, self.s
            inv = np.argsort(self.s)
            self.table = inv[(self.s[:, None] + self.s[None, :]) % n]
        elif kind == "max":
            idx = np.arange(n)
            self.table = np.maximum.outer(idx, idx)
        elif kind == "product":
            k = int(round(n**0.5))
            assert k * k == n
            self.k, self.t = k, rng.permutation(k)
            inv = np.argsort(self.t)
            cyc = inv[(self.t[:, None] + self.t[None, :]) % k]
            a, b = np.divmod(np.arange(n), k)
            self._structured(rng, cyc[a[:, None], a[None, :]] * k + np.maximum.outer(b, b))
        elif kind == "absorbing":
            k = n - 1
            self.k, self.t = k, rng.permutation(k)
            inv = np.argsort(self.t)
            base = np.full((n, n), k)
            base[:k, :k] = inv[(self.t[:, None] + self.t[None, :]) % k]
            self._structured(rng, base)
        else:
            raise ValueError(kind)

    def _structured(self, rng, base: np.ndarray) -> None:
        self.sigma = rng.permutation(self.n)
        out = np.empty_like(base)
        out[np.ix_(self.sigma, self.sigma)] = self.sigma[base]
        self.table = out

    def _place(self, structured: np.ndarray) -> np.ndarray:
        if self.sigma is None:
            return structured
        p = np.empty(self.n)
        p[self.sigma] = structured
        return p

    def _subgroup_mask(self, d: int, a: int) -> np.ndarray:
        """Elements x of Z_k (through t) with t[x] in a + dZ_k."""
        return (self.t - a) % d == 0

    def power_ref(self, p: np.ndarray, m: int) -> np.ndarray:
        if self.kind == "cyclic":
            return ref.power_cyclic(self.s, p, m)
        if self.kind == "max":
            return ref.power_max(p, m)
        return ref.power_generic(self.table, p, m)

    def dense(self, rng) -> np.ndarray:
        return dirichlet(rng, self.n)

    def periodic(self, rng) -> np.ndarray:
        """A law whose fold powers do not converge: mass on a coset a + H of
        a proper subgroup H with a not in H.  For the max table, which has
        none, a law on {0..j}: its fold powers converge to the point mass
        at j."""
        n = self.n
        if self.kind == "max":
            j = int(rng.integers(n // 2, n - 1))
            p = np.zeros(n)
            p[: j + 1] = dirichlet(rng, j + 1)
            return p
        d = int(rng.choice(divisors(self.k)[1:-1] or [self.k]))
        return self._on_coset(rng, d, int(rng.integers(1, d)), dirichlet)

    def _on_coset(self, rng, d: int, a: int, weights) -> np.ndarray:
        """A law on the coset a + dZ_k of the cyclic part (at one random max
        coordinate for ``product``), with weights(rng, size) on its points."""
        mask = self._subgroup_mask(d, a)
        P = np.zeros(self.n)
        if self.kind == "product":
            P[np.flatnonzero(mask) * self.k + int(rng.integers(self.k))] = weights(rng, int(mask.sum()))
        else:  # cyclic, absorbing: Z_k is indices 0..k-1
            P[np.flatnonzero(mask)] = weights(rng, int(mask.sum()))
        return self._place(P)

    def stable(self, rng) -> np.ndarray:
        """A stable law: uniform on a subgroup, or a point mass for max."""
        n = self.n
        if self.kind == "max":
            return np.eye(n)[int(rng.integers(n))]
        d = int(rng.choice(divisors(self.k)))
        return self._on_coset(rng, d, 0, lambda rng, size: np.full(size, 1.0 / size))
