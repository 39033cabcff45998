"""The max pseudo-summation: CDF products, max-stability, and n-th roots.

Everything here works on laws in alphabet index order, takes no table, and
assumes the alphabet is sorted ascending (the canonical alphabet 0..n-1
is): the table is the one `lut.make_max_lut` builds, which takes the larger
index.  A max table under any other relabeling is recognized by
`lut.structure`, whose labels.s gives each element its rank; callers with
unsorted alphabets should relabel to ranks first.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidityError, shown
from .dist import SUM_TOL, Distribution
from .lut import MASS_EPS, as_array, as_index, as_int, same_n


class Cdf:
    """Cumulative probabilities F_k = Pr(X <= x_k) in index order, checked
    within SUM_TOL; the last is set to 1."""

    def __init__(self, F):
        arr = as_array(F, "cdf")
        if (np.diff(arr) < -SUM_TOL).any():
            raise ValidityError("cdf must be non-decreasing")
        if arr.min() < -SUM_TOL or arr.max() > 1.0 + SUM_TOL:
            raise ValidityError("cdf values must lie in [0, 1]")
        if abs(arr[-1] - 1.0) > SUM_TOL:
            raise ValidityError(f"cdf must end at 1, got {shown(float(arr[-1]))}")
        arr = np.clip(arr, 0.0, 1.0)
        arr[-1] = 1.0
        arr.setflags(write=False)
        self.F = arr

    @property
    def n(self) -> int:
        return int(self.F.size)

    @classmethod
    def from_distribution(cls, p: Distribution) -> "Cdf":
        return cls(np.cumsum(p.p))

    def to_distribution(self) -> Distribution:
        steps = np.diff(self.F, prepend=0.0)
        return Distribution(np.clip(steps, 0.0, None))


def max_convolve(p: Distribution, q: Distribution) -> Distribution:
    """Law of max(X, Y) for independent X ~ p, Y ~ q: the CDF is the product
    of the CDFs."""
    same_n("distribution size", p.n, q.n)
    return Cdf(np.cumsum(p.p) * np.cumsum(q.p)).to_distribution()


def max_stable_set(n: int) -> list[Distribution]:
    """All laws fixed by max-self-convolution: exactly the n point masses."""
    n = as_int(n, "n", 1)
    return [Distribution.point_mass(n, k) for k in range(n)]


def max_doa(p: Distribution, x: int) -> bool:
    """Whether p is attracted to the point mass at x under max folding:
    mass at most MASS_EPS above x, and more at or above x.  Both tails come
    from one cumulative sum, which never decreases, so exactly one x passes."""
    x = as_index(x, p.n, "x")
    tail = np.append(np.cumsum(p.p[::-1])[::-1], 0.0)  # tail[k]: the mass at or above k
    return bool(tail[x + 1] <= MASS_EPS < tail[x])


def max_nth_root(p: Distribution, n_parts: int) -> Distribution:
    """The law whose n_parts-fold max equals p: CDF raised to 1/n_parts.

    Always exists (every law is infinitely divisible under max); zero CDF
    entries stay zero.  The exponent is an int division, which rounds once
    and reaches 0.0 past the float range: the point mass at the lowest
    index of positive mass.
    """
    n_parts = as_int(n_parts, "n_parts", 1)
    F = np.cumsum(p.p)
    return Cdf(np.where(F > 0.0, F ** (1 / n_parts), 0.0)).to_distribution()
