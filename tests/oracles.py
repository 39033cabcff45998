"""Independent oracles and fixtures shared by the test modules: literal loops
and small builders that the library's fast paths are checked against."""

import functools

import numpy as np

from pseudosum import Distribution


def naive_first_assoc_failure(table):
    """Literal triple loop, the independent oracle for check_associative."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[i][table[j][k]] != table[table[i][j]][k]:
                    return (i, j, k)
    return None


@functools.cache
def associative_tables(n):
    """Every associative n x n table over 0..n-1, as nested lists, found by
    backtracking: cells are filled in row-major order, and each triple
    (i, j, k) is checked once, when the last of its four cells t[i][j],
    t[j][k], t[i][t[j][k]] and t[t[i][j]][k] is filled.  Cached, so callers
    must not change the lists."""
    t = [[0] * n for _ in range(n)]
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    out = []

    def holds(c):
        # cells at row-major position <= c are filled; check the triples
        # whose last cell to be filled is c
        for i, j, k in triples:
            ij, jk = i * n + j, j * n + k
            if ij > c or jk > c:
                continue
            left, right = i * n + t[j][k], t[i][j] * n + k
            if left <= c and right <= c and c in (ij, jk, left, right) and t[i][t[j][k]] != t[t[i][j]][k]:
                return False
        return True

    def fill(c):
        if c == n * n:
            out.append([row[:] for row in t])
            return
        for v in range(n):
            t[c // n][c % n] = v
            if holds(c):
                fill(c + 1)

    fill(0)
    return out


def brute_force_fold_law(table, p, m):
    """Law of the left fold x_1 (+) ... (+) x_m of i.i.d. draws from p, summed
    over all N^m draw sequences; m = 0 is the point mass at the table's
    identity, found by a literal search."""
    n = len(table)
    if m == 0:
        e = next(e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n)))
        return np.eye(n)[e]
    t = np.asarray(table)
    seqs = np.indices((n,) * m).reshape(m, -1)
    acc = seqs[0]
    for step in seqs[1:]:
        acc = t[acc, step]
    return np.bincount(acc, weights=np.prod(np.asarray(p)[seqs], axis=0), minlength=n)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def random_law(rng, n):
    kind = rng.integers(4)
    if kind == 0:
        return Distribution(rng.dirichlet(np.ones(n)))
    if kind == 1:
        return Distribution.point_mass(n, int(rng.integers(n)))
    if kind == 2:
        d = int(rng.choice(divisors(n)))
        a = int(rng.integers(n))
        return Distribution.uniform(n, [(a + j * d) % n for j in range(n // d)])
    size = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=size, replace=False)
    w = np.zeros(n)
    w[support] = rng.dirichlet(np.ones(size))
    return Distribution(w)


def near_uniform_law(n, seed, eps):
    """The uniform law on n points plus uniform noise of size eps, normalized."""
    q = 1 / n + np.random.default_rng(seed).uniform(0, eps, n)
    return Distribution(q / q.sum())


def s3_table():
    """The composition table of the symmetric group S_3: associative, not
    commutative."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    return np.array([[perms.index(tuple(a[b[k]] for k in range(3))) for b in perms] for a in perms])


def cyclic_max_product(k, l, s=None):
    """Z_k x ({0..l-1}, max), element (a, b) at index a*l + b, or at index
    s[a*l + b] when a permutation s is given: associative."""
    a, b = np.divmod(np.arange(k * l), l)
    table = ((a[:, None] + a[None, :]) % k) * l + np.maximum.outer(b, b)
    if s is None:
        return table
    out = np.empty_like(table)
    out[np.ix_(s, s)] = s[table]
    return out
