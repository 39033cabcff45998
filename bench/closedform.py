"""closed-form: cyclic-theory and max queries on random laws through
random permutations.

Why: the cyclic layer does almost all the work here and the table kernel
almost none, so this is the bypass workload for table-fold and the target
for a closed-form domain of attraction.  The domain-of-attraction scan is
O(N^2) per divisor, so N = 360 dominates; near-uniform laws at N = 60 send
decompose_id into its exhaustive log-branch search.

Left out on purpose, for run length only: decompose_id on random laws at
N = 360 (92.8 s for one call, measured) and on near-uniform laws at N = 90
(about 35 s) and N = 240 (7-26 s).
"""

from __future__ import annotations

import numpy as np

import reference as ref
from common import Query, dirichlet, divisors, tv_check

SIZES = (31, 60, 101, 120, 211, 360)
RANDOM_DECOMPOSE_MAX_N = 211
LIMIT_CHECK_MAX_N = 120
NEAR_UNIFORM = (60, 20.0)  # (N, Dirichlet concentration)
ORACLE_CASES = ((8, 4, "id"), (8, 3, "random"), (6, 4, "random"), (4, 2, "random"))
MAX_SIZES = (64, 512, 4096)
POOL = 6
DOA_KINDS = ("dense", "subgroup", "coset")


class Workload:
    def __init__(self, ps, tracer, rng, workdir):
        self.ps, self.tr, self.rng = ps, tracer, rng

    def setup(self) -> None:
        ps, rng = self.ps, self.rng
        self.perm = {n: rng.permutation(n) for n in SIZES + (4, 6, 8)}
        self.P = {n: ps.Permutation(s) for n, s in self.perm.items()}
        # limit is the reference for doa_attractor at small N
        self.luts = {n: ps.make_cyclic_lut(n, self.P[n]) for n in SIZES if n <= LIMIT_CHECK_MAX_N}
        self.inputs = [self._draw(r) for r in range(POOL)]

    def _law(self, n: int, kind: str):
        """A law with a known attractor index m (None: no attractor)."""
        s, rng = self.perm[n], self.rng
        if kind == "dense":
            return dirichlet(rng, n), 1
        m = divisors(n)[1]  # smallest prime factor
        a = 0 if kind == "subgroup" else int(rng.integers(1, m))
        on = (s - a) % m == 0
        p = np.zeros(n)
        p[on] = dirichlet(rng, int(on.sum()))
        return p, (m if kind == "subgroup" else None)

    def _id_law(self, n: int, m: int):
        """An infinitely divisible law, built by construct_id."""
        ps, rng = self.ps, self.rng
        d = ps.IdDecomposition(a=int(rng.integers(n)), m=m, lam=float(rng.uniform(0.2, 1.5)),
                               jump=ps.Distribution(dirichlet(rng, n)))
        return self.tr.call("cyclic.construct_id", {"n": n}, ps.construct_id, d, self.P[n])

    def _draw(self, r: int) -> dict:
        ps, rng, D = self.ps, self.rng, self.ps.Distribution
        per_n = {}
        for n in SIZES:
            ind_p, ind_m = self._law(n, DOA_KINDS[(r + SIZES.index(n)) % 3])
            id_law = self._id_law(n, int(rng.choice(divisors(n))))
            stable_m = int(rng.choice(divisors(n)))
            per_n[n] = {
                "doa": [(D(p), m) for p, m in (self._law(n, kind) for kind in DOA_KINDS)],
                "in_doa": (D(ind_p), ind_m),
                "id": id_law,
                "random": D(dirichlet(rng, n)),
                "spectrum": D(dirichlet(rng, n)),
                "classify": [(D(ref.stable_law(self.perm[n], stable_m)), stable_m),
                             (D(dirichlet(rng, n)), None)],
            }
        n_nu, conc = NEAR_UNIFORM
        oracle = []
        for n, k, kind in ORACLE_CASES:
            law = self._id_law(n, n) if kind == "id" else D(dirichlet(rng, n))
            oracle.append((n, k, kind, law))
        maxq = []
        for i, n in enumerate(MAX_SIZES):
            j = int(rng.integers(n // 2, n))
            trunc = np.zeros(n)
            trunc[: j + 1] = dirichlet(rng, j + 1)
            maxq.append((D(dirichlet(rng, n)), D(dirichlet(rng, n)), int(rng.integers(2, 9)),
                         D(trunc), j - (r + i) % 2))
        return {"per_n": per_n, "near_uniform": D(dirichlet(rng, n_nu, conc)),
                "oracle": oracle, "max": maxq}

    def round(self, r: int) -> list[Query]:
        inp = self.inputs[r % POOL]
        qs = []
        for n in SIZES:
            x = inp["per_n"][n]
            qs.extend(self._doa(n, p, m) for p, m in x["doa"])
            p, m = x["in_doa"]
            qs.extend(self._in_doa(n, p, m, d) for d in divisors(n))
            qs.append(self._decompose_id(n, x["id"], must_factor=True))
            if n <= RANDOM_DECOMPOSE_MAX_N:
                qs.append(self._decompose_id(n, x["random"]))
            qs.extend(self._spectrum_round_trip(n, x["spectrum"]))
            qs.append(self._enumerate(n))
            qs.extend(self._classify(n, p, m) for p, m in x["classify"])
        qs.append(self._decompose_id(NEAR_UNIFORM[0], inp["near_uniform"]))
        qs.extend(self._oracle(*case) for case in inp["oracle"])
        for p, q, k, trunc, x in inp["max"]:
            qs.extend(self._max(p, q, k, trunc, x))
        return qs

    def _doa(self, n, p, m_expected) -> Query:
        ps, tr, s = self.ps, self.tr, self.P[n]

        def check(law):
            got = None if law is None else law.m
            if got != m_expected:
                return f"doa_attractor N={n}: attractor m={got}, built for m={m_expected}"
            if n <= LIMIT_CHECK_MAX_N:
                res = tr.call("dist.limit", {"n": n}, ps.limit, self.luts[n], p)
                if (res.status == ps.CONVERGED) != (law is not None):
                    return f"doa_attractor N={n}: m={got} but limit says {res.status}"
                if law is not None and ref.tv(res.dist.p, ref.stable_law(self.perm[n], law.m)) > 1e-9:
                    return f"doa_attractor N={n}: limit converged elsewhere than m={got}"
            return None

        return Query(f"doa_attractor.n{n}",
                     lambda: tr.call("cyclic.doa_attractor", {"n": n}, ps.doa_attractor, p, s), check)

    def _in_doa(self, n, p, m_expected, d) -> Query:
        ps, tr, s = self.ps, self.tr, self.P[n]
        target = ps.StableLaw(d, n // d)
        want = d == m_expected

        def check(out):
            return None if out == want else f"in_doa N={n} target m={d}: got {out}, built for m={m_expected}"

        return Query(f"in_doa.n{n}",
                     lambda: tr.call("cyclic.in_doa", {"n": n}, ps.in_doa, p, target, s), check)

    def _decompose_id(self, n, p, must_factor=False) -> Query:
        ps, tr, s = self.ps, self.tr, self.P[n]
        perm = self.perm[n]

        def check(d):
            if d is None:
                return f"decompose_id N={n}: law built by construct_id did not factor" if must_factor else None
            return tv_check(ref.construct_id(perm, d.a, d.m, d.lam, d.jump.p), p.p, 1e-7,
                            f"decompose_id N={n} reproduction")

        kind = "id" if must_factor else "random"
        return Query(f"decompose_id.{kind}.n{n}",
                     lambda: tr.call("cyclic.decompose_id", {"n": n}, ps.decompose_id, p, s), check)

    def _spectrum_round_trip(self, n, p) -> list[Query]:
        ps, tr, s = self.ps, self.tr, self.P[n]
        perm = self.perm[n]
        box = {}

        def run_spectrum():
            box["F"] = tr.call("cyclic.spectrum", {"n": n}, ps.spectrum, p, s)
            return box["F"]

        def check_spectrum(F):
            err = float(np.abs(F.f - ref.spectrum(perm, p.p)).max())
            return None if err <= 1e-9 else f"spectrum N={n}: max error {err:.3g}"

        return [
            Query(f"spectrum.n{n}", run_spectrum, check_spectrum),
            Query(f"from_spectrum.n{n}",
                  lambda: tr.call("cyclic.from_spectrum", {"n": n}, ps.from_spectrum, box["F"], s),
                  lambda q: tv_check(q.p, p.p, 1e-9, f"from_spectrum N={n} round trip")),
        ]

    def _enumerate(self, n) -> Query:
        ps, tr, s = self.ps, self.tr, self.P[n]
        perm = self.perm[n]

        def check(laws):
            ms = [law.m for law, _ in laws]
            if ms != divisors(n)[::-1]:
                return f"enumerate_stable N={n}: indices {ms}"
            for law, dist in laws:
                if ref.tv(dist.p, ref.stable_law(perm, law.m)) > 1e-12:
                    return f"enumerate_stable N={n}: law m={law.m} is not the subgroup uniform"
            return None

        return Query(f"enumerate_stable.n{n}",
                     lambda: tr.call("cyclic.enumerate_stable", {"n": n}, ps.enumerate_stable, n, s), check)

    def _classify(self, n, p, m) -> Query:
        ps, tr, s = self.ps, self.tr, self.P[n]

        def check(law):
            got = None if law is None else law.m
            return None if got == m else f"classify_stable N={n}: got m={got}, built m={m}"

        return Query(f"classify_stable.n{n}",
                     lambda: tr.call("cyclic.classify_stable", {"n": n}, ps.classify_stable, p, s), check)

    def _oracle(self, n, k, kind, p) -> Query:
        ps, tr, s = self.ps, self.tr, self.P[n]
        perm = self.perm[n]

        def check(root):
            if root is None:
                # infinitely divisible laws have roots of every order
                return f"nth_root_oracle N={n} k={k}: no root of an ID law" if kind == "id" else None
            if not ref.shifted_fold_matches(perm, root.p, k, p.p, 1e-8):
                return f"nth_root_oracle N={n} k={k}: shifted fold of the root misses the law"
            return None

        return Query(f"nth_root_oracle.n{n}.k{k}",
                     lambda: tr.call("cyclic.nth_root_oracle", {"n": n}, ps.nth_root_oracle, p, k, s), check)

    def _max(self, p, q, k, trunc, x) -> list[Query]:
        ps, tr, n = self.ps, self.tr, p.n

        def check_doa(out):
            want = bool(trunc.p[x] > 0.0 and trunc.p[x + 1:].sum() <= 1e-12)
            return None if out == want else f"max_doa N={n} x={x}: got {out}, reference {want}"

        return [
            Query(f"max_convolve.n{n}",
                  lambda: tr.call("extremal.max_convolve", {"n": n}, ps.max_convolve, p, q),
                  lambda out: tv_check(out.p, ref.max_conv(p.p, q.p), 1e-9, f"max_convolve N={n}")),
            Query(f"max_nth_root.n{n}",
                  lambda: tr.call("extremal.max_nth_root", {"n": n}, ps.max_nth_root, p, k),
                  lambda out: tv_check(ref.power_max(out.p, k), p.p, 1e-9, f"max_nth_root N={n} k={k}")),
            Query(f"max_doa.n{n}",
                  lambda: tr.call("extremal.max_doa", {"n": n}, ps.max_doa, trunc, x), check_doa),
        ]
