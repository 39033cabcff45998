"""table-fold: a library session over fixed tables, each built once and
queried many times with power, limit, convolve and is_stable.

Why: the table kernel (_convolve_raw) does most of the work here and the
associativity check is paid once per table, in set-up.  The cyclic and max
tables are where structure-specific kernels would show; the product and
absorbing tables have neither structure and keep the generic path honest.
"""

from __future__ import annotations

import reference as ref
from common import Query, Table, tv_check

SIZES = (16, 64, 256)
KINDS = ("cyclic", "max", "product", "absorbing")
POOL = 8  # rounds of distinct inputs; longer runs cycle through them
POWER_STRATA = ((1, 5), (5, 10), (10, 15), (15, 20))  # log2 m, one draw each


class Workload:
    def __init__(self, ps, tracer, rng, workdir):
        self.ps, self.tr, self.rng = ps, tracer, rng

    def setup(self) -> None:
        ps, tr, rng = self.ps, self.tr, self.rng
        self.tables = []
        for n in SIZES:
            for kind in KINDS:
                t = Table(kind, n, rng)
                if kind == "cyclic":
                    t.lut = tr.call("cyclic.make_cyclic_lut", {"n": n}, ps.make_cyclic_lut, n, ps.Permutation(t.s))
                elif kind == "max":
                    t.lut = tr.call("extremal.make_max_lut", {"n": n}, ps.make_max_lut, n)
                else:
                    t.lut = ps.LutTable(ps.Alphabet.canonical(n), t.table)
                # the one associativity check per table
                if not tr.call("lut.is_associative", {"n": n}, ps.is_associative, t.lut):
                    raise RuntimeError(f"{kind} table at N={n} is not associative")
                self.tables.append(t)
        self.inputs = [[self._draw(t) for t in self.tables] for _ in range(POOL)]

    def _draw(self, t: Table) -> dict:
        rng, D = self.rng, self.ps.Distribution
        ms = [int(round(2 ** rng.uniform(lo, hi))) for lo, hi in POWER_STRATA]
        return {
            "power": [(D(t.dense(rng)), max(2, min(m, 2**20))) for m in ms],
            "convolve": [(D(t.dense(rng)), D(t.dense(rng))), (D(t.dense(rng)), D(t.periodic(rng)))],
            "is_stable": [(D(t.dense(rng)), False), (D(t.stable(rng)), True)],
            "limit": [(D(t.dense(rng)), "dense"), (D(t.periodic(rng)), "periodic")],
        }

    def round(self, r: int) -> list[Query]:
        qs = []
        for t, inp in zip(self.tables, self.inputs[r % POOL]):
            for p, m in inp["power"]:
                qs.append(self._power(t, p, m))
            for p, q in inp["convolve"]:
                qs.append(self._convolve(t, p, q))
            for p, stable in inp["is_stable"]:
                qs.append(self._is_stable(t, p, stable))
            for p, kind in inp["limit"]:
                qs.append(self._limit(t, p, kind))
        return qs

    def _power(self, t, p, m) -> Query:
        ps, tr = self.ps, self.tr
        return Query(
            f"power.n{t.n}",
            lambda: tr.call("dist.power", {"n": t.n, "m": m}, ps.power, t.lut, p, m),
            lambda out: tv_check(out.p, t.power_ref(p.p, m), 1e-9, f"power {t.kind} N={t.n} m={m}"),
        )

    def _convolve(self, t, p, q) -> Query:
        ps, tr = self.ps, self.tr
        return Query(
            f"convolve.n{t.n}",
            lambda: tr.call("dist.convolve", {"n": t.n}, ps.convolve, t.lut, p, q),
            lambda out: tv_check(out.p, ref.conv(t.table, p.p, q.p), 1e-9, f"convolve {t.kind} N={t.n}"),
        )

    def _is_stable(self, t, p, expected) -> Query:
        ps, tr = self.ps, self.tr

        def check(out):
            want = ref.tv(ref.conv(t.table, p.p, p.p), p.p) <= 1e-12
            if out != want or want != expected:
                return f"is_stable {t.kind} N={t.n}: got {out}, reference {want}, built {expected}"
            return None

        return Query(
            f"is_stable.n{t.n}",
            lambda: tr.call("dist.is_stable", {"n": t.n}, ps.is_stable, t.lut, p),
            check,
        )

    def _limit(self, t, p, kind) -> Query:
        ps, tr = self.ps, self.tr
        # a law on a coset off its subgroup cannot converge; a dense law
        # (and a max-table law on 0..j) converges
        want = ps.CYCLE if kind == "periodic" and t.kind != "max" else ps.CONVERGED

        def check(res):
            if res.status != want:
                return f"limit {t.kind} N={t.n} {kind}: status {res.status}, expected {want}"
            if res.status == ps.CONVERGED and not ref.is_fixed_point(t.table, res.dist.p, p.p, 1e-9):
                return f"limit {t.kind} N={t.n} {kind}: converged law is not a fixed point"
            return None

        return Query(
            f"limit.n{t.n}",
            lambda: tr.call("dist.limit", {"n": t.n}, ps.limit, t.lut, p),
            check,
        )
