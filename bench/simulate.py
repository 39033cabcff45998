"""simulate: seeded Monte Carlo of m-fold sums with empirical_fold.

Why: the montecarlo layer dominates here.  empirical_fold holds all
trials * m draws at once, so peak memory grows with the largest case;
block-wise draws should lower peak_rss_mb without lowering the draw rate,
and this workload shows both sides of that trade.  Each case runs on one
worker and again on three, whose histograms must be bit-identical.
"""

from __future__ import annotations

import reference as ref
from common import Query, Table, tv_check

CASES = ((8, 64, 200_000), (64, 32, 200_000), (256, 8, 400_000))  # (N, m, trials)
KINDS = ("cyclic", "max", "unstructured")
SECOND_PARTITION = 3  # workers
POOL = 6


class Workload:
    def __init__(self, ps, tracer, rng, workdir):
        self.ps, self.tr, self.rng = ps, tracer, rng

    def setup(self) -> None:
        ps, rng = self.ps, self.rng
        self.tables = {}
        for n, _, _ in CASES:
            for kind in KINDS:
                # N = 8 is not a square, so its unstructured table is Z_7 plus an absorbing point
                real = kind if kind != "unstructured" else ("absorbing" if n == 8 else "product")
                t = Table(real, n, rng)
                t.lut = ps.LutTable(ps.Alphabet.canonical(n), t.table)
                self.tables[n, kind] = t
        self.inputs = [
            [(ps.Distribution(self.tables[n, KINDS[(i + r) % 3]].dense(rng)), int(rng.integers(2**63)))
             for i, (n, _, _) in enumerate(CASES)]
            for r in range(POOL)
        ]
        self.exact = {}

    def round(self, r: int) -> list[Query]:
        qs = []
        for i, ((n, m, trials), (p, seed)) in enumerate(zip(CASES, self.inputs[r % POOL])):
            t = self.tables[n, KINDS[(i + r) % 3]]
            cfg = self.ps.SimConfig(seed=seed, trials=trials, m=m)
            qs.extend(self._pair(t, p, cfg))
        return qs

    def _exact(self, t, p, m):
        """The exact law from the reference kernel, once per input.  Not the
        library's power: its associativity check would set this workload's
        peak memory."""
        key = (id(t), id(p), m)
        if key not in self.exact:
            self.exact[key] = t.power_ref(p.p, m)
        return self.exact[key]

    def _pair(self, t, p, cfg) -> list[Query]:
        ps, tr = self.ps, self.tr
        first = {}
        attrs = {"n": t.n, "m": cfg.m, "trials": cfg.trials}

        def check_first(emp):
            first["p"] = emp.p
            exact = self._exact(t, p, cfg.m)
            bound = ref.mc_tv_bound(t.n, cfg.trials)
            return tv_check(emp.p, exact, bound, f"empirical_fold {t.kind} N={t.n} m={cfg.m}")

        def check_second(emp):
            if "p" in first and (emp.p == first["p"]).all():
                return None
            return f"empirical_fold {t.kind} N={t.n}: histogram differs across worker partitions"

        return [
            Query(f"empirical_fold.n{t.n}.w1",
                  lambda: tr.call("montecarlo.empirical_fold", attrs, ps.empirical_fold, t.lut, p, cfg),
                  check_first),
            Query(f"empirical_fold.n{t.n}.w{SECOND_PARTITION}",
                  lambda: tr.call("montecarlo.empirical_fold", attrs, ps.empirical_fold, t.lut, p, cfg,
                                  workers=SECOND_PARTITION),
                  check_second),
        ]
