"""cli: one `python -m pseudosum` process per query, run one at a time,
across all ten subcommands, on JSON files the benchmark writes.

Why: every process pays interpreter start, `import pseudosum`, JSON parsing
and, for table commands, a fresh associativity check that table-fold
amortizes away.  Small cases (N <= 8, --gen modN / maxN / perm:FILE) are
dominated by start-up; large ones (N = 256 through --lut files and --gen)
by the O(N^3) check, including a non-associative table for `check` and for
`power`, where exit 1 is the correct answer.

Each result is checked against the library's own answer in this process:
the exit code, `"version": 1`, and every number to 12 significant digits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from common import Query, Table, dirichlet

CHILD = Path(__file__).with_name("cli_child.py")
TIMEOUT_S = 60


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def same12(want, got, path="$") -> str | None:
    """None when `got` (parsed CLI output) equals `want` with floats compared
    at 12 significant digits, else where they differ."""
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and _sig12(want) == got
        return None if ok else f"{path}: {got!r} != {_sig12(want)!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for k in want:
            err = same12(want[k], got[k], f"{path}.{k}")
            if err:
                return err
        return None
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (w, g) in enumerate(zip(want, got)):
            err = same12(w, g, f"{path}[{i}]")
            if err:
                return err
        return None
    return None if want == got and type(want) is type(got) else f"{path}: {got!r} != {want!r}"


class Workload:
    def __init__(self, ps, tracer, rng, workdir):
        self.ps, self.tr, self.rng, self.dir = ps, tracer, rng, Path(workdir)
        src = Path(ps.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.expected = {}

    def _write(self, name: str, doc: dict) -> None:
        (self.dir / name).write_text(json.dumps(doc), encoding="utf-8")

    def setup(self) -> None:
        rng = self.rng
        w = self._write
        dist = lambda p: {"n": len(p), "p": list(map(float, p))}  # noqa: E731
        perm = lambda s: {"n": len(s), "s": list(map(int, s))}  # noqa: E731
        lut = lambda t: {"n": len(t), "alphabet": list(range(len(t))), "table": t.tolist()}  # noqa: E731
        prod = Table("product", 256, rng)
        w("prod256.json", lut(prod.table))
        w("rand256.json", lut(rng.integers(0, 256, (256, 256))))
        w("perm8.json", perm(rng.permutation(8)))
        s60 = rng.permutation(60)
        w("perm60.json", perm(s60))
        w("perm360.json", perm(rng.permutation(360)))
        for name, n in (("p8", 8), ("q8", 8), ("p60", 60), ("p256", 256), ("q256", 256)):
            w(f"{name}.json", dist(dirichlet(rng, n)))
        trunc = np.zeros(8)
        j = int(rng.integers(3, 8))
        trunc[: j + 1] = dirichlet(rng, j + 1)
        w("trunc8.json", dist(trunc))
        ps = self.ps
        idd = ps.IdDecomposition(a=int(rng.integers(60)), m=12, lam=float(rng.uniform(0.2, 1.5)),
                                 jump=ps.Distribution(dirichlet(rng, 60)))
        w("id60.json", ps.construct_id(idd, ps.Permutation(s60)).to_json())
        sim_seed = str(int(rng.integers(2**31)))
        self.commands = [
            ["check", "--gen", "mod8"],
            ["check", "--lut", "prod256.json"],
            ["check", "--lut", "rand256.json"],
            ["convolve", "--gen", "max8", "p8.json", "q8.json"],
            ["convolve", "--lut", "prod256.json", "p256.json", "q256.json"],
            ["power", "--gen", "perm:perm8.json", "p8.json", "--m", str(int(rng.integers(2, 5000)))],
            ["power", "--gen", "mod256", "p256.json", "--m", str(int(rng.integers(2, 2**20)))],
            ["power", "--lut", "rand256.json", "p256.json", "--m", "5"],
            ["limit", "--gen", "mod8", "--dist", "p8.json"],
            ["limit", "--lut", "prod256.json", "--dist", "p256.json"],
            ["stable", "--enumerate", "360", "--perm", "perm360.json"],
            ["doa", "--dist", "p60.json", "--perm", "perm60.json"],
            ["doa", "--dist", "p60.json", "--perm", "perm60.json", "--target", "2"],
            ["id", "--dist", "id60.json", "--perm", "perm60.json", "--decompose"],
            ["id", "--dist", "p8.json", "--check"],
            ["spectrum", "--dist", "p60.json", "--perm", "perm60.json"],
            ["max", "--convolve", "p8.json", "q8.json"],
            ["max", "--root", "3", "p256.json"],
            ["max", "--doa", str(j), "trunc8.json"],
            ["simulate", "--gen", "max8", "--dist", "p8.json", "--m", "16", "--trials", "20000",
             "--seed", sim_seed, "--workers", "2", "--compare-exact"],
        ]

    def round(self, r: int) -> list[Query]:
        return [self._query(i, argv) for i, argv in enumerate(self.commands)]

    def _query(self, i: int, argv: list[str]) -> Query:
        tr = self.tr

        def run():
            spanfile = self.dir / f"spans-{i}.json"
            if tr.enabled:
                cmd = [sys.executable, str(CHILD), str(spanfile), *argv]
            else:
                cmd = [sys.executable, "-m", "pseudosum", *argv]
            with tr.span("cli.process", {"command": argv[0]}) as rec:
                proc = subprocess.run(cmd, cwd=self.dir, env=self.env, capture_output=True,
                                      text=True, timeout=TIMEOUT_S)
            if rec is not None:
                tr.adopt(rec, json.loads(spanfile.read_text()))
                spanfile.unlink()
            return proc

        def check(proc):
            if i not in self.expected:
                self.expected[i] = self._reference(argv)
            want_rc, want_doc = self.expected[i]
            if proc.returncode != want_rc:
                return f"{' '.join(argv)}: exit {proc.returncode}, expected {want_rc}: {proc.stderr.strip()[:200]}"
            if want_rc != 0:
                lines = proc.stderr.strip().splitlines()
                ok = len(lines) == 1 and lines[0].startswith(f"pseudosum {argv[0]}:") and not proc.stdout
                return None if ok else f"{' '.join(argv)}: exit {want_rc} without a one-line message"
            try:
                got = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                return f"{' '.join(argv)}: output is not JSON: {exc}"
            if got.get("version") != 1:
                return f"{' '.join(argv)}: version {got.get('version')!r}"
            err = same12(want_doc, got)
            return None if err is None else f"{' '.join(argv)}: {err}"

        return Query(f"cli.{argv[0]}", run, check)

    # -- library reference, one per command, computed on first use ----------

    def _load(self, name):
        return json.loads((self.dir / name).read_text(encoding="utf-8"))

    def _lut(self, argv):
        ps, tr = self.ps, self.tr
        if "--lut" in argv:
            doc = self._load(argv[argv.index("--lut") + 1])
            return tr.call("lut.from_json", {"n": doc["n"]}, ps.LutTable.from_json, doc)
        gen = argv[argv.index("--gen") + 1]
        if gen.startswith("perm:"):
            s = ps.Permutation.from_json(self._load(gen[5:]))
            return ps.make_cyclic_lut(s.n, s)
        n = int(gen[3:])
        return ps.make_mod_lut(n) if gen.startswith("mod") else ps.make_max_lut(n)

    def _dist(self, name):
        return self.ps.Distribution.from_json(self._load(name))

    def _perm(self, argv):
        return self.ps.Permutation.from_json(self._load(argv[argv.index("--perm") + 1])) if "--perm" in argv else None

    def _reference(self, argv):
        """(exit code, result document) that the library gives for argv."""
        ps = self.ps
        try:
            return 0, self._reference_doc(argv)
        except ps.ValidityError:
            return 1, None

    def _reference_doc(self, argv):
        ps, tr = self.ps, self.tr
        cmd = argv[0]
        opt = lambda flag: argv[argv.index(flag) + 1]  # noqa: E731
        dist_doc = lambda d: {"version": 1, "n": d.n, "p": d.p.tolist()}  # noqa: E731
        if cmd == "check":
            lut = self._lut(argv)
            assoc = tr.call("lut.check_associative", {"n": lut.n}, ps.check_associative, lut)
            comm = ps.check_commutative(lut)
            doc = {"version": 1, "n": lut.n, "associative": assoc is None}
            if assoc is not None:
                doc["counterexample"] = list(assoc)
            doc["commutative"] = comm is None
            if comm is not None:
                doc["commutative_counterexample"] = list(comm)
            doc["identity"] = ps.find_identity(lut)
            doc["idempotents"] = ps.find_idempotents(lut)
            return doc
        if cmd == "convolve":
            lut = self._lut(argv)
            p, q = (self._dist(a) for a in argv[-2:])
            return dist_doc(tr.call("dist.convolve", {"n": lut.n}, ps.convolve, lut, p, q))
        if cmd == "power":
            lut, m = self._lut(argv), int(opt("--m"))
            p = self._dist(argv[3])
            return dist_doc(tr.call("dist.power", {"n": lut.n, "m": m}, ps.power, lut, p, m))
        if cmd == "limit":
            lut = self._lut(argv)
            res = tr.call("dist.limit", {"n": lut.n}, ps.limit, lut, self._dist(opt("--dist")))
            doc = {"version": 1, "status": res.status, "doublings": res.doublings}
            if res.status == ps.CONVERGED:
                doc["limit"] = res.dist.p.tolist()
            if res.status == ps.CYCLE:
                doc["period"] = res.period
            return doc
        if cmd == "stable":
            n = int(opt("--enumerate"))
            laws = tr.call("cyclic.enumerate_stable", {"n": n}, ps.enumerate_stable, n, self._perm(argv))
            return {"version": 1, "n": n,
                    "laws": [{"m": law.m, "r": law.r, "p": d.p.tolist()} for law, d in laws]}
        if cmd == "doa":
            p, s = self._dist(opt("--dist")), self._perm(argv)
            if "--target" in argv:
                law = ps.StableLaw(int(opt("--target")), p.n // int(opt("--target")))
                ok = tr.call("cyclic.in_doa", {"n": p.n}, ps.in_doa, p, law, s)
                return {"version": 1, "target": {"m": law.m, "r": law.r}, "in_doa": ok}
            law = tr.call("cyclic.doa_attractor", {"n": p.n}, ps.doa_attractor, p, s)
            return {"version": 1, "attractor": None if law is None else {"m": law.m, "r": law.r}}
        if cmd == "id":
            p, s = self._dist(opt("--dist")), self._perm(argv)
            d = tr.call("cyclic.decompose_id", {"n": p.n}, ps.decompose_id, p, s)
            if "--decompose" in argv:
                dec = None if d is None else {"a": d.a, "m": d.m, "lambda": d.lam, "jump": d.jump.p.tolist()}
                return {"version": 1, "decomposition": dec}
            return {"version": 1, "infinitely_divisible": d is not None}
        if cmd == "spectrum":
            p = self._dist(opt("--dist"))
            f = tr.call("cyclic.spectrum", {"n": p.n}, ps.spectrum, p, self._perm(argv)).f
            return {"version": 1, "n": p.n, "spectrum": [[float(v.real), float(v.imag)] for v in f]}
        if cmd == "max":
            if "--convolve" in argv:
                p, q = (self._dist(a) for a in argv[2:4])
                return dist_doc(tr.call("extremal.max_convolve", {"n": p.n}, ps.max_convolve, p, q))
            if "--root" in argv:
                k, p = int(argv[2]), self._dist(argv[3])
                return dist_doc(tr.call("extremal.max_nth_root", {"n": p.n}, ps.max_nth_root, p, k))
            x, p = int(argv[2]), self._dist(argv[3])
            return {"version": 1, "x": x, "in_doa": tr.call("extremal.max_doa", {"n": p.n}, ps.max_doa, p, x)}
        if cmd == "simulate":
            lut, p = self._lut(argv), self._dist(opt("--dist"))
            cfg = ps.SimConfig(seed=int(opt("--seed")), trials=int(opt("--trials")), m=int(opt("--m")))
            emp = tr.call("montecarlo.empirical_fold", {"n": p.n, "m": cfg.m, "trials": cfg.trials},
                          ps.empirical_fold, lut, p, cfg, workers=int(opt("--workers")))
            exact = ps.power(lut, p, cfg.m)
            return {"version": 1, "n": p.n, "empirical": emp.p.tolist(), "exact": exact.p.tolist(),
                    "tv": ps.tv_distance(emp, exact)}
        raise ValueError(f"no reference for {cmd}")
