"""Runs one workload in this process: set-up, the timed closed loop, the
answer checks and, with --trace 1, the spans.  Started by run.py; prints one
JSON object as its last line.

The loop has one client: the next query starts only after the previous one
returns.  Queries come in rounds of a fixed mix, and the run ends after the
first whole round that brings the timed total to --seconds.  Each call is
timed from outside the library, and its answer is checked afterwards,
outside the timed region.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import spans

STARTED = time.monotonic()  # set-up is timed from here: only the standard library is loaded

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = {"table-fold": "tablefold", "closed-form": "closedform", "simulate": "simulate", "cli": "cliload"}
MAX_WALL_FACTOR = 2.5  # stop starting rounds once checks have made the run this much longer


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MODULES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up and report its time")
    return ap.parse_args(argv)


def _verdict(q, out, exc) -> str | None:
    if exc is not None:
        return f"{q.kind}: raised {type(exc).__name__}: {exc}"
    try:
        return q.check(out)
    except Exception as err:  # a check that cannot read the answer fails the query
        return f"{q.kind}: check raised {type(err).__name__}: {err}"


def _loop(wl, tr, seconds: float, rounds: int | None = None) -> dict:
    """Run whole rounds until the timed total of all calls reaches `seconds`
    (or exactly `rounds` rounds), calling each query once and checking its
    answer after the call."""
    lat, failures = [], []
    start = time.monotonic()
    r = 0
    while (rounds is None and sum(lat) < seconds and time.monotonic() - start < MAX_WALL_FACTOR * seconds) or (
        rounds is not None and r < rounds
    ):
        tr.round = r
        for q in wl.round(r):
            tr.query, tr.phase = len(lat), "query"
            with tr.span("bench.query", {"kind": q.kind}):
                t = time.perf_counter()
                try:
                    out, exc = q.run(), None
                except Exception as e:  # no query here should raise; _verdict fails it
                    out, exc = None, e
                lat.append(time.perf_counter() - t)
            tr.phase = "check"
            msg = _verdict(q, out, exc)
            if msg:
                failures.append(msg)
        r += 1
    return {"lat": lat, "failures": failures, "rounds": r}


def _peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux; for cli, the largest child process
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse(argv)
    tr = spans.Tracer(args.trace == 1)
    src = ROOT / "src"
    with tr.span("setup.import"):  # not a layer: the cli layer's import is the children's
        sys.path.insert(0, str(src))
        import pseudosum as ps
    if Path(ps.__file__).resolve().parent != src / "pseudosum":
        print(f"bench: imported pseudosum from {ps.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy as np

    module = importlib.import_module(MODULES[args.workload])
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = module.Workload(ps, tr, np.random.default_rng(args.seed), workdir)
        wl.setup()
        setup_s = time.monotonic() - STARTED
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = _loop(wl, tr, args.seconds)
        lat = run["lat"]
        busy = sum(lat)
        result = {"setup_s": setup_s, "attempted": len(lat), "failures": run["failures"],
                  "rounds": run["rounds"]}
        if args.trace:
            # the same rounds again, untraced, to price the tracing
            tr.enabled = False
            plain = _loop(wl, tr, args.seconds, rounds=run["rounds"])
            result["attempted"] += len(plain["lat"])
            result["failures"] += plain["failures"]
            metrics = spans.per_layer(tr.spans)
            metrics["trace.overhead_s"] = busy - sum(plain["lat"])
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / sum(plain["lat"])
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tr.dump(path, metrics)
            result["trace_file"] = str(path.relative_to(ROOT))
        else:
            lat_ms = np.asarray(lat) * 1e3
            metrics = {
                "queries_per_s": len(lat) / busy,
                "query_p50_ms": float(np.percentile(lat_ms, 50)),
                "query_p90_ms": float(np.percentile(lat_ms, 90)),
                "peak_rss_mb": _peak_rss_mb(args.workload),
            }
            if args.workload == "simulate":
                draws = sum(trials * m for _, m, trials in module.CASES) * 2  # two partitions per case
                metrics["draws_per_s"] = draws * run["rounds"] / busy
        result["metrics"] = metrics
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
