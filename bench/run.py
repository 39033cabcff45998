"""pseudosum benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {table-fold,closed-form,simulate,cli} \\
        --seed N [--seconds 40] [--trace 0|1]

Run from anywhere inside a checkout; the library is imported from its
`src/`.  Prints every metric by name with its unit, any failed answer
checks, and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones, and the spans go to bench/out/trace-<workload>-seed<seed>.json.
Exits 1 if any answer check fails, 2 if the library cannot be found.

setup_s is the time in a fresh interpreter to the first timed query, timed
inside the worker: the median of three set-ups, two in probe processes and
one in the measured run.  This file itself imports nothing but the standard
library.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("table-fold", "closed-form", "simulate", "cli")
SETUP_PROBES = 2
DEADLINE_S = 175.0
# pseudosum makes no BLAS call, so numpy's OpenBLAS thread pool does no work
# for it; but the pool starts on import and its threads spin on the second
# core, which made set-up time swing with the host's load.  One BLAS thread
# keeps every process the benchmark starts, cli children included,
# single-threaded.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _run(cmd: list[str], timeout: float) -> tuple[int, str]:
    """Run a worker in its own process group; on timeout kill the group and
    wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=ENV, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"bench: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "pseudosum" / "__init__.py").is_file():
        print(f"bench: no pseudosum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        rc, out = _run(base + ["--probe"], DEADLINE_S - (time.monotonic() - began))
        if rc != 0:
            return rc or 1
        setups.append(_last_json(out)["setup_s"])
    rc, out = _run(
        base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        DEADLINE_S - (time.monotonic() - began),
    )
    if rc != 0:
        return rc or 1
    res = _last_json(out)
    setups.append(res["setup_s"])
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], len(res["failures"])
    passes = "a traced and an untraced pass" if args.trace else "one pass"
    print(f"workload {args.workload}  seed {args.seed}: {attempted} queries in {passes} "
          f"of {res['rounds']} rounds, {failed} failed")
    for m in wanted:
        print(f"  {m['name']:<42} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'error_rate':<42} {failed / attempted:.6g} ratio")
    if not args.trace:
        print(f"  {'setup_s samples':<42} {' '.join(f'{s:.4f}' for s in setups)} s")
        print(f"  {'latency samples':<42} {attempted}{'' if attempted >= 100 else ' (p90 rests on fewer than 100)'}")
        if "draws_per_s" in values:
            print(f"  {'draws_per_s':<42} {values['draws_per_s']:.6g} 1/s")
    else:
        print(f"  {'trace file':<42} {res['trace_file']}")
    for msg in res["failures"]:
        print(f"  FAILED {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
