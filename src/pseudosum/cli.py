"""Command-line interface.

One binary, subcommand style.  All documents are JSON; numeric output is
serialized with 12 significant digits and carries a top-level schema
version.  Exit codes: 0 success, 1 invalid input or a failed computation
(out of memory, internal error), 2 usage error; exit 1 prints one line to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, NoReturn

from .errors import ValidityError

if TYPE_CHECKING:
    from .cyclic import Permutation
    from .dist import Distribution
    from .lut import LutTable

# Each command imports the modules it calls, so a process loads only its
# subcommand's part of the package (`check --lut` loads lut alone, and a
# usage error loads no numpy).

SCHEMA_VERSION = 1


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _fmt(value):
    """Round all floats in a JSON-ready structure to 12 significant digits."""
    if isinstance(value, float):
        return _sig12(value)
    if isinstance(value, list):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidityError(f"{path}: not valid JSON: {exc}") from exc


def _int_arg(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidityError(f"{name} must be an integer, got {text!r}") from None


def _load_dist(path: str) -> Distribution:
    from .dist import Distribution

    return Distribution.from_json(_read_json(path))


def _load_perm(path: str | None) -> Permutation | None:
    if path is None:
        return None
    from .cyclic import Permutation

    return Permutation.from_json(_read_json(path))


_GEN_RE = re.compile(r"^(mod|max)(\d+)$")


def _load_lut(args) -> LutTable:
    if getattr(args, "lut", None):
        from .lut import LutTable

        return LutTable.from_json(_read_json(args.lut))
    gen = getattr(args, "gen", None)
    if gen:
        m = _GEN_RE.match(gen)
        if m:
            n = int(m.group(2))
            if m.group(1) == "mod":
                from .cyclic import make_mod_lut

                return make_mod_lut(n)
            from .extremal import make_max_lut

            return make_max_lut(n)
        if gen.startswith("perm:"):
            return _cyclic_lut_from_file(gen[len("perm:") :])
        raise ValidityError(
            f"unknown generator {gen!r}; expected modN, maxN, or perm:FILE"
        )
    raise ValidityError("no table given; use --lut FILE or --gen SPEC")


def _cyclic_lut_from_file(path: str) -> LutTable:
    from .cyclic import Permutation, make_cyclic_lut

    perm = Permutation.from_json(_read_json(path))
    return make_cyclic_lut(perm.n, perm)


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(_fmt({"version": SCHEMA_VERSION, **doc}), indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif sys.stdout is None:  # descriptor 1 was closed at start-up
        raise OSError("standard output is closed")
    else:
        # flushed here, inside main's error handling: a failed write (a full
        # device, a closed pipe) is then the usual one-line exit 1
        print(text, flush=True)


def _add_table_args(sub) -> None:
    sub.add_argument("--lut", help="lookup table JSON file")
    sub.add_argument("--gen", help="built-in table: modN, maxN, or perm:FILE")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosum",
        description="Pseudo-summation on finite alphabets: tables, exact "
        "distribution arithmetic, stable laws, and simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="algebraic properties of a table")
    _add_table_args(sub)
    sub.add_argument("--out")

    sub = subs.add_parser("convolve", help="law of X (+) Y from two distribution files")
    _add_table_args(sub)
    sub.add_argument("dists", nargs=2, metavar="DIST")
    sub.add_argument("--out")

    sub = subs.add_parser("power", help="law of the m-fold pseudo-sum")
    _add_table_args(sub)
    sub.add_argument("dist", metavar="DIST")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--out")

    sub = subs.add_parser("limit", help="limit of fold powers by doubling")
    _add_table_args(sub)
    sub.add_argument("--dist", required=True)
    sub.add_argument("--tol", type=float)  # None: dist.FIXED_POINT_TOL
    sub.add_argument("--max-doublings", type=int, default=64)
    sub.add_argument("--out")

    sub = subs.add_parser("stable", help="enumerate stable laws of the cyclic table")
    sub.add_argument("--enumerate", type=int, required=True, metavar="N")
    sub.add_argument("--perm", help="permutation JSON file")
    sub.add_argument("--out")

    sub = subs.add_parser("doa", help="domain-of-attraction test (cyclic table)")
    sub.add_argument("--dist", required=True)
    sub.add_argument("--target", type=int, help="divisor M of the target stable law")
    sub.add_argument("--perm")
    sub.add_argument("--out")

    sub = subs.add_parser("id", help="infinite divisibility (cyclic table)")
    sub.add_argument("--dist", required=True)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--decompose", action="store_true")
    mode.add_argument("--check", action="store_true")
    sub.add_argument("--perm")
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--out")

    sub = subs.add_parser("spectrum", help="characteristic values of a law")
    sub.add_argument("--dist", required=True)
    sub.add_argument("--perm")
    sub.add_argument("--out")

    sub = subs.add_parser("max", help="max-table operations")
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--convolve", nargs=2, metavar=("P", "Q"))
    mode.add_argument("--root", nargs=2, metavar=("N", "DIST"))
    mode.add_argument("--doa", nargs=2, metavar=("X", "DIST"))
    sub.add_argument("--out")

    sub = subs.add_parser("simulate", help="seeded Monte Carlo of the m-fold sum")
    _add_table_args(sub)
    sub.add_argument("--dist", required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--workers", type=int, default=1,
                     help="must be >= 1; changes neither the result nor the work")
    sub.add_argument("--compare-exact", action="store_true")
    sub.add_argument("--out")

    return parser


def _cmd_check(args) -> dict:
    from .lut import check_associative, check_commutative, find_idempotents, find_identity

    lut = _load_lut(args)
    assoc = check_associative(lut)
    comm = check_commutative(lut)
    doc: dict = {"n": lut.n, "associative": assoc is None}
    if assoc is not None:
        doc["counterexample"] = list(assoc)
    doc["commutative"] = comm is None
    if comm is not None:
        doc["commutative_counterexample"] = list(comm)
    doc["identity"] = find_identity(lut)
    doc["idempotents"] = find_idempotents(lut)
    return doc


def _cmd_convolve(args) -> dict:
    from .dist import convolve

    lut = _load_lut(args)
    p, q = (_load_dist(path) for path in args.dists)
    return convolve(lut, p, q).to_json()


def _cmd_power(args) -> dict:
    from .dist import power

    lut = _load_lut(args)
    return power(lut, _load_dist(args.dist), args.m).to_json()


def _cmd_limit(args) -> dict:
    from .dist import CONVERGED, CYCLE, FIXED_POINT_TOL, limit

    lut = _load_lut(args)
    tol = FIXED_POINT_TOL if args.tol is None else args.tol
    res = limit(lut, _load_dist(args.dist), tol=tol, max_doublings=args.max_doublings)
    doc = {"status": res.status, "doublings": res.doublings}
    if res.status == CONVERGED:
        doc["limit"] = res.dist.p.tolist()
    if res.status == CYCLE:
        doc["period"] = res.period
    return doc


def _cmd_stable(args) -> dict:
    from .cyclic import enumerate_stable

    n = args.enumerate
    perm = _load_perm(args.perm)
    laws = [
        {"m": law.m, "r": law.r, "p": dist.p.tolist()}
        for law, dist in enumerate_stable(n, perm)
    ]
    return {"n": n, "laws": laws}


def _cmd_doa(args) -> dict:
    from .cyclic import StableLaw, doa_attractor, in_doa

    p = _load_dist(args.dist)
    perm = _load_perm(args.perm)
    if args.target is not None:
        if args.target < 1 or p.n % args.target != 0:
            raise ValidityError(f"target {args.target} must be a divisor of n={p.n}")
        law = StableLaw(args.target, p.n // args.target)
        return {"target": {"m": law.m, "r": law.r}, "in_doa": in_doa(p, law, perm)}
    law = doa_attractor(p, perm)
    return {"attractor": None if law is None else {"m": law.m, "r": law.r}}


def _cmd_id(args) -> dict:
    from .cyclic import decompose_id, is_infinitely_divisible

    p = _load_dist(args.dist)
    perm = _load_perm(args.perm)
    if args.decompose:
        d = decompose_id(p, perm, tol=args.tol)
        dec = None if d is None else {"a": d.a, "m": d.m, "lambda": d.lam, "jump": d.jump.p.tolist()}
        return {"decomposition": dec}
    return {"infinitely_divisible": is_infinitely_divisible(p, perm, tol=args.tol)}


def _cmd_spectrum(args) -> dict:
    from .cyclic import spectrum

    p = _load_dist(args.dist)
    perm = _load_perm(args.perm)
    f = spectrum(p, perm).f
    return {"n": p.n, "spectrum": [[float(v.real), float(v.imag)] for v in f]}


def _cmd_max(args) -> dict:
    from .extremal import max_convolve, max_doa, max_nth_root

    if args.convolve:
        p, q = (_load_dist(path) for path in args.convolve)
        return max_convolve(p, q).to_json()
    if args.root:
        n_parts = _int_arg(args.root[0], "N")
        return max_nth_root(_load_dist(args.root[1]), n_parts).to_json()
    x = _int_arg(args.doa[0], "X")
    p = _load_dist(args.doa[1])
    return {"x": x, "in_doa": max_doa(p, x)}


def _cmd_simulate(args) -> dict:
    from .dist import power, tv_distance
    from .montecarlo import SimConfig, empirical_fold

    lut = _load_lut(args)
    p = _load_dist(args.dist)
    cfg = SimConfig(seed=args.seed, trials=args.trials, m=args.m)
    emp = empirical_fold(lut, p, cfg, workers=args.workers)
    doc = {"n": p.n, "empirical": emp.p.tolist()}
    if args.compare_exact:
        exact = power(lut, p, args.m)
        doc["exact"] = exact.p.tolist()
        doc["tv"] = tv_distance(emp, exact)
    return doc


_COMMANDS = {
    "check": _cmd_check,
    "convolve": _cmd_convolve,
    "power": _cmd_power,
    "limit": _cmd_limit,
    "stable": _cmd_stable,
    "doa": _cmd_doa,
    "id": _cmd_id,
    "spectrum": _cmd_spectrum,
    "max": _cmd_max,
    "simulate": _cmd_simulate,
}


def _fail(command: str, kind: str, exc: BaseException) -> int:
    """Print `kind: exc` as one line on stderr and return exit code 1."""
    detail = " ".join(str(exc).split())
    msg = f"{kind}: {detail}" if kind and detail else kind or detail
    print(f"pseudosum {command}: {msg}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _emit(_COMMANDS[args.command](args), getattr(args, "out", None))
    except (ValidityError, OSError) as exc:
        return _fail(args.command, "", exc)
    except MemoryError as exc:
        return _fail(args.command, "out of memory", exc)
    except Exception as exc:  # any other failure, such as numpy's size limit, is one line too
        return _fail(args.command, "internal error", exc)
    return 0


def run() -> NoReturn:
    """Entry point of `python -m pseudosum` and of the `pseudosum` script:
    `main()`, then flush the standard streams and end the process with
    `os._exit`, which skips interpreter teardown: module and numpy
    finalizers, 24-36 ms of a process on a 2-core x86-64 host.  A stream is
    None where its descriptor was closed at start-up."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # already reported by main, or output (--help) lost
                code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
