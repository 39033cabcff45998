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
from typing import NoReturn

import pseudosum as ps

from .errors import ValidityError, shown

# The library is called only as ps.<name>: the package's _EXPORTS table
# imports a submodule on a name's first use, so a process loads only what
# its subcommand calls (`check --lut` loads lut alone).  A usage error, or an
# argument or file rejected before any library call, loads no numpy: each
# loader reads its file before it names a ps class.

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
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, and an int past the digit limit
        raise ValidityError(f"{path}: not valid JSON: {exc}") from exc


_DIGITS_RE = re.compile(r"\s*[+-]?[0-9]+\s*")


def _to_int(text: str) -> int:
    """text as int() reads it; past CPython's int-to-str digit limit (4300
    digits by default), which int() refuses, a string of decimal digits of
    any length with an optional sign is read too.  ValueError otherwise."""
    try:
        return int(text)
    except ValueError:
        if not _DIGITS_RE.fullmatch(text):
            raise
        import decimal  # a few ms of start-up, paid on this path alone

        return int(decimal.Decimal(text))


def _int_arg(text: str, name: str) -> int:
    try:
        return _to_int(text)
    except ValueError:
        raise ValidityError(f"{name} must be an integer, got {shown(text)}") from None


def _int_option(text: str) -> int:
    """The argparse type of every integer option: malformed text is a usage
    error (exit 2) with argparse's own message, its text shown by `shown`."""
    try:
        return _to_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


def _load_dist(path: str) -> ps.Distribution:
    doc = _read_json(path)
    return ps.Distribution.from_json(doc)


def _load_perm(path: str | None) -> ps.Permutation | None:
    if path is None:
        return None
    doc = _read_json(path)
    return ps.Permutation.from_json(doc)


_GEN_RE = re.compile(r"^(mod|max)(\d+)$")


def _load_lut(args) -> ps.LutTable:
    if getattr(args, "lut", None):
        doc = _read_json(args.lut)
        return ps.LutTable.from_json(doc)
    gen = getattr(args, "gen", None)
    if gen:
        m = _GEN_RE.match(gen)
        if m:
            n = _to_int(m.group(2))
            return ps.make_mod_lut(n) if m.group(1) == "mod" else ps.make_max_lut(n)
        if gen.startswith("perm:"):
            perm = _load_perm(gen[len("perm:") :])
            return ps.make_cyclic_lut(perm.n, perm)
        raise ValidityError(f"unknown generator {shown(gen)}; expected modN, maxN, or perm:FILE")
    raise ValidityError("no table given; use --lut FILE or --gen SPEC")


def _given(**options) -> dict:
    """The options the user gave: an option left out is None, and the
    library call then takes its own default."""
    return {k: v for k, v in options.items() if v is not None}


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
    """The parser of every subcommand.  Each subparser carries its handler,
    which main calls as args.handler(args), so a subcommand is named once."""
    parser = argparse.ArgumentParser(
        prog="pseudosum",
        description="Pseudo-summation on finite alphabets: tables, exact "
        "distribution arithmetic, stable laws, and simulation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", help="algebraic properties of a table")
    sub.set_defaults(handler=_cmd_check)
    _add_table_args(sub)

    sub = subs.add_parser("convolve", help="law of X (+) Y from two distribution files")
    sub.set_defaults(handler=_cmd_convolve)
    _add_table_args(sub)
    sub.add_argument("dists", nargs=2, metavar="DIST")

    sub = subs.add_parser("power", help="law of the m-fold pseudo-sum")
    sub.set_defaults(handler=_cmd_power)
    _add_table_args(sub)
    sub.add_argument("dist", metavar="DIST")
    sub.add_argument("--m", type=_int_option, required=True)

    sub = subs.add_parser("limit", help="limit of fold powers by doubling")
    sub.set_defaults(handler=_cmd_limit)
    _add_table_args(sub)
    sub.add_argument("--dist", required=True)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--max-doublings", type=_int_option)

    sub = subs.add_parser("stable", help="enumerate stable laws of the cyclic table")
    sub.set_defaults(handler=_cmd_stable)
    sub.add_argument("--enumerate", type=_int_option, required=True, metavar="N")
    sub.add_argument("--perm", help="permutation JSON file")

    sub = subs.add_parser("doa", help="domain-of-attraction test (cyclic table)")
    sub.set_defaults(handler=_cmd_doa)
    sub.add_argument("--dist", required=True)
    sub.add_argument("--target", type=_int_option, help="divisor M of the target stable law")
    sub.add_argument("--perm")

    sub = subs.add_parser("id", help="infinite divisibility (cyclic table)")
    sub.set_defaults(handler=_cmd_id)
    sub.add_argument("--dist", required=True)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--decompose", action="store_true")
    mode.add_argument("--check", action="store_true")
    sub.add_argument("--perm")
    sub.add_argument("--tol", type=float)

    sub = subs.add_parser("spectrum", help="characteristic values of a law")
    sub.set_defaults(handler=_cmd_spectrum)
    sub.add_argument("--dist", required=True)
    sub.add_argument("--perm")

    sub = subs.add_parser("max", help="max-table operations")
    sub.set_defaults(handler=_cmd_max)
    mode = sub.add_mutually_exclusive_group(required=True)
    mode.add_argument("--convolve", nargs=2, metavar=("P", "Q"))
    mode.add_argument("--root", nargs=2, metavar=("N", "DIST"))
    mode.add_argument("--doa", nargs=2, metavar=("X", "DIST"))

    sub = subs.add_parser("simulate", help="seeded Monte Carlo of the m-fold sum")
    sub.set_defaults(handler=_cmd_simulate)
    _add_table_args(sub)
    sub.add_argument("--dist", required=True)
    sub.add_argument("--m", type=_int_option, required=True)
    sub.add_argument("--trials", type=_int_option, required=True)
    sub.add_argument("--seed", type=_int_option, required=True)
    sub.add_argument("--workers", type=_int_option,
                     help="must be >= 1; changes neither the result nor the work")
    sub.add_argument("--compare-exact", action="store_true")

    for sub in subs.choices.values():  # last, so it ends every help listing
        sub.add_argument("--out")
    return parser


def _cmd_check(args) -> dict:
    lut = _load_lut(args)
    assoc = ps.check_associative(lut)
    comm = ps.check_commutative(lut)
    doc: dict = {"n": lut.n, "associative": assoc is None}
    if assoc is not None:
        doc["counterexample"] = list(assoc)
    doc["commutative"] = comm is None
    if comm is not None:
        doc["commutative_counterexample"] = list(comm)
    doc["identity"] = ps.find_identity(lut)
    doc["idempotents"] = ps.find_idempotents(lut)
    return doc


def _cmd_convolve(args) -> dict:
    lut = _load_lut(args)
    p, q = (_load_dist(path) for path in args.dists)
    return ps.convolve(lut, p, q).to_json()


def _cmd_power(args) -> dict:
    lut = _load_lut(args)
    return ps.power(lut, _load_dist(args.dist), args.m).to_json()


def _cmd_limit(args) -> dict:
    lut = _load_lut(args)
    res = ps.limit(lut, _load_dist(args.dist), **_given(tol=args.tol, max_doublings=args.max_doublings))
    doc = {"status": res.status, "doublings": res.doublings}
    if res.status == ps.CONVERGED:
        doc["limit"] = res.dist.p.tolist()
    if res.status == ps.CYCLE:
        doc["period"] = res.period
    return doc


def _cmd_stable(args) -> dict:
    n = args.enumerate
    perm = _load_perm(args.perm)
    laws = [
        {"m": law.m, "r": law.r, "p": dist.p.tolist()}
        for law, dist in ps.enumerate_stable(n, perm)
    ]
    return {"n": n, "laws": laws}


def _cmd_doa(args) -> dict:
    p = _load_dist(args.dist)
    perm = _load_perm(args.perm)
    if args.target is not None:
        if args.target < 1 or p.n % args.target != 0:
            raise ValidityError(f"target {shown(args.target)} must be a divisor of n={p.n}")
        law = ps.StableLaw(args.target, p.n // args.target)
        return {"target": {"m": law.m, "r": law.r}, "in_doa": ps.in_doa(p, law, perm)}
    law = ps.doa_attractor(p, perm)
    return {"attractor": None if law is None else {"m": law.m, "r": law.r}}


def _cmd_id(args) -> dict:
    p = _load_dist(args.dist)
    perm = _load_perm(args.perm)
    if args.decompose:
        d = ps.decompose_id(p, perm, **_given(tol=args.tol))
        dec = None if d is None else {"a": d.a, "m": d.m, "lambda": d.lam, "jump": d.jump.p.tolist()}
        return {"decomposition": dec}
    return {"infinitely_divisible": ps.is_infinitely_divisible(p, perm, **_given(tol=args.tol))}


def _cmd_spectrum(args) -> dict:
    p = _load_dist(args.dist)
    perm = _load_perm(args.perm)
    f = ps.spectrum(p, perm).f
    return {"n": p.n, "spectrum": [[float(v.real), float(v.imag)] for v in f]}


def _cmd_max(args) -> dict:
    if args.convolve:
        p, q = (_load_dist(path) for path in args.convolve)
        return ps.max_convolve(p, q).to_json()
    if args.root:
        n_parts = _int_arg(args.root[0], "N")
        p = _load_dist(args.root[1])
        return ps.max_nth_root(p, n_parts).to_json()
    x = _int_arg(args.doa[0], "X")
    p = _load_dist(args.doa[1])
    return {"x": x, "in_doa": ps.max_doa(p, x)}


def _cmd_simulate(args) -> dict:
    lut = _load_lut(args)
    p = _load_dist(args.dist)
    cfg = ps.SimConfig(seed=args.seed, trials=args.trials, m=args.m)
    # the exact law first: a table power rejects fails before any trial runs
    exact = ps.power(lut, p, args.m) if args.compare_exact else None
    emp = ps.empirical_fold(lut, p, cfg, **_given(workers=args.workers))
    doc = {"n": p.n, "empirical": emp.p.tolist()}
    if exact is not None:
        doc["exact"] = exact.p.tolist()
        doc["tv"] = ps.tv_distance(emp, exact)
    return doc


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
        _emit(args.handler(args), args.out)
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
