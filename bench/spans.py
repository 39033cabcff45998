"""Spans around the benchmark's calls into pseudosum, and the per-layer
metrics derived from them.

A span is (id, name, start, end, parent, query, phase) plus a few
attributes: the size N of the call and, for decision functions, the outcome
read from the returned value.  Spans stay in memory and are written out once,
when the run ends.  With tracing off, ``Tracer.call`` is a plain call.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

LAYERS = ("lut", "dist", "cyclic", "extremal", "montecarlo", "cli", "bench")

# outcome attributes read from returned values; they repeat exactly per seed
_OUTCOMES = {
    "lut.check_associative": lambda r: {"reject": r is not None},
    "lut.is_associative": lambda r: {"reject": not r},
    "dist.limit": lambda r: {"converged": r.status == "converged", "doublings": r.doublings},
    "cyclic.doa_attractor": lambda r: {"attracted": r is not None},
    "cyclic.decompose_id": lambda r: {"found": r is not None},
    "cyclic.nth_root_oracle": lambda r: {"found": r is not None},
}

# size buckets reported as <name>.n<N>.busy_s
_BUCKETS = {
    "lut.check_associative": (8, 16, 64, 256),
    "lut.is_associative": (16, 64, 256),
    "dist.power": (8, 16, 64, 256),
    "cyclic.doa_attractor": (31, 60, 101, 120, 211, 360),
    "cyclic.decompose_id": (31, 60, 101, 120, 211, 360),
}


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.query: int | None = None
        self.round: int | None = None  # None during set-up
        self.phase = "setup"
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict | None) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "query": self.query,
            "round": self.round,
            "phase": self.phase,
        }
        if attrs:
            rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.monotonic()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.monotonic()
        self._stack.pop()

    def call(self, name: str, attrs: dict | None, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span named `name` when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._open(name, attrs)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(rec)
        if name in _OUTCOMES:
            rec.update(_OUTCOMES[name](out))
        return out

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        if not self.enabled:
            yield None
            return
        rec = self._open(name, attrs)
        try:
            yield rec
        finally:
            self._close(rec)

    def adopt(self, parent: dict, children: list[dict]) -> None:
        """Attach spans recorded in a child process (same monotonic clock)
        under `parent`."""
        for child in children:
            rec = dict(child, id=len(self.spans), parent=parent["id"],
                       query=parent["query"], round=parent["round"], phase=parent["phase"])
            self.spans.append(rec)

    def dump(self, path, per_layer: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "per_layer": per_layer}, fh)


def _dur(rec: dict) -> float:
    return rec["end"] - rec["start"]


def _self_time(rec: dict, children: list[dict]) -> float:
    """Duration minus the part of it covered by child spans."""
    covered = 0.0
    cur_lo = cur_hi = None
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], rec["start"]), min(c["end"], rec["end"])
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return _dur(rec) - covered


def _outcomes(spans: list[dict], key: str) -> list:
    """Outcomes of set-up calls and of first-round calls: the same
    for a given seed however many rounds a run gets."""
    return [s[key] for s in spans if key in s and s["round"] in (None, 0)]


def _frac(spans: list[dict], key: str) -> float:
    vals = _outcomes(spans, key)
    return sum(map(bool, vals)) / len(vals) if vals else 0.0


def per_layer(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics over every span of the run (set-up, timed queries
    and reference checks alike; the trace file tags each span's phase).
    ``calls`` and ``busy_s`` count every call, so they grow with the rounds
    a run completes; the outcome ratios and ``doublings`` come from set-up
    and the first round.

    Computed rather than measured, and named so: ``cells_per_s`` is N^3 per
    busy second of the associativity check, ``kernel_cells`` is N^2 times the
    convolutions binary doubling needs for m, and ``montecarlo.draws`` is
    trials * m.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def busy(name):
        return sum(_dur(s) for s in by_name.get(name, []))

    out: dict[str, float] = {}
    for name in ("lut.check_associative", "lut.is_associative", "dist.convolve", "dist.power",
                 "dist.limit", "cyclic.doa_attractor", "cyclic.in_doa", "cyclic.decompose_id",
                 "cyclic.nth_root_oracle", "montecarlo.empirical_fold"):
        out[f"{name}.calls"] = len(by_name.get(name, []))
    for name in ("lut.check_associative", "lut.is_associative", "lut.from_json", "dist.convolve",
                 "dist.power", "dist.limit", "dist.is_stable", "cyclic.doa_attractor",
                 "cyclic.in_doa", "cyclic.decompose_id", "cyclic.construct_id", "cyclic.spectrum",
                 "cyclic.from_spectrum", "cyclic.enumerate_stable", "cyclic.classify_stable",
                 "cyclic.nth_root_oracle", "extremal.max_convolve", "extremal.max_nth_root",
                 "extremal.max_doa", "montecarlo.empirical_fold", "cli.main"):
        out[f"{name}.busy_s"] = busy(name)
    for name, sizes in _BUCKETS.items():
        for n in sizes:
            out[f"{name}.n{n}.busy_s"] = sum(_dur(s) for s in by_name.get(name, []) if s.get("n") == n)

    checks = by_name.get("lut.check_associative", [])
    cells = sum(s["n"] ** 3 for s in checks)
    out["lut.check_associative.cells_per_s"] = cells / out["lut.check_associative.busy_s"] if checks else 0.0
    out["lut.check_associative.reject_frac"] = _frac(checks, "reject")

    powers = by_name.get("dist.power", [])
    kcells = sum(s["n"] ** 2 * (s["m"].bit_length() - 1 + bin(s["m"]).count("1") - 1) for s in powers)
    out["dist.power.kernel_cells"] = kcells
    out["dist.power.kernel_cells_per_s"] = kcells / out["dist.power.busy_s"] if powers else 0.0

    limits = by_name.get("dist.limit", [])
    out["dist.limit.doublings"] = sum(_outcomes(limits, "doublings"))
    out["dist.limit.converged_frac"] = _frac(limits, "converged")
    out["cyclic.doa_attractor.attracted_frac"] = _frac(by_name.get("cyclic.doa_attractor", []), "attracted")
    out["cyclic.decompose_id.found_frac"] = _frac(by_name.get("cyclic.decompose_id", []), "found")
    out["cyclic.nth_root_oracle.found_frac"] = _frac(by_name.get("cyclic.nth_root_oracle", []), "found")

    folds = by_name.get("montecarlo.empirical_fold", [])
    draws = sum(s["trials"] * s["m"] for s in folds)
    out["montecarlo.draws"] = draws
    out["montecarlo.draws_per_s"] = draws / out["montecarlo.empirical_fold.busy_s"] if folds else 0.0

    imports = by_name.get("cli.import", [])
    out["cli.import_s"] = statistics.median(_dur(s) for s in imports) if imports else 0.0
    procs = by_name.get("cli.process", [])
    out["cli.process_ms_p50"] = 1e3 * statistics.median(_dur(s) for s in procs) if procs else 0.0

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in self_s:
            self_s[layer] += _self_time(s, children.get(s["id"], []))
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["trace.spans"] = len(spans)
    return out
