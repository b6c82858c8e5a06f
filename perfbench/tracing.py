"""Spans recorded around the benchmark's calls into segmentix.

A traced run patches the names through which each module reaches its
layers (``cli`` reaching ``files`` and the solvers, ``sweeps`` reaching
``solve``, ``welfare`` and ``verify_optimality``, and so on) with wrappers
from this file. The program's own source is never changed and an
untraced run never installs the wrappers. Spans stay in memory
as ``[name, start, end, parent, op, ok, attrs]`` lists and are written out
when the run ends; self time is a span's duration minus that of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

import gen

# (module, attribute, span name): every name a layer is reached through
TARGETS = [
    ("segmentix.cli", "main", "cli.main"),
    ("segmentix.cli", "solve", "solver.solve"),
    ("segmentix.cli", "verify_optimality", "solver.verify_optimality"),
    ("segmentix.cli", "sweep_k", "sweeps.sweep_k"),
    ("segmentix.cli", "to_csv", "sweeps.to_csv"),
    ("segmentix.cli", "brute_force", "oracle.brute_force"),
    ("segmentix.cli", "induced_segments", "rationalize.induced_segments"),
    ("segmentix.cli", "construct_cost", "rationalize.construct_cost"),
    ("segmentix.cli", "verify_rationalization", "rationalize.verify_rationalization"),
    *(
        ("segmentix.files", fn, f"files.{fn}")
        for fn in (
            "read_json",
            "dump_json",
            "load_market_instance",
            "load_sweep_instance",
            "load_segmentation",
            "load_rationalization_target",
            "segmentation_to_dict",
            "cost_spec_to_dict",
        )
    ),
    ("segmentix.solver", "solve", "solver.solve"),
    ("segmentix.solver", "solve_binary", "binary.solve_binary"),
    ("segmentix.solver", "solve_ri", "solver.solve_ri"),
    ("segmentix.solver", "verify_optimality", "solver.verify_optimality"),
    ("segmentix.sweeps", "solve", "solver.solve"),
    ("segmentix.sweeps", "welfare", "market.welfare"),
    ("segmentix.sweeps", "verify_optimality", "solver.verify_optimality"),
    ("segmentix.sweeps", "sweep_k", "sweeps.sweep_k"),
    ("segmentix.sweeps", "to_csv", "sweeps.to_csv"),
    ("segmentix.oracle", "brute_force", "oracle.brute_force"),
    ("segmentix.rationalize", "induced_segments", "rationalize.induced_segments"),
    ("segmentix.rationalize", "construct_cost", "rationalize.construct_cost"),
    ("segmentix.rationalize", "verify_rationalization", "rationalize.verify_rationalization"),
]

FILES_FNS = [t[1] for t in TARGETS if t[0] == "segmentix.files"]
KS = (2, 3, 5)
BUCKETS = ("far", "near", "edge", "above")


def bucket(r: float) -> str:
    """k / k-bar classes: r < 0.9, 0.9 <= r < 0.99, 0.99 <= r <= 1, r > 1."""
    if r > 1.0:
        return "above"
    if r >= 0.99:
        return "edge"
    return "near" if r >= 0.9 else "far"


def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Recorder:
    """In-memory spans of one process; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._kbar: dict[tuple, float] = {}

    def _kbar_of(self, inst) -> float:
        key = (inst.vals.values, inst.mu_star.weights)
        if key not in self._kbar:
            self._kbar[key] = float(gen.thresholds([key[0]], [key[1]])[0])
        return self._kbar[key]

    def _attrs(self, name: str, args, kwargs) -> dict:
        if name == "solver.solve_ri":
            inst = args[0]
            return {"K": len(inst.vals), "bucket": bucket(inst.k / self._kbar_of(inst))}
        if name == "oracle.brute_force":
            inst = args[0]
            if len(inst.vals) == 2:
                grid_n = _arg(args, kwargs, 1, "grid_n") or 4000
                return {"pair_cells": gen.pair_cells(grid_n, inst.mu_star[1], inclusive=False)}
        if name == "rationalize.verify_rationalization":
            target = args[1]
            grid_n = _arg(args, kwargs, 2, "grid_n", 4000)
            return {"pair_cells": gen.pair_cells(grid_n, target.mu_star[1], inclusive=True)}
        return {}

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "sweeps.sweep_k":
                span_name += ".pool" if _arg(args, kwargs, 4, "max_workers", 1) > 1 else ".serial"
            span = [span_name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, True,
                    self._attrs(name, args, kwargs)]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[5] = False
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name == "rationalize.verify_rationalization" and not out.passed:
                span[5] = False  # a failed round trip; a failed certificate is a normal answer
            if span_name.startswith("sweeps.sweep_k"):
                span[6]["rows"] = len(out.rows)
                span[6]["rows_ok"] = sum(1 for r in out.rows if r.error is None and r.verify.passed)
            return out

        return traced

    def install(self):
        """Patch every target; returns a callable that restores the originals."""
        saved = []
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name))

        def restore():
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

        return restore

    def merge(self, spans: list[list], op) -> None:
        """Append spans recorded in another process, re-basing parent links."""
        base = len(self.spans)
        for s in spans:
            self.spans.append([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, op, s[5], s[6]])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile of
    TAIL_PERCENTILES that still has at least ten samples beyond it, by
    nearest rank. A timed run holds as many ops as fit in its time, so a
    percentile taken from the sample count alone would move with the
    host's speed and with the program's: a faster program would be judged
    on a higher percentile. With fewer than twenty samples it is the
    highest percentile with ten beyond, and the maximum with fewer than
    eleven."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return (xs[-1] if xs else math.nan), 100.0, 0
    for pct in TAIL_PERCENTILES:
        i = math.ceil(n * pct / 100.0) - 1
        if n - 1 - i >= 10:
            return xs[i], pct, n - 1 - i
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def _median(xs: list[float]) -> float:
    if not xs:
        return math.nan
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from spans: counts, self time, p50, tail, failures."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

    def self_s(name):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name.get(name, []))

    out: dict[str, tuple[float, str]] = {}

    def full(name, extra=()):
        d = durations(name)
        out[f"{name}.calls"] = (len(d), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
        out[f"{name}.p50_s"] = (_median(d), "s")
        if "tail" in extra:
            out[f"{name}.tail_s"] = (tail(d)[0], "s")
            out[f"{name}.fail_n"] = (sum(1 for i in by_name.get(name, []) if not spans[i][5]), "count")
        if "cells" in extra:
            cells = sum(spans[i][6].get("pair_cells", 0) for i in by_name.get(name, []))
            out[f"{name}.pair_cells_n"] = (cells, "count")

    full("cli.main")
    for fn in FILES_FNS:
        out[f"files.{fn}.self_s"] = (self_s(f"files.{fn}"), "s")
    full("solver.solve")
    full("solver.solve_ri", ("tail",))
    for K in KS:
        for b in BUCKETS:
            d = [spans[i][2] - spans[i][1] for i in by_name.get("solver.solve_ri", [])
                 if spans[i][6].get("K") == K and spans[i][6].get("bucket") == b]
            out[f"solver.solve_ri.K{K}.{b}.p50_s"] = (_median(d), "s")
    full("solver.verify_optimality", ("tail",))
    full("market.welfare")
    full("binary.solve_binary")
    full("sweeps.sweep_k.serial")
    full("sweeps.sweep_k.pool")
    full("sweeps.to_csv")
    sweeps = by_name.get("sweeps.sweep_k.serial", []) + by_name.get("sweeps.sweep_k.pool", [])
    rows = sum(spans[i][6].get("rows", 0) for i in sweeps)
    rows_ok = sum(spans[i][6].get("rows_ok", 0) for i in sweeps)
    out["sweeps.row_ok_frac"] = (rows_ok / rows if rows else math.nan, "frac")
    full("oracle.brute_force", ("tail", "cells"))
    for fn in ("induced_segments", "construct_cost"):
        out[f"rationalize.{fn}.calls"] = (len(durations(f"rationalize.{fn}")), "count")
        out[f"rationalize.{fn}.self_s"] = (self_s(f"rationalize.{fn}"), "s")
    full("rationalize.verify_rationalization", ("tail", "cells"))
    out["trace.spans_n"] = (len(spans), "count")
    return out
