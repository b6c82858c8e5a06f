"""The names the benchmark's traced runs patch exist, and a traced sweep reaches them.

``perfbench/tracing.py`` wraps each (module, attribute) in its ``TARGETS``
list. A name that is gone breaks every traced run, and a layer that no call
reaches leaves its p50 without a measurement, which stops the run too.
"""

import importlib
import math
import sys
from pathlib import Path

import segmentix.sweeps as sweeps
from segmentix import KGridSpec, Market, Valuations

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_traced_name_resolves():
    for module, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_a_traced_sweep_reaches_every_layer_it_reports():
    rec = tracing.Recorder()
    restore = rec.install()
    try:
        table = sweeps.sweep_k(Valuations((1.0, 2.0)), Market((0.4, 0.6)), KGridSpec(0.01, 10.0, 20))
    finally:
        restore()
    assert len(table.rows) == 20
    metrics = tracing.layer_metrics(rec.spans)
    for layer in ("sweeps.sweep_k.serial", "solver.solve", "binary.solve_binary", "market.welfare",
                  "solver.verify_optimality"):
        assert metrics[f"{layer}.calls"][0] >= 1, layer
        assert math.isfinite(metrics[f"{layer}.p50_s"][0]), layer
    assert metrics["sweeps.row_ok_frac"][0] == 1.0
