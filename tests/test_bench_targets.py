"""The names the benchmark's traced runs patch exist, and a traced sweep reaches them.

``perfbench/tracing.py`` wraps each (module, attribute) in its ``TARGETS``
list. A name that is gone breaks every traced run, and a layer that no call
reaches leaves its p50 without a measurement, which stops the run too. The
``inverse`` workload's sandwich checks read ``value``, ``grid_value`` and
``resolution_bound`` off oracle results, and ``cli-oneshot`` reads the
``oracle`` subcommand's JSON.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import segmentix.sweeps as sweeps
from segmentix import KGridSpec, Market, MarketInstance, Valuations, brute_force, cli
from segmentix.oracle import OracleResult

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


def test_oracle_results_carry_the_fields_the_sandwich_checks_read(tmp_path):
    read = {"value", "grid_value", "resolution_bound"}
    assert read <= set(OracleResult._fields)
    for mu, k in (((0.4, 0.6), 0.8), ((0.3, 0.4, 0.3), 0.5)):
        vals = (1.0, 2.0, 3.0)[: len(mu)]
        res = brute_force(MarketInstance(Valuations(vals), Market(mu), k))
        assert all(math.isfinite(getattr(res, name)) for name in read)
        inp, out = tmp_path / "instance.json", tmp_path / "oracle.json"
        inp.write_text(json.dumps({"valuations": vals, "mu": mu, "k": k}))
        assert cli.main(["oracle", "--input", str(inp), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {name: payload[name] for name in read} == {name: getattr(res, name) for name in read}
