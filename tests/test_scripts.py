"""Smoke tests for ``scripts/``: each runs in a fresh interpreter and prints its key line."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import segmentix

ROOT = Path(__file__).resolve().parents[1]


def _run_script(argv, cwd):
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "argv,key_line",
    [
        # five round trips through verify_rationalization, each ending "ok"
        (["surplus_locus.py", "--rationalize", "5"], "locus: 120 points, 120 inside the triangle, CS span 0.400000"),
        (["welfare_curves.py"], "swept 200 cost scales in [0.001, 100], threshold k-bar=2.4663"),
        (["worked_example.py"], "  passed            True"),
    ],
)
def test_script_runs(argv, key_line, tmp_path):
    out = _run_script(argv, tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert key_line in lines
    if argv[0] == "surplus_locus.py":
        targets = [line for line in lines if line.startswith("  target ")]
        assert len(targets) == 5 and all(line.endswith("  ok") for line in targets)


@pytest.mark.parametrize(
    "argv,stdout,stderr",
    [
        (["welfare_curves.py", "--k-grid", "1:2"], "", "error [k_grid]: --k-grid wants MIN:MAX:N, got '1:2'"),
        (["welfare_curves.py", "--mu", "0.4", "0.7"], "",
         "error [market_weight_sum]: weights sum to 1.1, expected 1 within 1e-12"),
        (["welfare_curves.py", "--valuations", "2", "1"], "",
         "error [valuations_increasing]: valuations must be strictly increasing, got (2.0, 1.0)"),
        (["worked_example.py", "--k", "-1"], "", "error [cost_scale]: k must be finite and >= 0, got -1.0"),
        (["surplus_locus.py", "--mu-high", "1.5"], "",
         "error [market_nonnegative]: weights must be >= 0, got (-0.5, 1.5)"),
        # the triangle is printed before the sweep reads its grid
        (["surplus_locus.py", "--points", "1"], "triangle: uniform profit 1, full surplus 1.4, max CS 0.4\n",
         "error [k_grid]: need at least 2 points, got 1"),
    ],
    ids=["welfare_curves-k_grid", "welfare_curves-mu", "welfare_curves-valuations", "worked_example-k",
         "surplus_locus-mu_high", "surplus_locus-points"],
)
def test_scripts_reject_bad_input(argv, stdout, stderr, tmp_path):
    # a bad argument ends like a bad CLI input: one error line and exit 2, no traceback
    out = _run_script(argv, tmp_path)
    assert (out.returncode, out.stdout, out.stderr) == (2, stdout, stderr + "\n")


def test_oracle_fingerprint_prints_one_digest_per_input(tmp_path):
    # one seed per grid size: 16 two-type and 20 three-type oracle calls
    src = str(Path(segmentix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "oracle_fingerprint.py"), "--src", src, "--seeds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    *lines, last = out.stdout.splitlines()
    assert last == "# 36 oracle inputs" and len(lines) == 36
    pattern = re.compile(r"K=([23]) grid=\d+ seed=1 ratio=[0-9.]+ segments=([123]) sha256=([0-9a-f]{64})")
    matches = [pattern.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert {m.group(2) for m in matches if m.group(1) == "3"} == {"1", "2", "3"}

    spec = importlib.util.spec_from_file_location("oracle_fingerprint", ROOT / "scripts" / "oracle_fingerprint.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    K, grid_n, seed, ratio, vals, mu, k = next(script.inputs(1))
    res = segmentix.brute_force(segmentix.MarketInstance(segmentix.Valuations(vals), segmentix.Market(mu), k), grid_n=grid_n)
    assert matches[0].group(3) == hashlib.sha256(repr(res).encode()).hexdigest()


def test_row_costs_prints_every_layer_for_every_k(tmp_path):
    src = str(Path(segmentix.__file__).resolve().parents[1])
    out = _run_script(["row_costs.py", "--src", src], tmp_path)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert re.fullmatch(r"nproc \d+", lines[0])
    layers = ("MarketInstance", "solve/whole", "solve/split", "welfare", "verify_optimality/whole",
              "verify_optimality/split", "to_csv", "sweep row")
    for block, K in zip(range(1, len(lines), 10), (2, 3, 12)):
        assert lines[block] == f"K={K} markets=10 rows=2000 seed=1"
        assert lines[block + 1].split() == ["layer", "calls", "p50_us", "p99_us", "max_us"]
        calls = {}
        for line, name in zip(lines[block + 2 : block + 10], layers):
            assert line.startswith(f"  {name} ")
            n, p50, p99, top = line[len(name) + 2 :].split()
            calls[name] = int(n)
            assert 0.0 < float(p50) <= float(p99) <= float(top)
        # every row is timed once per layer, and is either whole or split; a
        # sweep certifies its whole-prior rows once, at the prior's one price
        assert calls["MarketInstance"] == calls["welfare"] == calls["to_csv"] == 2000
        assert 0 < calls["verify_optimality/whole"] <= 10 < calls["solve/whole"]
        assert calls["solve/whole"] + calls["solve/split"] == 2000
        assert calls["verify_optimality/split"] == calls["solve/split"] > 0
        assert calls["sweep row"] == 10
    assert len(lines) == 1 + 3 * 10
