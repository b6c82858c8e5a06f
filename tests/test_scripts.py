"""Smoke tests for ``scripts/``: each runs in a fresh interpreter and prints its key line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import segmentix

ROOT = Path(__file__).resolve().parents[1]


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
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert key_line in lines
    if argv[0] == "surplus_locus.py":
        targets = [line for line in lines if line.startswith("  target ")]
        assert len(targets) == 5 and all(line.endswith("  ok") for line in targets)
