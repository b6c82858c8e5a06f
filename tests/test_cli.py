"""Command-line interface: exit codes, payload shapes, determinism."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segmentix
from segmentix import cli
from segmentix.sweeps import CSV_HEADER

WORKED = {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 0.8}


def write(tmp_path, name, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return str(p)


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -------------------- solve --------------------

def test_solve_writes_segmentation(tmp_path):
    inp = write(tmp_path, "inst.json", WORKED)
    out = str(tmp_path / "seg.json")
    assert cli.main(["solve", "--input", inp, "--output", out]) == 0
    seg = read_json(out)
    assert seg["prior"] == [0.4, 0.6]
    weights = sorted(s["weight"] for s in seg["segments"])
    assert weights[0] == pytest.approx(0.3196897763013975, abs=1e-9)
    assert weights[1] == pytest.approx(0.6803102236986025, abs=1e-9)
    assert sorted(s["price"] for s in seg["segments"]) == [1.0, 2.0]


def test_solve_defaults_to_stdout(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", WORKED)
    assert cli.main(["solve", "--input", inp]) == 0
    seg = json.loads(capsys.readouterr().out)
    assert len(seg["segments"]) == 2


def test_solve_rejects_csv_format(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", WORKED)
    assert cli.main(["solve", "--input", inp, "--format", "csv"]) == 2
    assert "output_format" in capsys.readouterr().err


def test_solve_rejects_same_input_output(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", WORKED)
    assert cli.main(["solve", "--input", inp, "--output", inp]) == 2
    assert "distinct_paths" in capsys.readouterr().err


def test_solve_missing_file_exit_2(tmp_path, capsys):
    assert cli.main(["solve", "--input", str(tmp_path / "nope.json")]) == 2
    assert "file_format" in capsys.readouterr().err


def test_solve_invalid_instance_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", {"valuations": [1, 2], "mu": [0.4, 0.6], "k": -1.0})
    assert cli.main(["solve", "--input", inp]) == 2
    assert "cost_scale" in capsys.readouterr().err


def test_solve_integer_too_large_for_a_float_exit_2(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", '{"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 1%s}' % ("0" * 400))
    assert cli.main(["solve", "--input", inp]) == 2
    assert capsys.readouterr().err == f"error [file_format]: {inp}: field 'k' is an integer too large for a float\n"


def test_solve_is_deterministic(tmp_path):
    inp = write(tmp_path, "inst.json", WORKED)
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    cli.main(["solve", "--input", inp, "--output", out1])
    cli.main(["solve", "--input", inp, "--output", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


# -------------------- sweep --------------------

def test_sweep_csv_shape(tmp_path):
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    out = str(tmp_path / "sweep.csv")
    code = cli.main(
        ["sweep", "--input", inp, "--output", out, "--format", "csv", "--k-grid", "0.1:10:40"]
    )
    assert code == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 41


def test_sweep_svg(tmp_path):
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    out = str(tmp_path / "sweep.svg")
    code = cli.main(
        ["sweep", "--input", inp, "--output", out, "--format", "svg", "--k-grid", "0.1:10:20"]
    )
    assert code == 0
    assert open(out).read().startswith("<svg")


def test_sweep_rejects_json_format(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    assert cli.main(["sweep", "--input", inp, "--format", "json"]) == 2
    assert "output_format" in capsys.readouterr().err


def test_sweep_bad_grid_string(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    assert cli.main(["sweep", "--input", inp, "--format", "csv", "--k-grid", "0.1:ten:5"]) == 2
    assert "k_grid" in capsys.readouterr().err


def test_sweep_exits_2_when_a_row_fails_its_certificate(tmp_path, capsys, monkeypatch):
    # no seeded row fails its certificate; one that did must stop the sweep
    # before anything is written, naming the first such row in grid order
    import segmentix.sweeps

    certify = segmentix.sweeps.verify_optimality

    def failing(seg, vals, k):
        rep = certify(seg, vals, k)
        return rep._replace(passed=False, failures=("price_slack",), slack_excess=0.5) if k >= 1.0 else rep

    monkeypatch.setattr(segmentix.sweeps, "verify_optimality", failing)
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    out = tmp_path / "sweep.csv"
    for fmt in ("csv", "svg"):
        assert cli.main(["sweep", "--input", inp, "--output", str(out), "--format", fmt, "--k-grid", "0.1:10:3"]) == 2
        assert capsys.readouterr().err == (
            "error [certificate]: row k=1.0 fails its optimality certificate: price_slack (slack_excess 0.5)\n"
        )
        assert not out.exists()


def test_sweeps_start_no_worker_process(tmp_path):
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = "print('concurrent.futures.process' in sys.modules)"
    code = "\n".join([
        "import sys",
        "from segmentix import KGridSpec, Market, Valuations, cli, sweep_k",
        "sweep_k(Valuations((1.0, 2.0)), Market((0.4, 0.6)), KGridSpec(0.2, 5.0, 12), max_workers=3)",
        loaded,
        f"assert cli.main(['sweep', '--input', {inp!r}, '--output', {str(tmp_path / 'out.csv')!r}]) == 0",
        loaded,
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_sweep_empty_k_grid_means_default(tmp_path):
    inp = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]})
    default, empty = str(tmp_path / "d.csv"), str(tmp_path / "e.csv")
    assert cli.main(["sweep", "--input", inp, "--output", default]) == 0
    assert cli.main(["sweep", "--input", inp, "--output", empty, "--k-grid", ""]) == 0
    assert Path(default).read_bytes() == Path(empty).read_bytes()


def test_collapsed_k_grid_fails_before_the_input_is_read(tmp_path, capsys):
    # 3000 log-spaced points between 1 and 1 + 1e-13 repeat in double precision
    missing = str(tmp_path / "missing.json")
    assert cli.main(["sweep", "--input", missing, "--k-grid", "1:1.0000000000001:3000"]) == 2
    assert capsys.readouterr().err.startswith("error [k_grid]: ")


# each list holds one failure per argument check, in the order they are
# reported; a case keeps the failures from its index on
_SWEEP_FAILURES = [
    ("k_grid", ["--k-grid", "1:2"]),
    ("output_format", ["--format", "json"]),
    ("distinct_paths", ["--output", "INPUT"]),
]
_VERIFY_FAILURES = [
    ("output_format", ["--format", "csv"]),
    ("distinct_paths", ["--output", "INPUT"]),
    ("tolerance", ["--tol", "0"]),
]
_ORACLE_FAILURES = [
    ("output_format", ["--format", "csv"]),
    ("distinct_paths", ["--output", "INPUT"]),
    ("grid_size", ["--grid-n", "2"]),
]


@pytest.mark.parametrize(
    "command,failures",
    [("sweep", _SWEEP_FAILURES[i:]) for i in range(len(_SWEEP_FAILURES))]
    + [("verify", _VERIFY_FAILURES[i:]) for i in range(len(_VERIFY_FAILURES))]
    + [("oracle", _ORACLE_FAILURES[i:]) for i in range(len(_ORACLE_FAILURES))],
    ids=lambda v: v if isinstance(v, str) else v[0][0],
)
def test_first_failed_check_is_reported(tmp_path, capsys, command, failures):
    inp = write(tmp_path, "inst.json", WORKED)
    argv = [command, "--input", inp]
    for _, args in failures:
        argv += [inp if a == "INPUT" else a for a in args]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [{failures[0][0]}]: ")


# -------------------- verify --------------------

def test_verify_round_trip_passes(tmp_path):
    inp = write(tmp_path, "inst.json", WORKED)
    seg_path = str(tmp_path / "seg.json")
    cli.main(["solve", "--input", inp, "--output", seg_path])
    out = str(tmp_path / "report.json")
    code = cli.main(["verify", "--input", seg_path, "--instance", inp, "--output", out])
    assert code == 0
    report = read_json(out)
    assert report["passed"] is True
    assert report["failures"] == []
    assert abs(report["ilr_residual"]) < 1e-10


@pytest.mark.parametrize(
    "instance",
    [
        {"valuations": [4.413445638302532e-05, 787429.3722137071], "mu": [0.9104628401207199, 0.08953715987928008],
         "k": 0.00015404285238829974},
        {"valuations": [0.0009495858196874592, 0.2893408819795903, 1658541.1634981295],
         "mu": [0.5488995310487239, 0.22743785531034033, 0.2236626136409358], "k": 0.0006312048587303156},
    ],
    ids=["K2", "K3"],
)
def test_verify_passes_extreme_scale_solves(tmp_path, capsys, instance):
    # v/k about 5e9 and 2.6e9: the solve is exact, and verify must certify it
    inp = write(tmp_path, "inst.json", instance)
    seg_path = str(tmp_path / "seg.json")
    assert cli.main(["solve", "--input", inp, "--output", seg_path]) == 0
    assert cli.main(["verify", "--input", seg_path, "--instance", inp]) == 0, capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_structural_only_without_instance(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", WORKED)
    seg_path = str(tmp_path / "seg.json")
    cli.main(["solve", "--input", inp, "--output", seg_path])
    assert cli.main(["verify", "--input", seg_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert "note" in report


@pytest.mark.parametrize(
    "with_instance,message",
    [(True, "'prior' has 3 entries but the valuation ladder has 2"), (False, "field 'segments' must be a non-empty array")],
    ids=["certificate", "structural"],
)
def test_verify_prior_length_checked_before_segments(tmp_path, capsys, with_instance, message):
    # only the certificate path knows the ladder, so only it can check the prior's length first
    seg_path = write(tmp_path, "seg.json", {"prior": [0.2, 0.3, 0.5], "segments": []})
    argv = ["verify", "--input", seg_path]
    if with_instance:
        argv += ["--instance", write(tmp_path, "inst.json", WORKED)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error [file_format]: {seg_path}: {message}\n"


def test_verify_flags_tampered_weights(tmp_path, capsys):
    inp = write(tmp_path, "inst.json", WORKED)
    seg_path = str(tmp_path / "seg.json")
    cli.main(["solve", "--input", inp, "--output", seg_path])
    seg = read_json(seg_path)
    seg["segments"][0]["weight"] += 0.01
    seg["segments"][1]["weight"] -= 0.01
    bad = write(tmp_path, "bad.json", seg)
    assert cli.main(["verify", "--input", bad, "--instance", inp]) == 2
    err = capsys.readouterr().err
    assert "bayes_plausibility" in err


def test_verify_flags_suboptimal_segmentation(tmp_path, capsys):
    # pooling is structurally valid but fails the optimality certificate at k = 0.8
    inp = write(tmp_path, "inst.json", WORKED)
    pooled = write(
        tmp_path,
        "pool.json",
        {"prior": [0.4, 0.6], "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 2.0}]},
    )
    out = str(tmp_path / "report.json")
    assert cli.main(["verify", "--input", pooled, "--instance", inp, "--output", out]) == 2
    assert read_json(out)["passed"] is False


# -------------------- rationalize --------------------

def test_rationalize_writes_cost_spec(tmp_path):
    target = write(
        tmp_path, "t.json", {"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]}
    )
    out = str(tmp_path / "cost.json")
    assert cli.main(["rationalize", "--input", target, "--output", out]) == 0
    spec = read_json(out)
    assert len(spec["knots"]) == 5
    assert len(spec["quadratics"]) == 4
    assert spec["knots"][0] == 0.0 and spec["knots"][-1] == 1.0


def test_rationalize_rejects_boundary_target(tmp_path, capsys):
    target = write(
        tmp_path, "t.json", {"cs": 0.0, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]}
    )
    assert cli.main(["rationalize", "--input", target]) == 2
    assert "rationalizable_region" in capsys.readouterr().err


def test_rationalize_grid_floor(tmp_path, capsys):
    target = write(
        tmp_path, "t.json", {"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]}
    )
    assert cli.main(["rationalize", "--input", target, "--grid-n", "50"]) == 2
    assert "grid_size" in capsys.readouterr().err


def test_rationalize_grid_floor_checked_before_reading(tmp_path, capsys):
    # verification needs 2000 grid points; the floor is checked with the other
    # arguments, so a missing target reports the grid, not the file
    missing = str(tmp_path / "missing.json")
    assert cli.main(["rationalize", "--input", missing, "--grid-n", "1999"]) == 2
    assert capsys.readouterr().err.startswith("error [grid_size]: --grid-n must be >= 2000, got 1999")
    assert cli.main(["rationalize", "--input", missing, "--grid-n", "2000"]) == 2
    assert capsys.readouterr().err.startswith("error [file_format]: ")
    # the oracle's own floor stays 4
    assert cli.main(["oracle", "--input", missing, "--grid-n", "50"]) == 2
    assert capsys.readouterr().err.startswith("error [file_format]: ")


# -------------------- oracle --------------------

def test_oracle_matches_frozen_value(tmp_path):
    inp = write(tmp_path, "inst.json", WORKED)
    out = str(tmp_path / "orc.json")
    assert cli.main(["oracle", "--input", inp, "--output", out]) == 0
    payload = read_json(out)
    assert payload["value"] == pytest.approx(1.263133931468893, abs=1e-9)
    assert payload["method"] == "binary_grid"
    assert payload["grid_value"] <= payload["value"] + 1e-12


def test_oracle_grid_n_flows_through(tmp_path):
    inp = write(tmp_path, "inst.json", WORKED)
    out = str(tmp_path / "orc.json")
    assert cli.main(["oracle", "--input", inp, "--output", out, "--grid-n", "500"]) == 0
    payload = read_json(out)
    assert payload["grid_step"] == pytest.approx(1.0 / 500.0)


# -------------------- argparse surface --------------------

def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--input", "x.json"])


def test_input_flag_required(capsys):
    with pytest.raises(SystemExit):
        cli.main(["solve"])


# -------------------- start-up cost --------------------

@pytest.mark.parametrize("module", ["segmentix", "segmentix.cli", "segmentix.files", "segmentix.oracle",
                                    "oracle-K2", "oracle-K3"])
def test_import_loads_no_scipy(module, tmp_path):
    # scipy costs most of a CLI process's start; no module loads it, and
    # neither does an oracle run, the LP-backed K=3 one included
    if module.startswith("oracle-"):
        inst = WORKED if module == "oracle-K2" else {"valuations": [1.0, 2.0, 3.0], "mu": [0.3, 0.4, 0.3], "k": 0.5}
        argv = ["oracle", "--input", write(tmp_path, "inst.json", inst), "--output", str(tmp_path / "out.json")]
        stmt = f"from segmentix import cli; assert cli.main({argv!r}) == 0"
    else:
        stmt = f"import {module}"
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; {stmt}; print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _fresh_cli(argv: list[str]) -> tuple[list[str], str]:
    """``cli.main(argv)`` in a fresh interpreter: its exit code followed by
    the ``segmentix.*`` modules loaded, and its stderr."""
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; from segmentix import cli; code = cli.main(sys.argv[1:]); "
            "print(code, *sorted(m for m in sys.modules if m.startswith('segmentix.')))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split(), out.stderr


LOADED = {
    "solve": ("binary", "solver"),
    "verify": ("binary", "solver"),
    "verify-structural": (),
    "sweep": ("binary", "solver", "sweeps"),
    "rationalize": ("oracle", "rationalize"),
    "oracle": ("oracle",),
}


@pytest.mark.parametrize("command", list(LOADED))
def test_subcommand_loads_only_the_modules_it_runs(command, tmp_path):
    inst = write(tmp_path, "inst.json", WORKED)
    seg = str(tmp_path / "seg.json")
    assert cli.main(["solve", "--input", inst, "--output", seg]) == 0
    inputs = {
        "solve": ["--input", inst],
        "verify": ["--input", seg, "--instance", inst],
        "verify-structural": ["--input", seg],
        "sweep": ["--input", write(tmp_path, "m.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]}),
                  "--k-grid", "0.1:10:5"],
        "rationalize": ["--input", write(tmp_path, "t.json", {"cs": 0.2, "ps": 1.1, "valuations": [1, 2],
                                                                "mu": [0.6, 0.4]})],
        "oracle": ["--input", inst],
    }
    argv = [command.split("-")[0], *inputs[command], "--output", str(tmp_path / "out")]
    code, *loaded = _fresh_cli(argv)[0]
    assert code == "0"
    assert set(loaded) == {f"segmentix.{m}" for m in ("cli", "files", "market", *LOADED[command])}


def test_library_names_stay_attributes_of_the_cli_module():
    # loaded on first access; callers that reach the library through
    # ``segmentix.cli`` (and patch it there) keep finding these names
    for name in ("solve", "verify_optimality", "sweep_k", "to_csv", "brute_force", "induced_segments",
                 "construct_cost", "verify_rationalization"):
        home = importlib.import_module(getattr(cli, name).__module__)
        assert getattr(cli, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018
