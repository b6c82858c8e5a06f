"""Package exports: loaded lazily from their submodules, the same names as before; numpy loaded only where used.

No process loads ``dataclasses``: the records are ``NamedTuple``s and the
validated values ``__slots__`` classes. ``inspect``, which numpy loads, stays
out of ``solve``, ``verify`` and ``sweep`` processes.
"""

import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segmentix

EXPORTED = {
    "segmentation_threshold", "solve_binary", "tangency_markets", "tangency_posteriors",
    "Market", "MarketInstance", "Segment", "Segmentation", "SurplusTriangle", "ValidationError",
    "Valuations", "WelfareReport", "check_segment_prices", "entropy", "net_objective", "no_segmentation",
    "optimal_price", "perfect_discrimination", "revenue", "seller_payoff", "surplus_triangle", "welfare",
    "OracleResult", "brute_force", "brute_force_binary", "brute_force_small",
    "ConvexCostSpec", "InducedSegments", "RationalizationReport", "RationalizationTarget",
    "construct_cost", "foc_residuals", "induced_segments", "realized_welfare", "verify_rationalization",
    "OptimalityReport", "solve", "solve_ri", "verify_optimality",
    "BoundaryReport", "KGridSpec", "SweepRow", "SweepTable", "boundary_always_segments",
    "classify_monotonicity", "default_k_grid", "sweep_k", "to_csv", "to_svg",
}  # fmt: skip


def _fresh_modules(statement: str, prefix: str | tuple[str, ...] = "segmentix") -> set[str]:
    """The modules named ``prefix`` (or one of several) or under it that a fresh interpreter holds after ``statement``."""
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tops = (prefix,) if isinstance(prefix, str) else prefix
    code = f"import sys; {statement}; print(' '.join(m for m in sys.modules if m.split('.')[0] in {tops!r}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_all_lists_exactly_the_exported_names():
    assert len(segmentix.__all__) == len(set(segmentix.__all__))
    assert set(segmentix.__all__) == EXPORTED
    assert EXPORTED <= set(dir(segmentix))


def test_exports_are_the_submodule_objects():
    for name in segmentix.__all__:
        obj = getattr(segmentix, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("segmentix.")
        assert getattr(home, name) is obj, name


def test_star_import_gives_the_exported_names():
    namespace: dict = {}
    exec("from segmentix import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        segmentix.no_such_name  # noqa: B018


def test_import_files_loads_no_solver_sweeps_or_oracle():
    loaded = _fresh_modules("import segmentix.files")
    assert "segmentix.files" in loaded
    assert not loaded & {
        "segmentix.solver", "segmentix.sweeps", "segmentix.oracle", "segmentix.rationalize", "segmentix.binary"
    }


def test_import_package_loads_no_submodule():
    assert _fresh_modules("import segmentix") == {"segmentix"}


def test_module_level_imports_form_a_thin_dag():
    # only the imports that run when a module loads; those under
    # ``if TYPE_CHECKING:`` or inside functions do not
    package = Path(segmentix.__file__).parent
    graph = {}
    for path in sorted(package.glob("*.py")):
        deps = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                deps.update([node.module] if node.module else (alias.name for alias in node.names))
        graph[path.stem] = deps
    assert set(graph) >= {"market", "files", "binary", "solver", "sweeps", "oracle", "rationalize", "cli"}
    assert graph["market"] == set()
    assert graph["files"] == {"market"}
    assert graph["oracle"] == {"market"}  # the oracles share nothing with the solvers
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


@pytest.mark.parametrize("module", ["files", "market", "binary", "solver", "sweeps"])
def test_import_loads_no_numpy(module):
    assert _fresh_modules(f"import segmentix.{module}", prefix="numpy") == set()


@pytest.mark.parametrize("module", ["files", "market", "binary", "solver", "sweeps"])
def test_source_imports_no_numpy_at_any_depth(module):
    # every import statement, also inside functions and under ``if TYPE_CHECKING:``
    tree = ast.parse((Path(segmentix.__file__).parent / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module)
    assert not {name for name in imported if name.split(".")[0] == "numpy"}


MODULES = ["cli", "files", "market", "binary", "solver", "sweeps", "oracle", "rationalize"]


@pytest.mark.parametrize("module", ["segmentix", *(f"segmentix.{m}" for m in MODULES)])
def test_import_loads_no_dataclasses(module):
    assert _fresh_modules(f"import {module}", prefix="dataclasses") == set()


def _cli_modules(prefix: str | tuple[str, ...], *argv: str) -> set[str]:
    """The ``prefix`` modules a fresh process holds after ``segmentix.cli.main(argv)`` returns 0."""
    return _fresh_modules(f"import segmentix.cli as cli; assert cli.main({list(argv)!r}) == 0", prefix=prefix)


def _write_instance(path: Path, vals: tuple, mu: tuple, k: float) -> str:
    path.write_text(json.dumps({"valuations": list(vals), "mu": list(mu), "k": k}))
    return str(path)


V123, MU334 = (1.0, 2.0, 3.0), (0.3, 0.3, 0.4)


def test_cli_solve_and_verify_load_no_numpy(tmp_path):
    from segmentix import Market, MarketInstance, Valuations, segmentation_threshold, solve
    from segmentix.files import dump_json, segmentation_to_dict

    k3 = 50.0
    assert k3 > segmentation_threshold(Valuations(V123), Market(MU334))  # the prior stays whole
    for name, vals, mu, k in (("k2", (1.0, 2.0), (0.4, 0.6), 0.5), ("k3", V123, MU334, k3)):
        inst = _write_instance(tmp_path / f"{name}.json", vals, mu, k)
        seg = tmp_path / f"{name}.seg.json"
        assert _cli_modules("numpy", "solve", "--input", inst, "--output", str(seg)) == set(), name
        expected = solve(MarketInstance(Valuations(vals), Market(mu), k))
        assert seg.read_text() == dump_json(segmentation_to_dict(expected, Valuations(vals))), name
        out = str(tmp_path / f"{name}.verify.json")
        assert _cli_modules("numpy", "verify", "--input", str(seg), "--instance", inst, "--output", out) == set(), name
        assert json.loads(Path(out).read_text())["passed"]
        assert _cli_modules("numpy", "verify", "--input", str(seg), "--output", out) == set(), name


def test_cli_solve_below_threshold_loads_no_numpy(tmp_path):
    from segmentix import Market, MarketInstance, Valuations, segmentation_threshold, solve
    from segmentix.files import dump_json, segmentation_to_dict

    vals, mu, k = Valuations(V123), Market(MU334), 0.3
    assert k < segmentation_threshold(vals, mu)
    inst = _write_instance(tmp_path / "k3.json", V123, MU334, k)
    seg = tmp_path / "k3.seg.json"
    assert _cli_modules("numpy", "solve", "--input", inst, "--output", str(seg)) == set()
    expected = solve(MarketInstance(vals, mu, k))
    assert len(expected.segments) > 1
    assert seg.read_text() == dump_json(segmentation_to_dict(expected, vals))
    out = str(tmp_path / "k3.verify.json")
    assert _cli_modules("numpy", "verify", "--input", str(seg), "--instance", inst, "--output", out) == set()
    assert json.loads(Path(out).read_text())["passed"]


def test_cli_sweeps_load_no_numpy(tmp_path):
    from segmentix import Market, Valuations, segmentation_threshold

    k3 = segmentation_threshold(Valuations(V123), Market(MU334))
    inp2 = _write_instance(tmp_path / "k2.json", (1.0, 2.0), (0.4, 0.6), 0.5)
    inp3 = _write_instance(tmp_path / "k3.json", V123, MU334, 1.0)
    out = str(tmp_path / "out")
    for fmt in ("csv", "svg"):
        assert _cli_modules("numpy", "sweep", "--input", inp2, "--output", out, "--format", fmt) == set(), fmt
    # every row lies above k-bar, where the prior stays whole
    grid = f"{1.01 * k3!r}:{100.0 * k3!r}:20"
    assert _cli_modules("numpy", "sweep", "--input", inp3, "--output", out, "--k-grid", grid) == set()


def test_cli_sweep_with_a_row_below_threshold_loads_no_numpy(tmp_path):
    from segmentix import Market, Valuations, segmentation_threshold, sweep_k, to_csv
    from segmentix.cli import parse_k_grid

    vals, mu = Valuations(V123), Market(MU334)
    k3 = segmentation_threshold(vals, mu)
    assert 0.3 < k3
    inp = _write_instance(tmp_path / "k3.json", V123, MU334, 1.0)
    out = tmp_path / "k3.csv"
    grid = f"0.3:{100.0 * k3!r}:6"
    assert _cli_modules("numpy", "sweep", "--input", inp, "--output", str(out), "--k-grid", grid) == set()
    table = sweep_k(vals, mu, parse_k_grid(grid))
    assert table.rows[0].n_segments > 1
    assert out.read_text() == to_csv(table)



@pytest.mark.parametrize("command", ["solve", "verify", "verify-structural", "sweep", "rationalize", "oracle"])
def test_cli_loads_no_dataclasses_and_inspect_only_with_numpy(command, tmp_path):
    # numpy loads inspect, so only the two subcommands that load numpy may hold it
    from segmentix.cli import main

    inst = _write_instance(tmp_path / "inst.json", (1.0, 2.0), (0.4, 0.6), 0.8)
    seg = str(tmp_path / "seg.json")
    assert main(["solve", "--input", inst, "--output", seg]) == 0
    target, sweep = tmp_path / "target.json", tmp_path / "sweep.json"
    target.write_text(json.dumps({"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]}))
    sweep.write_text(json.dumps({"valuations": [1.0, 2.0], "mu": [0.4, 0.6]}))
    argv = {
        "solve": ["solve", "--input", inst],
        "verify": ["verify", "--input", seg, "--instance", inst],
        "verify-structural": ["verify", "--input", seg],
        "sweep": ["sweep", "--input", str(sweep), "--k-grid", "0.1:10:5"],
        "rationalize": ["rationalize", "--input", str(target)],
        "oracle": ["oracle", "--input", inst],
    }[command]
    loaded = _cli_modules(("dataclasses", "inspect", "numpy"), *argv, "--output", str(tmp_path / "out"))
    numpy = {m for m in loaded if m.split(".")[0] == "numpy"}
    assert bool(numpy) == (command in ("rationalize", "oracle"))
    assert loaded - numpy <= ({"inspect"} if numpy else set())
