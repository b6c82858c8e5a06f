"""Package exports: loaded lazily from their submodules, the same names as before."""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segmentix

EXPORTED = {
    "EnvelopeResult", "binary_net_value", "concave_envelope", "net_value_curve", "segmentation_threshold",
    "solve_binary", "tangency_markets", "tangency_posteriors",
    "Market", "MarketInstance", "Segment", "Segmentation", "SurplusTriangle", "ValidationError",
    "Valuations", "WelfareReport", "all_revenues", "buyer_payoff", "check_segment_prices", "entropy",
    "net_objective", "net_segment_value", "no_segmentation", "optimal_price", "perfect_discrimination",
    "price_region", "revenue", "seller_payoff", "surplus_triangle", "uniform_report", "welfare",
    "OracleResult", "brute_force", "brute_force_binary", "brute_force_small",
    "ConvexCostSpec", "InducedSegments", "RationalizationReport", "RationalizationTarget",
    "construct_cost", "foc_residuals", "induced_segments", "realized_welfare", "verify_rationalization",
    "OptimalityReport", "SolveOptions", "SolverError", "payoff_matrix", "solve", "solve_ri",
    "verify_optimality",
    "BoundaryReport", "KGridSpec", "SweepRow", "SweepTable", "boundary_always_segments",
    "classify_monotonicity", "default_k_grid", "sweep_k", "to_csv", "to_svg",
}  # fmt: skip


def _fresh_modules(statement: str) -> set[str]:
    src = str(Path(segmentix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys; {statement}; print(' '.join(m for m in sys.modules if m.startswith('segmentix')))"
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
