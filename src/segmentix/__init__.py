"""Market segmentation under costly information: solvers, oracles, welfare tools.

The names below are loaded from their submodules on first access (PEP 562),
so importing one submodule loads only what it imports: ``segmentix.files``
loads ``segmentix.market`` alone. ``segmentix.cli`` loads the rest per
subcommand, when the subcommand runs.

Only ``oracle`` and ``rationalize`` import numpy when they load; ``market``
imports it inside the functions that compute on arrays, which neither
solver calls, so ``solve``, ``verify`` and ``sweep`` load neither numpy
nor the ``inspect`` it pulls in. No module loads the
standard data-class module: result records are ``NamedTuple``s, which unpack
and equal tuples of their values; validated values are ``__slots__`` classes.
"""

import importlib

# submodule -> the names the package exports from it
_SUBMODULE_EXPORTS = {
    "binary": (
        "segmentation_threshold", "solve_binary", "tangency_markets", "tangency_posteriors",
    ),
    "market": (
        "Market", "MarketInstance", "Segment", "Segmentation", "SolverError", "SurplusTriangle",
        "ValidationError", "Valuations", "WelfareReport", "all_revenues", "buyer_payoff", "check_segment_prices",
        "entropy", "net_objective", "net_segment_value", "no_segmentation", "optimal_price",
        "perfect_discrimination", "price_region", "revenue", "seller_payoff", "surplus_triangle", "uniform_report",
        "welfare",
    ),
    "oracle": ("OracleResult", "brute_force", "brute_force_binary", "brute_force_small"),
    "rationalize": (
        "ConvexCostSpec", "InducedSegments", "RationalizationReport", "RationalizationTarget", "construct_cost",
        "foc_residuals", "induced_segments", "realized_welfare", "verify_rationalization",
    ),
    "solver": (
        "OptimalityReport", "solve", "solve_ri", "verify_optimality",
    ),
    "sweeps": (
        "BoundaryReport", "KGridSpec", "SweepRow", "SweepTable", "boundary_always_segments",
        "classify_monotonicity", "default_k_grid", "sweep_k", "to_csv", "to_svg",
    ),
}  # fmt: skip

# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
