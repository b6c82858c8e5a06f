"""Market segmentation under costly information: solvers, oracles, welfare tools."""

from .binary import (
    BinaryClosedForm,
    EnvelopeResult,
    binary_net_value,
    closed_form,
    concave_envelope,
    net_value_curve,
    segmentation_threshold,
    solve_binary,
    tangency_markets,
    tangency_posteriors,
)
from .market import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    SurplusTriangle,
    ValidationError,
    Valuations,
    WelfareReport,
    all_revenues,
    buyer_payoff,
    check_segment_prices,
    entropy,
    net_objective,
    net_segment_value,
    no_segmentation,
    optimal_price,
    perfect_discrimination,
    price_region,
    revenue,
    seller_payoff,
    surplus_triangle,
    uniform_report,
    welfare,
)
from .oracle import OracleResult, brute_force, brute_force_binary, brute_force_small
from .rationalize import (
    ConvexCostSpec,
    InducedSegments,
    RationalizationReport,
    RationalizationTarget,
    construct_cost,
    foc_residuals,
    induced_segments,
    realized_welfare,
    verify_rationalization,
)
from .solver import (
    OptimalityReport,
    SolveOptions,
    SolverError,
    payoff_matrix,
    solve,
    solve_ri,
    verify_optimality,
)
from .sweeps import (
    BoundaryReport,
    KGridSpec,
    SweepRow,
    SweepTable,
    boundary_always_segments,
    classify_monotonicity,
    default_k_grid,
    sweep_k,
    to_csv,
    to_svg,
)

__version__ = "0.1.0"
