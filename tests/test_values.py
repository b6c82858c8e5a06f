"""Value semantics of the package's records and validated values.

Each record and value class is immutable; an object rebuilt from its
fields, unpickled or copied equals the original and hashes equal; and the
reprs that the byte audits hash (``scripts/oracle_fingerprint.py`` hashes
``repr`` of oracle results, which nests a segmentation's) stay exactly as
pinned here.
"""

import copy
import pickle

import pytest

from segmentix import (
    KGridSpec,
    Market,
    MarketInstance,
    RationalizationTarget,
    Valuations,
    boundary_always_segments,
    brute_force,
    construct_cost,
    induced_segments,
    solve,
    surplus_triangle,
    sweep_k,
    verify_optimality,
    verify_rationalization,
    welfare,
)

SOLVED_REPR = (
    "Segmentation(prior=Market(weights=(0.4, 0.6)), segments=("
    "Segment(market=Market(weights=(0.7772998611746912, 0.22270013882530887)), weight=0.31968977630139744, "
    "price_index=0), "
    "Segment(market=Market(weights=(0.22270013882530884, 0.7772998611746912)), weight=0.6803102236986025, "
    "price_index=1)))"
)
WELFARE_REPR = (
    "WelfareReport(cs=0.07119495756335315, ps_gross=1.3772998611746912, info_cost=0.11416592970579807, "
    "ps_net=1.2631339314688932, ts_gross=1.4484948187380442, ts_net=1.3343288890322462, segmented=True)"
)
OPTIMALITY_REPR = (
    "OptimalityReport(ilr_residual=2.2204460492503128e-16, slack_excess=2.220446049250313e-16, "
    "bayes_residual=0.0, passed=True, failures=(), price_slacks=(1.1102230246251565e-16, 2.220446049250313e-16))"
)

# class name -> the fields its constructor takes, in order
FIELDS = {
    "Valuations": ("values",),
    "Market": ("weights",),
    "Segment": ("market", "weight", "price_index"),
    "Segmentation": ("prior", "segments"),
    "MarketInstance": ("vals", "mu_star", "k"),
    "KGridSpec": ("lo", "hi", "n"),
    "SweepTable": ("rows",),
    "RationalizationTarget": ("cs", "ps", "vals", "mu_star"),
    "ConvexCostSpec": ("knots", "quadratics"),
    "WelfareReport": ("cs", "ps_gross", "info_cost", "ps_net", "ts_gross", "ts_net", "segmented"),
    "SurplusTriangle": ("uniform_profit", "full_surplus", "max_cs"),
    "OptimalityReport": ("ilr_residual", "slack_excess", "bayes_residual", "passed", "failures", "price_slacks"),
    "OracleResult": ("value", "upper", "grid_value", "segmentation", "grid_step", "resolution_bound", "method"),
    "RationalizationReport": (
        "passed", "best_is_pair", "argmax", "intended", "posterior_steps", "realized_cs", "realized_ps",
        "best_value", "no_seg_value", "grid_step", "messages",
    ),
    "SweepRow": ("k", "report", "n_segments", "prices", "verify", "error"),
    "BoundaryReport": ("always_segments", "min_straddle_slack", "min_gain", "argmin_k"),
    "InducedSegments": ("mu1", "mu2", "tau1"),
}  # fmt: skip


def _objects():
    vals, mu = Valuations((1.0, 2.0)), Market((0.4, 0.6))
    inst = MarketInstance(vals, mu, 0.8)
    seg = solve(inst)
    grid = KGridSpec(0.1, 10.0, 5)
    table = sweep_k(vals, mu, grid)
    low = Market((0.6, 0.4))
    target = RationalizationTarget(cs=0.2, ps=1.1, vals=vals, mu_star=low)
    induced = induced_segments(target)
    cost = construct_cost(induced.mu1, induced.mu2, induced.tau1, vals, low)
    return [
        vals, mu, seg.segments[0], seg, inst, grid, table, target, cost,
        welfare(seg, vals, 0.8), surplus_triangle(mu, vals), verify_optimality(seg, vals, 0.8),
        brute_force(inst, grid_n=400), verify_rationalization(cost, target), table.rows[0],
        boundary_always_segments(vals, [0.5, 1.0]), induced,
    ]  # fmt: skip


def _rebuilt(obj):
    return type(obj)(*[getattr(obj, name) for name in FIELDS[type(obj).__name__]])


def test_records_and_values_keep_their_semantics():
    vals, mu = Valuations((1.0, 2.0)), Market((0.4, 0.6))
    seg = solve(MarketInstance(vals, mu, 0.8))
    assert repr(seg) == SOLVED_REPR
    assert repr(welfare(seg, vals, 0.8)) == WELFARE_REPR
    assert repr(verify_optimality(seg, vals, 0.8)) == OPTIMALITY_REPR
    objects = _objects()
    assert {type(obj).__name__ for obj in objects} == set(FIELDS)
    for obj in objects:
        name = type(obj).__name__
        twin = _rebuilt(obj)
        assert twin == obj and hash(twin) == hash(obj), name
        assert repr(twin) == repr(obj), name
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj), name
        with pytest.raises(AttributeError):
            setattr(obj, FIELDS[name][0], getattr(obj, FIELDS[name][0]))
        with pytest.raises(AttributeError):
            delattr(obj, FIELDS[name][0])
    assert pickle.loads(pickle.dumps(seg)).bayes_residual == seg.bayes_residual
    for m in (mu, Market((0.1, 0.2, 0.7)), *(s.market for s in seg.segments)):
        assert Market(m.weights) == m
    assert mu != mu.weights and vals != Valuations((1.0, 3.0))  # a value equals only its own class, field for field
