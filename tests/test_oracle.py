"""Exhaustive-search oracle tests (pair grid and simplex LP)."""

import pytest

from segmentix import (
    Market,
    MarketInstance,
    ValidationError,
    Valuations,
    brute_force,
    brute_force_binary,
    brute_force_small,
    net_objective,
    solve_binary,
    solve_ri,
    tangency_posteriors,
    welfare,
)

V12 = Valuations((1.0, 2.0))
V123 = Valuations((1.0, 2.0, 3.0))
MU46 = Market((0.4, 0.6))


def test_binary_oracle_worked_instance():
    inst = MarketInstance(V12, MU46, 0.8)
    res = brute_force_binary(inst, grid_n=2000)
    assert res.method == "binary_grid"
    assert res.value == pytest.approx(1.2631339314688932, abs=1e-9)
    lo, hi = tangency_posteriors(V12, 0.8)
    seg_lo, seg_hi = res.segmentation.segments
    assert seg_lo.market[1] == pytest.approx(lo, abs=1.0 / 2000)
    assert seg_hi.market[1] == pytest.approx(hi, abs=1.0 / 2000)


def test_binary_oracle_expensive_information_prefers_pooling():
    res = brute_force_binary(MarketInstance(V12, MU46, 5.0), grid_n=1000)
    assert len(res.segmentation.segments) == 1
    assert res.value == pytest.approx(1.2, abs=1e-12)


def test_binary_oracle_zero_cost_full_discrimination():
    res = brute_force_binary(MarketInstance(V12, MU46, 0.0), grid_n=1000)
    assert res.value == pytest.approx(1.6, abs=1e-9)


def test_binary_oracle_sandwiches_solver():
    for share, k in ((0.3, 0.2), (0.6, 0.8), (0.8, 1.5), (0.45, 0.05)):
        mu = Market((1.0 - share, share))
        inst = MarketInstance(V12, mu, k)
        solver_value = net_objective(solve_binary(inst), V12, k)
        res = brute_force_binary(inst, grid_n=1500)
        assert res.value <= solver_value + 1e-6
        assert res.value >= solver_value - res.resolution_bound
        assert res.grid_value <= res.value + 1e-12


def test_binary_oracle_output_is_well_formed():
    res = brute_force_binary(MarketInstance(V12, MU46, 0.4), grid_n=800)
    assert res.segmentation.bayes_residual < 1e-9
    welfare(res.segmentation, V12, 0.4)  # raises if prices are not optimal


def test_simplex_oracle_agrees_with_iterative_solver():
    inst = MarketInstance(V123, Market((1 / 3, 1 / 3, 1 / 3)), 0.5)
    solver_value = net_objective(solve_ri(inst), V123, 0.5)
    res = brute_force_small(inst, grid_n=60)
    assert res.method == "simplex_lp"
    assert res.value == pytest.approx(solver_value, abs=1e-3)
    assert res.value <= solver_value + 1e-6


def test_simplex_oracle_degenerate_prior_zero_cost():
    inst = MarketInstance(V123, Market((0.0, 0.0, 1.0)), 0.0)
    res = brute_force_small(inst, grid_n=40)
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_simplex_oracle_heavy_cost_pools():
    inst = MarketInstance(V123, Market((0.2, 0.3, 0.5)), 100.0)
    res = brute_force_small(inst, grid_n=40)
    assert len(res.segmentation.segments) == 1
    # uniform revenue: prices earn (1.0, 1.6, 1.5); the middle price wins
    assert res.value == pytest.approx(1.6, abs=1e-9)


def test_dispatcher_selects_by_type_count():
    assert brute_force(MarketInstance(V12, MU46, 0.8), grid_n=500).method == "binary_grid"
    inst3 = MarketInstance(V123, Market((0.2, 0.3, 0.5)), 0.8)
    assert brute_force(inst3, grid_n=30).method == "simplex_lp"
    with pytest.raises(ValidationError) as err:
        brute_force(MarketInstance(Valuations((1, 2, 3, 4)), Market((0.25,) * 4), 0.5))
    assert err.value.invariant == "oracle_size"


def test_refine_improves_on_grid():
    inst = MarketInstance(V12, MU46, 0.8)
    result = brute_force_binary(inst, grid_n=200)
    assert result.value >= result.grid_value - 1e-15
    assert result.value == pytest.approx(1.2631339314688932, abs=1e-7)
