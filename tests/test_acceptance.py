"""End-to-end acceptance runs.

Each criterion gets one test; the terminal summary prints one PASS/FAIL
line per criterion (see conftest). Budgets and tolerances are asserted
inside the tests themselves.
"""

import time

import numpy as np
import pytest

from segmentix import (
    KGridSpec,
    Market,
    MarketInstance,
    RationalizationTarget,
    ValidationError,
    Valuations,
    boundary_always_segments,
    brute_force,
    brute_force_binary,
    classify_monotonicity,
    concave_envelope,
    construct_cost,
    foc_residuals,
    induced_segments,
    net_objective,
    segmentation_threshold,
    solve,
    solve_binary,
    solve_ri,
    sweep_k,
    tangency_posteriors,
    verify_optimality,
    verify_rationalization,
    welfare,
)

V12 = Valuations((1.0, 2.0))

RATIOS = np.linspace(1.1, 10.0, 10)
K_MULTS = np.linspace(0.05, 20.0, 10)
MU_HIGHS = np.linspace(0.05, 0.95, 10)


@pytest.fixture(scope="module")
def closed_form_grid():
    """Both solvers over the 10x10x10 instance grid, solved once."""
    t0 = time.perf_counter()
    records = []
    for ratio in RATIOS:
        vals = Valuations((1.0, float(ratio)))
        for mu_high in MU_HIGHS:
            mu = Market((1.0 - float(mu_high), float(mu_high)))
            kbar = segmentation_threshold(vals, mu)
            for k in K_MULTS:
                inst = MarketInstance(vals, mu, float(k))
                records.append((inst, kbar, solve_binary(inst), solve_ri(inst)))
    return records, time.perf_counter() - t0


def _k3_instances(n: int) -> list[MarketInstance]:
    rng = np.random.default_rng(42)
    out = []
    while len(out) < n:
        w = np.sort(rng.uniform(0.5, 5.0, size=3))
        if w[1] - w[0] < 0.1 or w[2] - w[1] < 0.1:
            continue
        m = rng.dirichlet((2.0, 2.0, 2.0))
        k = float(rng.uniform(0.05, 2.0) * w[0])
        out.append(MarketInstance(Valuations(tuple(w)), Market(tuple(m)), k))
    return out


def test_criterion_01_closed_form_agreement(closed_form_grid):
    records, elapsed = closed_form_grid
    assert len(records) == 1000
    for inst, kbar, direct, iterated in records:
        if inst.k > kbar:
            assert len(direct.segments) == 1, inst
            assert len(iterated.segments) == 1, inst
            continue
        assert len(direct.segments) == 2, inst
        assert len(iterated.segments) == 2, inst
        a = sorted(direct.segments, key=lambda s: s.price_index)
        b = sorted(iterated.segments, key=lambda s: s.price_index)
        for sa, sb in zip(a, b):
            assert sa.price_index == sb.price_index
            assert abs(sa.weight - sb.weight) <= 1e-7
            for x, y in zip(sa.market.weights, sb.market.weights):
                assert abs(x - y) <= 1e-7
    assert elapsed < 30.0, f"grid took {elapsed:.1f}s"


def test_criterion_02_worked_instance():
    t0 = time.perf_counter()
    inst = MarketInstance(V12, Market((0.4, 0.6)), 0.8)
    seg = solve(inst)
    low, high = sorted(seg.segments, key=lambda s: s.price_index)
    assert low.market[1] == pytest.approx(0.22270, abs=1e-5)
    assert high.market[1] == pytest.approx(0.77730, abs=1e-5)
    assert low.weight == pytest.approx(0.31969, abs=1e-5)
    report = welfare(seg, V12, 0.8)
    assert report.cs == pytest.approx(0.0711950, abs=1e-5)
    assert report.ps_net == pytest.approx(1.2631339, abs=1e-5)
    assert report.info_cost == pytest.approx(0.1141659, abs=1e-5)
    assert report.ps_net > 1.2
    oracle = brute_force_binary(inst, grid_n=4000)
    assert oracle.value == pytest.approx(report.ps_net, abs=1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_certificates_on_grid(closed_form_grid):
    records, _ = closed_form_grid
    for inst, _, direct, iterated in records:
        for seg in (direct, iterated):
            report = verify_optimality(seg, inst.vals, inst.k, tol=1e-8)
            assert report.passed, (inst, report.failures)


def test_criterion_04_oracle_sandwich():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        w1 = float(rng.uniform(0.5, 3.0))
        w2 = w1 * float(rng.uniform(1.1, 8.0))
        m2 = float(rng.uniform(0.05, 0.95))
        k = float(rng.uniform(0.02, 5.0)) * w1
        inst = MarketInstance(Valuations((w1, w2)), Market((1.0 - m2, m2)), k)
        value = net_objective(solve_binary(inst), inst.vals, k)
        oracle = brute_force_binary(inst, grid_n=4000)
        assert oracle.value <= value + 1e-6
        assert oracle.value >= value - oracle.resolution_bound
        assert oracle.grid_value >= value - oracle.resolution_bound

    t0 = time.perf_counter()
    for inst in _k3_instances(10):
        value = net_objective(solve_ri(inst), inst.vals, inst.k)
        oracle = brute_force(inst)
        assert oracle.value <= value + 1e-6
        assert oracle.value >= value - oracle.resolution_bound
    assert time.perf_counter() - t0 < 300.0


def test_criterion_05_consumer_surplus_shapes():
    t0 = time.perf_counter()
    for w2 in (2.0, 3.0):
        vals = Valuations((1.0, w2))
        boundary = 1.0 / w2
        for m2 in np.linspace(0.05, boundary - 0.05, 20):
            mu = Market((1.0 - m2, m2))
            kbar = segmentation_threshold(vals, mu)
            table = sweep_k(vals, mu, KGridSpec(1e-3, 10.0 * kbar, 48))
            cs = [row.report.cs for row in table.rows]
            assert classify_monotonicity(cs) == "nondecreasing", (w2, m2)
        for m2 in np.linspace(boundary + 0.05, 0.95, 20):
            mu = Market((1.0 - m2, m2))
            kbar = segmentation_threshold(vals, mu)
            table = sweep_k(vals, mu, KGridSpec(1e-3, 10.0 * kbar, 48))
            cs = [row.report.cs for row in table.rows]
            assert classify_monotonicity(cs) == "nonmonotone", (w2, m2)
            assert cs[0] == 0.0 and cs[-1] == 0.0, (w2, m2)
            assert max(cs) > 0.0, (w2, m2)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_total_surplus_shapes():
    for w2 in (2.0, 3.0):
        vals = Valuations((1.0, w2))
        boundary = 1.0 / w2
        for m2 in np.linspace(boundary + 0.05, 0.95, 20):
            mu = Market((1.0 - m2, m2))
            kbar = segmentation_threshold(vals, mu)
            table = sweep_k(vals, mu, KGridSpec(1e-3, 10.0 * kbar, 48))
            ts = [row.report.ts_gross for row in table.rows]
            assert classify_monotonicity(ts) == "nonincreasing", (w2, m2)
        for m2 in np.linspace(0.05, boundary - 0.05, 20):
            mu = Market((1.0 - m2, m2))
            kbar = segmentation_threshold(vals, mu)
            table = sweep_k(vals, mu, KGridSpec(1e-3, 10.0 * kbar, 48))
            ts = [row.report.ts_gross for row in table.rows]
            efficient = (1.0 - m2) * 1.0 + m2 * w2
            assert classify_monotonicity(ts) == "nonmonotone", (w2, m2)
            assert abs(ts[0] - efficient) < 1e-9, (w2, m2)
            assert abs(ts[-1] - efficient) < 1e-9, (w2, m2)
            assert min(ts) < efficient - 1e-6, (w2, m2)


def test_criterion_07_boundary_prior_always_segments():
    grid = np.geomspace(1e-3, 1e3, 600)
    for pair in ((1.0, 2.0), (1.0, 3.0), (2.0, 5.0)):
        report = boundary_always_segments(Valuations(pair), grid)
        assert report.always_segments, pair
        assert report.min_gain > 0.0, pair
        assert report.min_straddle_slack > 0.0, pair


def test_criterion_08_support_and_local_invariance(closed_form_grid):
    records, _ = closed_form_grid
    for inst, _, direct, iterated in records:
        for seg in (direct, iterated):
            assert len(seg.segments) <= len(inst.vals)
            prices = [s.price_index for s in seg.segments]
            assert len(prices) == len(set(prices))
    for inst in _k3_instances(10):
        seg = solve_ri(inst)
        assert len(seg.segments) <= 3
        prices = [s.price_index for s in seg.segments]
        assert len(prices) == len(set(prices))

    # priors inside one tangency interval share the same segment markets
    k = 0.8
    x1, x2 = tangency_posteriors(V12, k)
    lows = np.linspace(0.26, 0.70, 10)
    for lo in lows:
        hi = lo + 0.04
        assert x1 < lo < hi < x2
        seg_a = solve(MarketInstance(V12, Market((1.0 - lo, lo)), k))
        seg_b = solve(MarketInstance(V12, Market((1.0 - hi, hi)), k))
        a = sorted(seg_a.segments, key=lambda s: s.price_index)
        b = sorted(seg_b.segments, key=lambda s: s.price_index)
        assert len(a) == len(b) == 2
        for sa, sb in zip(a, b):
            for x, y in zip(sa.market.weights, sb.market.weights):
                assert abs(x - y) <= 1e-10


def test_criterion_09_rationalizer_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    vals = V12
    prior = Market((0.6, 0.4))
    count = 0
    while count < 100:
        cs = rng.uniform(0.005, 0.395)
        ps = rng.uniform(1.0, 1.4 - cs)
        try:
            target = RationalizationTarget(cs=cs, ps=ps, vals=vals, mu_star=prior)
            seg = induced_segments(target)
            spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, vals, prior)
        except ValidationError:
            continue  # draw landed too close to the triangle's edge
        count += 1
        r1, r2 = foc_residuals(spec, seg, vals)
        assert abs(r1) < 1e-9 and abs(r2) < 1e-9, (cs, ps)
        report = verify_rationalization(spec, target, grid_n=4000)
        assert report.passed, (cs, ps, report.messages)
    assert time.perf_counter() - t0 < 120.0


ENVELOPE_PAIRS = (
    (1.0, 2.0, 0.05), (1.0, 2.0, 0.2), (1.0, 2.0, 0.8), (1.0, 2.0, 2.0), (1.0, 2.0, 5.0),
    (1.0, 3.0, 0.1), (1.0, 3.0, 0.5), (1.0, 3.0, 1.5), (1.0, 3.0, 4.0),
    (2.0, 5.0, 0.3), (2.0, 5.0, 1.0), (2.0, 5.0, 3.0), (2.0, 5.0, 12.0),
    (1.0, 1.5, 0.1), (1.0, 1.5, 0.5), (1.0, 1.5, 1.2),
    (1.0, 10.0, 0.5), (1.0, 10.0, 4.0), (1.0, 10.0, 8.0), (1.0, 4.0, 1.0),
)


def test_criterion_10_envelope_cross_check():
    grid_n = 100_000
    mu = Market((0.6, 0.4))
    assert len(ENVELOPE_PAIRS) == 20
    for w1, w2, k in ENVELOPE_PAIRS:
        vals = Valuations((w1, w2))
        kbar = segmentation_threshold(vals, mu)
        result = concave_envelope(vals, k, grid_n, mu_star=mu)
        if k > kbar:
            assert result.interval is None, (w1, w2, k)
            continue
        assert result.interval is not None, (w1, w2, k)
        x1, x2 = tangency_posteriors(vals, k)
        step = result.grid[1] - result.grid[0]
        assert abs(result.interval[0] - x1) <= 2.0 * step, (w1, w2, k)
        assert abs(result.interval[1] - x2) <= 2.0 * step, (w1, w2, k)
