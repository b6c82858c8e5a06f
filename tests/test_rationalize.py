"""Inverse problem: build a convex cost that makes a welfare target optimal."""

import ast
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from segmentix import rationalize
from segmentix.oracle import pair_scan
from segmentix import (
    ConvexCostSpec,
    InducedSegments,
    Market,
    RationalizationTarget,
    ValidationError,
    Valuations,
    construct_cost,
    foc_residuals,
    induced_segments,
    realized_welfare,
    tangency_posteriors,
    verify_rationalization,
)

V12 = Valuations((1.0, 2.0))
LOW_PRIOR = Market((0.6, 0.4))


def worked_target() -> RationalizationTarget:
    return RationalizationTarget(cs=0.2, ps=1.1, vals=V12, mu_star=LOW_PRIOR)


# -------------------- target validation --------------------

def test_target_rejects_nonbinary():
    with pytest.raises(ValidationError) as err:
        RationalizationTarget(
            cs=0.1, ps=1.2, vals=Valuations((1.0, 2.0, 3.0)), mu_star=Market((0.5, 0.3, 0.2))
        )
    assert err.value.invariant == "binary_only"


def test_target_rejects_high_prior():
    # a prior already pricing high has a different surplus geometry
    with pytest.raises(ValidationError) as err:
        RationalizationTarget(cs=0.1, ps=1.3, vals=V12, mu_star=Market((0.4, 0.6)))
    assert err.value.invariant == "price_region"


@pytest.mark.parametrize(
    "cs,ps",
    [
        (0.0, 1.1),     # no consumer surplus is the degenerate corner
        (0.4, 1.0),     # full-extraction corner
        (0.2, 1.0),     # uniform-profit edge
        (0.2, 1.2),     # efficient frontier, cs + ps = full surplus
        (0.5, 1.1),     # outside entirely
    ],
)
def test_target_rejects_boundary_and_exterior(cs, ps):
    with pytest.raises(ValidationError) as err:
        RationalizationTarget(cs=cs, ps=ps, vals=V12, mu_star=LOW_PRIOR)
    assert err.value.invariant == "rationalizable_region"


# -------------------- induced segments --------------------

def test_worked_target_induced_segments():
    seg = induced_segments(worked_target())
    assert seg.mu1 == pytest.approx(2.0 / 7.0, abs=1e-12)
    assert seg.mu2 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert seg.tau1 == pytest.approx(0.7, abs=1e-12)


def test_induced_segments_straddle_pricing_boundary():
    seg = induced_segments(worked_target())
    assert seg.mu1 < 0.5 < seg.mu2


@given(
    cs=st.floats(0.02, 0.38),
    ps_frac=st.floats(0.05, 0.95),
)
def test_realized_welfare_inverts_induced_segments(cs, ps_frac):
    # ps range shrinks as cs grows so the pair stays interior
    ps = 1.0 + ps_frac * (0.4 - cs)
    try:
        target = RationalizationTarget(cs=cs, ps=ps, vals=V12, mu_star=LOW_PRIOR)
    except ValidationError:
        return
    seg = induced_segments(target)
    got_cs, got_ps = realized_welfare(seg, V12)
    assert got_cs == pytest.approx(cs, abs=1e-9)
    assert got_ps == pytest.approx(ps, abs=1e-9)


# -------------------- cost spec invariants --------------------

def test_cost_spec_rejects_flat_piece():
    with pytest.raises(ValidationError) as err:
        ConvexCostSpec(knots=(0.0, 1.0), quadratics=((0.0, 1.0, 0.0),))
    assert err.value.invariant == "cost_convexity"


def test_cost_spec_rejects_bad_knots():
    with pytest.raises(ValidationError) as err:
        ConvexCostSpec(knots=(0.0, 0.5, 0.5, 1.0), quadratics=((1.0, 0, 0),) * 3)
    assert err.value.invariant == "cost_knots"
    with pytest.raises(ValidationError) as err:
        ConvexCostSpec(knots=(0.1, 1.0), quadratics=((1.0, 0, 0),))
    assert err.value.invariant == "cost_knots"


def test_cost_spec_rejects_a_knot_that_is_not_finite():
    # NaN compares False with both neighbours, so the increasing test alone lets it through
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError) as err:
            ConvexCostSpec(knots=(0.0, bad, 1.0), quadratics=((1.0, 0.0, 0.0),) * 2)
        assert err.value.invariant == "cost_knots"
        assert err.value.message == f"knots must be finite, got (0.0, {bad}, 1.0)"


def test_cost_spec_rejects_a_linear_or_constant_coefficient_that_is_not_finite():
    # a finite curvature with a NaN b or c would value every x as NaN
    for bad in (math.nan, math.inf, -math.inf):
        for quad, shown in (((1.0, bad, 0.0), f"b={bad}, c=0.0"), ((1.0, 0.0, bad), f"b=0.0, c={bad}")):
            with pytest.raises(ValidationError) as err:
                ConvexCostSpec(knots=(0.0, 0.5, 1.0), quadratics=((1.0, 0.0, 0.0), quad))
            assert err.value.invariant == "cost_finite"
            assert err.value.message == f"piece 1 has coefficients {shown}; both must be finite"


def test_cost_spec_rejects_shape_mismatch():
    for knots, quads in (((0.0, 0.5, 1.0), ((1.0, 0, 0),)), ((0.0, 1.0), ((1.0, 0.0),))):
        with pytest.raises(ValidationError) as err:
            ConvexCostSpec(knots=knots, quadratics=quads)
        assert err.value.invariant == "cost_shape"


def test_cost_spec_rejects_discontinuity():
    # second piece jumps in value at the interior knot
    with pytest.raises(ValidationError) as err:
        ConvexCostSpec(
            knots=(0.0, 0.5, 1.0),
            quadratics=((1.0, 0.0, 0.0), (1.0, 0.0, 0.5)),
        )
    assert err.value.invariant == "cost_continuity"


def test_cost_spec_evaluates_vectorized():
    spec = ConvexCostSpec(knots=(0.0, 1.0), quadratics=((2.0, -1.0, 0.25),))
    xs = np.linspace(0.0, 1.0, 7)
    np.testing.assert_allclose(spec.value(xs), 2 * xs**2 - xs + 0.25)
    np.testing.assert_allclose(spec.derivative(xs), 4 * xs - 1)
    assert spec.value(0.25) == pytest.approx(0.125)


def test_cost_spec_fields_are_float_tuples():
    # built from lists (and an int), a spec keeps neither: it hashes, equals
    # the tuple-built spec and cannot be changed through its fields
    knots, quads = [0.0, 0.5, 1.0], [[1.0, 0, 0.0], [1.0, 0.0, 0.0]]
    spec = ConvexCostSpec(knots=knots, quadratics=quads)
    twin = ConvexCostSpec(knots=(0.0, 0.5, 1.0), quadratics=((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    assert spec == twin and hash(spec) == hash(twin) and repr(spec) == repr(twin)
    assert type(spec.knots) is tuple and all(type(k) is float for k in spec.knots)
    assert all(type(q) is tuple and all(type(c) is float for c in q) for q in spec.quadratics)
    knots[1], quads[0][0] = 0.25, 50.0
    assert spec == twin and spec.value(0.25) == 0.0625


def test_cost_spec_on_a_float_matches_the_array_path():
    # the float path picks its piece by bisection and does the array path's
    # IEEE operations: the same bits at the knots, at 0 and 1, inside each
    # piece and outside [0, 1], where the end pieces extend
    target = RationalizationTarget(cs=0.2, ps=1.1, vals=Valuations((1.0, 2.0)), mu_star=Market((0.6, 0.4)))
    seg = induced_segments(target)
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, target.vals, target.mu_star)
    ks = spec.knots
    inside = [a + f * (b - a) for a, b in zip(ks, ks[1:]) for f in (1e-9, 0.3, 0.5, 0.9)]
    edges = [float(np.nextafter(k, d)) for k in ks for d in (-np.inf, np.inf)]
    xs = [*ks, *inside, *edges, -0.5, -1e-300, 1.5, 1e10, -np.inf, np.inf, np.nan]
    grid = np.array(xs)
    for method in (spec.value, spec.derivative):
        on_grid = method(grid)
        for x, want in zip(xs, on_grid):
            got = method(x)
            assert type(got) is float, (method, x)
            assert np.float64(got).tobytes() == want.tobytes(), (method, x, got, want)
        assert type(method(np.float64(0.3))) is float


# -------------------- construction --------------------

def test_construct_cost_worked_values():
    seg = induced_segments(worked_target())
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, LOW_PRIOR)
    assert spec.knots == pytest.approx((0.0, 2.0 / 7.0, 0.5, 2.0 / 3.0, 1.0))
    assert spec.derivative(seg.mu1) == pytest.approx(-0.875)
    assert spec.derivative(seg.mu2) == pytest.approx(1.125)
    assert spec.derivative(0.5) == pytest.approx(0.0, abs=1e-12)
    # both tangency points sit at cost zero under the chosen normalization
    assert spec.value(seg.mu1) == pytest.approx(0.0, abs=1e-12)
    assert spec.value(seg.mu2) == pytest.approx(0.0, abs=1e-12)
    assert spec.value(0.0) == pytest.approx(0.2908163265306124)
    assert spec.value(1.0) == pytest.approx(0.4305555555555555)


def test_constructed_derivative_strictly_increases():
    seg = induced_segments(worked_target())
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, LOW_PRIOR)
    xs = np.linspace(0.0, 1.0, 10_001)
    dx = np.diff(spec.derivative(xs))
    assert np.all(dx > 0.0)


def test_construct_cost_rejects_bad_segments():
    with pytest.raises(ValidationError) as err:
        construct_cost(0.7, 0.3, 0.5, V12, LOW_PRIOR)
    assert err.value.invariant == "cost_segments"


def test_foc_residuals_vanish_on_worked_target():
    seg = induced_segments(worked_target())
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, LOW_PRIOR)
    r1, r2 = foc_residuals(spec, seg, V12)
    assert abs(r1) < 1e-12
    assert abs(r2) < 1e-12


# -------------------- verification --------------------

@pytest.mark.parametrize("grid_n", [4000, 32000])
def test_verify_worked_target_passes(grid_n):
    # 32000 is cheap only because the best chord is found in O(n) array passes
    target = worked_target()
    seg = induced_segments(target)
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, LOW_PRIOR)
    rep = verify_rationalization(spec, target, grid_n=grid_n)
    assert rep.passed
    assert rep.best_is_pair
    assert rep.posterior_steps <= 2.0
    assert rep.realized_cs == pytest.approx(0.2, abs=1e-3)
    assert rep.realized_ps == pytest.approx(1.1, abs=1e-3)
    assert rep.best_value >= rep.no_seg_value


def test_verify_rejects_coarse_grid():
    target = worked_target()
    seg = induced_segments(target)
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, LOW_PRIOR)
    with pytest.raises(ValidationError) as err:
        verify_rationalization(spec, target, grid_n=100)
    assert err.value.invariant == "grid_size"


def test_verify_flags_cost_that_misses_target():
    # a symmetric quadratic bowl pulls the argmax away from the intended pair
    target = worked_target()
    bowl = ConvexCostSpec(knots=(0.0, 1.0), quadratics=((0.05, -0.05, 0.0),))
    rep = verify_rationalization(bowl, target, grid_n=4000)
    assert not rep.passed


# -------------------- the best pair against every pair --------------------

def _seeded_targets(n, seed):
    """Constructible targets drawn through their segments, w2/w1 in [1.05, 12].

    Every fifth prior is snapped onto the verification grid. Priors within
    rounding of a grid point without sitting on it (0.35 against linspace's
    0.35000000000000003) are avoided by drawing off round numbers: where the
    cost is concave around such a prior, every pair ending at that grid
    point scores within an ulp of the same value, and the scan's pick among
    them is rounding noise rather than a best chord.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        grid_n = 2000 if rng.uniform() < 0.65 else 4000
        w2 = float(rng.uniform(1.05, 12.0))
        r = 1.0 / w2
        mu1 = r * rng.uniform(0.05, 0.95)
        mu2 = r + (1.0 - r) * rng.uniform(0.05, 0.95)
        tau_min = (mu2 - r) / (mu2 - mu1)
        tau1 = tau_min + (1.0 - tau_min) * rng.uniform(0.05, 0.95)
        mu = tau1 * mu1 + (1.0 - tau1) * mu2
        if len(out) % 5 == 4:
            mu = float(np.linspace(0.0, 1.0, grid_n + 1)[round(mu * grid_n)])
        prior = Market((1.0 - mu, mu))
        if prior[1] != mu or not mu1 < mu < min(mu2, r):
            continue
        tau1 = (mu2 - mu) / (mu2 - mu1)
        vals = Valuations((1.0, w2))
        cs, ps = realized_welfare(InducedSegments(mu1=mu1, mu2=mu2, tau1=tau1), vals)
        try:
            target = RationalizationTarget(cs=cs, ps=ps, vals=vals, mu_star=prior)
            seg = induced_segments(target)
            spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, vals, prior)
        except ValidationError:
            continue
        out.append((target, spec, grid_n))
    return out


def _same_report(target, spec, grid_n, monkeypatch, reference):
    got = verify_rationalization(spec, target, grid_n=grid_n)
    with monkeypatch.context() as m:
        m.setattr(rationalize, "pair_scan", reference)
        want = verify_rationalization(spec, target, grid_n=grid_n)
    # argmax, best_value, posterior_steps, passed and messages, bit for bit
    assert got == want
    return got


def test_hull_matches_pair_scan_on_seeded_targets(monkeypatch, exhaustive_pair_scan):
    cases = _seeded_targets(200, seed=3)
    for target, spec, grid_n in cases:
        _same_report(target, spec, grid_n, monkeypatch, exhaustive_pair_scan)
    # every fifth prior is on the grid, and both grid sizes are covered
    assert sum(t.mu_star[1] in np.linspace(0.0, 1.0, n + 1) for t, _, n in cases) >= 40
    assert {n for _, _, n in cases} == {2000, 4000}


@pytest.mark.parametrize(
    "curvature,pair_wins",
    [(0.05, True), (10.0, False)],  # the bowl of the test above; a steep one where no segmentation wins
)
def test_hull_matches_pair_scan_on_bowl_costs(curvature, pair_wins, monkeypatch, exhaustive_pair_scan):
    bowl = ConvexCostSpec(knots=(0.0, 1.0), quadratics=((curvature, -0.05, 0.0),))
    rep = _same_report(worked_target(), bowl, 4000, monkeypatch, exhaustive_pair_scan)
    assert not rep.passed
    assert rep.best_is_pair == pair_wins
    for target, _, grid_n in _seeded_targets(10, seed=5):
        assert not _same_report(target, bowl, grid_n, monkeypatch, exhaustive_pair_scan).passed


def _grid_curve(target, cost, x):
    """The verification objective on ``x``: best revenue minus the cost."""
    return np.maximum(target.vals[0], target.vals[1] * x) - cost.value(x)


def _chord_matches(x, phi, mu, reference):
    """``pair_scan``'s value and pair against the exhaustive scan's, bit for bit."""
    chord = pair_scan(x, phi, mu)
    want = reference(x, phi, mu)
    assert np.float64(chord[0]).tobytes() == np.float64(want[0]).tobytes(), (mu, chord, want)
    assert np.array(chord[1]).tobytes() == np.array(want[1]).tobytes(), (mu, chord, want)
    return chord


BOWLS = tuple(ConvexCostSpec(knots=(0.0, 1.0), quadratics=((c, -0.05, 0.0),)) for c in (0.05, 10.0))


@pytest.mark.parametrize("seed", [3, 5, 7, 11])
def test_pair_scan_matches_exhaustive_scan_on_seeded_targets(seed, exhaustive_pair_scan):
    # constructed costs, and both bowls, where no segmentation or a far pair wins
    for target, spec, grid_n in _seeded_targets(300, seed):
        x = np.linspace(0.0, 1.0, grid_n + 1)
        for cost in (spec, *BOWLS):
            _chord_matches(x, _grid_curve(target, cost, x), target.mu_star[1], exhaustive_pair_scan)


def _benchmark_targets(n, seed):
    """Targets drawn as the benchmark draws them: w1 = 1, w2 in [1.5, 3]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        w2 = float(rng.uniform(1.5, 3.0))
        r = 1.0 / w2
        mu1 = r * rng.uniform(0.15, 0.85)
        mu2 = r + (1.0 - r) * rng.uniform(0.15, 0.85)
        tau_min = (mu2 - r) / (mu2 - mu1)
        tau1 = tau_min + (1.0 - tau_min) * rng.uniform(0.15, 0.85)
        mu = tau1 * mu1 + (1.0 - tau1) * mu2
        vals = Valuations((1.0, w2))
        cs, ps = realized_welfare(InducedSegments(mu1=mu1, mu2=mu2, tau1=tau1), vals)
        out.append(RationalizationTarget(cs=cs, ps=ps, vals=vals, mu_star=Market((1.0 - mu, mu))))
    return out


def test_pair_scan_matches_exhaustive_scan_on_benchmark_targets(exhaustive_pair_scan):
    for target in _benchmark_targets(60, seed=13):
        seg = induced_segments(target)
        spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, target.vals, target.mu_star)
        for grid_n in (4000, 8000):
            assert verify_rationalization(spec, target, grid_n=grid_n).passed
            x = np.linspace(0.0, 1.0, grid_n + 1)
            _chord_matches(x, _grid_curve(target, spec, x), target.mu_star[1], exhaustive_pair_scan)


_VERTEX_BOWL_CURVATURE = 28.00254761331998


def _vertex_prior_target():
    """A grid prior (0.365 at grid 2000 and 4000) that a bowl centred on it makes a hull vertex."""
    return RationalizationTarget(cs=0.1656219420665827, ps=1.0828109710332914,
                                 vals=Valuations((1.0, 1.9075174907757957)), mu_star=Market((0.635, 0.365)))


def test_pair_scan_matches_exhaustive_scan_on_vertex_priors(exhaustive_pair_scan):
    # bowls centred on a grid prior make it a hull vertex: no pair reaches phi(mu)
    rng = np.random.default_rng(17)
    vertices = 0
    snapped = [(t, n) for t, _, n in _seeded_targets(200, seed=19)[4::5]]  # priors on the grid
    cases = [(t, n, c) for t, n in snapped for c in 10.0 ** rng.uniform(-1.0, 3.0, size=3)]
    cases += [(_vertex_prior_target(), n, _VERTEX_BOWL_CURVATURE) for n in (2000, 4000)]
    for target, grid_n, curvature in cases:
        mu = target.mu_star[1]
        bowl = ConvexCostSpec(knots=(0.0, 1.0), quadratics=((curvature, -2.0 * curvature * mu, 0.0),))
        x = np.linspace(0.0, 1.0, grid_n + 1)
        phi = _grid_curve(target, bowl, x)
        value, _ = _chord_matches(x, phi, mu, exhaustive_pair_scan)
        vertices += value < phi[np.flatnonzero(x == mu)[0]]
    assert vertices >= 30


def test_pair_scan_matches_exhaustive_scan_on_increasing_grids(exhaustive_pair_scan):
    # linspace with the intended segments and random points inserted, as a
    # grid that also holds the bitangent points would be
    rng = np.random.default_rng(23)
    for target, spec, grid_n in _seeded_targets(100, seed=29):
        seg = induced_segments(target)
        extra = np.concatenate([[seg.mu1, seg.mu2], rng.uniform(0.0, 1.0, int(rng.integers(1, 40)))])
        x = np.union1d(np.linspace(0.0, 1.0, grid_n + 1), extra)
        assert np.all(np.diff(x) > 0.0) and not np.allclose(np.diff(x), 1.0 / grid_n)
        _chord_matches(x, _grid_curve(target, spec, x), target.mu_star[1], exhaustive_pair_scan)


def _near_floor_cost(mu1, mu2, m, bend, w2):
    """A constructed-cost shape whose piece on [mu1, m] bends at ``bend``."""
    d1 = (1.0 - w2 * mu2) / (mu2 - mu1)
    knots = (0.0, mu1, m, mu2, 1.0)
    derivs = (d1 - mu1, d1, d1 + bend * (m - mu1), w2 + d1, w2 + d1 + 1.0 - mu2)
    values = [0.0]
    for i in range(1, 5):
        values.append(values[-1] + 0.5 * (derivs[i - 1] + derivs[i]) * (knots[i] - knots[i - 1]))
    quads = []
    for i in range(4):
        s = (derivs[i + 1] - derivs[i]) / (knots[i + 1] - knots[i])
        b = derivs[i] - s * knots[i]
        quads.append((0.5 * s, b, values[i] - (0.5 * s * knots[i] + b) * knots[i]))
    return ConvexCostSpec(knots=knots, quadratics=tuple(quads))


def test_pair_scan_matches_exhaustive_scan_near_slope_floor(exhaustive_pair_scan):
    # curvature 1-4x SLOPE_FLOOR next to the intended low segment: near-collinear grid runs
    rng = np.random.default_rng(31)
    for target, _, grid_n in _seeded_targets(120, seed=37):
        seg = induced_segments(target)
        m = seg.mu1 + rng.uniform(0.2, 0.8) * (seg.mu2 - seg.mu1)
        spec = _near_floor_cost(seg.mu1, seg.mu2, m, rationalize.SLOPE_FLOOR * rng.uniform(1.0, 4.0),
                                target.vals[1])
        assert min(2.0 * a for a, _, _ in spec.quadratics) < 4.0 * rationalize.SLOPE_FLOOR
        x = np.linspace(0.0, 1.0, grid_n + 1)
        _chord_matches(x, _grid_curve(target, spec, x), target.mu_star[1], exhaustive_pair_scan)


def _flat_curves():
    """60 nearly straight concave grid curves (x, phi, mu), grids 2000 and 4000."""
    rng = np.random.default_rng(41)
    for _ in range(60):
        grid_n = int(rng.choice([2000, 4000]))
        x = np.linspace(0.0, 1.0, grid_n + 1)
        mu = float(rng.uniform(0.01, 0.99))
        if rng.uniform() < 0.3:
            mu = float(x[round(mu * grid_n)])
        phi = 1.0 + rng.uniform(-3.0, 3.0) * x - 10.0 ** rng.uniform(-20.0, -2.0) * (x - 0.5) ** 2
        yield x, phi, mu


def test_pair_scan_matches_exhaustive_scan_on_flat_curves(exhaustive_pair_scan):
    # every point of a concave curve is a hull vertex, and at curvature near
    # rounding float ties can make the tangent search cycle; many points lie
    # within the scan's rounding slack of its line, so it scores large blocks
    for x, phi, mu in _flat_curves():
        _chord_matches(x, phi, mu, exhaustive_pair_scan)


def test_pair_scan_memory_is_bounded_on_flat_curves():
    # a block can span most of the n**2 / 4 pairs here (8 million cells at
    # grid 4000, 150 MB of temporaries in one piece); it is scored in chunks
    peak = 0
    for x, phi, mu in _flat_curves():
        tracemalloc.start()
        try:
            pair_scan(x, phi, mu)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peak < 16e6


def test_verify_reports_prior_on_a_hull_vertex_as_no_segmentation():
    # phi(mu) + c(mu) rounds above max(w1, w2 mu) here, but no pair
    # straddling the prior reaches it: the report quotes the best pair's value
    a = _VERTEX_BOWL_CURVATURE
    bowl = ConvexCostSpec(knots=(0.0, 1.0), quadratics=((a, -2.0 * a * 0.365, 0.0),))
    for grid_n in (2000, 4000):
        rep = verify_rationalization(bowl, _vertex_prior_target(), grid_n=grid_n)
        assert not rep.passed and not rep.best_is_pair and rep.argmax is None
        assert rep.best_value == rep.no_seg_value == 1.0
        (message,) = rep.messages
        quoted = re.fullmatch(r"no-segmentation value 1\.0 beats every pair \((.+)\)", message)
        assert quoted and float(quoted.group(1)) < rep.no_seg_value


def test_rationalize_imports_only_market_and_oracle():
    # the inverse check must not pull in the sweeps, and through them the solver
    tree = ast.parse(Path(rationalize.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert relative == {"market", "oracle"}


# -------------------- consistency with the forward solver --------------------

def test_entropy_locus_target_round_trips():
    # welfare produced by the forward solution at k = 0.8 must be
    # rationalizable, and the reconstruction must recover the same pair
    x1, x2 = tangency_posteriors(V12, 0.8)
    tau = (x2 - 0.4) / (x2 - x1)
    cs, ps = realized_welfare(InducedSegments(mu1=x1, mu2=x2, tau1=tau), V12)
    assert cs == pytest.approx(0.15150518126195567)
    assert ps == pytest.approx(1.1772998611746912)

    target = RationalizationTarget(cs=cs, ps=ps, vals=V12, mu_star=LOW_PRIOR)
    back = induced_segments(target)
    assert back.mu1 == pytest.approx(x1, abs=1e-12)
    assert back.mu2 == pytest.approx(x2, abs=1e-12)
    assert back.tau1 == pytest.approx(tau, abs=1e-12)

    spec = construct_cost(back.mu1, back.mu2, back.tau1, V12, LOW_PRIOR)
    d_gap = spec.derivative(back.mu2) - spec.derivative(back.mu1)
    assert d_gap == pytest.approx(2.0, abs=1e-12)
    # the constructed derivative gap agrees with the entropy cost's own
    # tangent-slope gap at the same pair of posteriors
    logit = lambda x: math.log(x / (1.0 - x))
    assert 0.8 * (logit(x2) - logit(x1)) == pytest.approx(d_gap, abs=1e-12)

    rep = verify_rationalization(spec, target, grid_n=4000)
    assert rep.passed


def test_many_interior_targets_pass(subtests=None):
    rng = np.random.default_rng(7)
    fails = 0
    for _ in range(25):
        cs = rng.uniform(0.02, 0.38)
        ps = 1.0 + rng.uniform(0.02, 0.98) * (0.4 - cs)
        try:
            target = RationalizationTarget(cs=cs, ps=ps, vals=V12, mu_star=LOW_PRIOR)
            seg = induced_segments(target)
        except ValidationError:
            continue
        spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, LOW_PRIOR)
        rep = verify_rationalization(spec, target, grid_n=2000)
        if not rep.passed:
            fails += 1
    assert fails == 0
