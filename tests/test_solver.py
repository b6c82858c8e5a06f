"""Closed-form solver and first-order optimality certificate tests."""

import math

import numpy as np
import pytest

from segmentix import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    net_objective,
    no_segmentation,
    perfect_discrimination,
    segmentation_threshold,
    solve,
    solve_binary,
    solve_ri,
    verify_optimality,
    welfare,
)

V12 = Valuations((1.0, 2.0))
V123 = Valuations((1.0, 2.0, 3.0))
MU46 = Market((0.4, 0.6))


def test_iterative_matches_closed_form_on_worked_instance():
    inst = MarketInstance(V12, MU46, 0.8)
    got = solve_ri(inst)
    want = solve_binary(inst)
    assert len(got.segments) == len(want.segments) == 2
    for g, w in zip(got.segments, want.segments):
        assert g.price_index == w.price_index
        assert g.weight == pytest.approx(w.weight, abs=1e-9)
        for a, b in zip(g.market.weights, w.market.weights):
            assert a == pytest.approx(b, abs=1e-9)


def test_iterative_refuses_above_threshold():
    seg = solve_ri(MarketInstance(V12, MU46, 5.0))
    assert len(seg.segments) == 1
    assert seg.segments[0].price_index == 1


def test_iterative_heavy_cost_no_segmentation():
    seg = solve_ri(MarketInstance(V12, MU46, 50.0))
    assert len(seg.segments) == 1
    assert seg.segments[0].price_index == 1


def test_iterative_three_types_passes_certificate():
    inst = MarketInstance(V123, Market((1 / 3, 1 / 3, 1 / 3)), 0.5)
    seg = solve_ri(inst)
    assert len(seg.segments) <= 3
    report = verify_optimality(seg, V123, 0.5, tol=1e-8)
    assert report.passed, report.failures
    prices = [s.price_index for s in seg.segments]
    assert len(prices) == len(set(prices))


def test_iterative_zero_cost_perfect_discrimination():
    inst = MarketInstance(V123, Market((0.2, 0.3, 0.5)), 0.0)
    seg = solve_ri(inst)
    rep = welfare(seg, V123, 0.0)
    assert rep.ps_gross == pytest.approx(0.2 + 0.6 + 1.5, abs=1e-12)
    assert rep.cs == 0.0


def test_solve_dispatcher_uses_closed_form_for_two_types():
    inst = MarketInstance(V12, MU46, 0.8)
    assert solve(inst).segments == solve_binary(inst).segments


def test_iterative_deterministic():
    inst = MarketInstance(V123, Market((0.5, 0.2, 0.3)), 0.7)
    a = solve_ri(inst)
    b = solve_ri(inst)
    assert a.segments == b.segments


def test_small_cost_with_tiny_type_is_certified():
    # exp((S - v) / k) is the identity to double precision; perfect
    # discrimination passes the certificate and is returned
    vals = Valuations((1.1850924593921786, 3.8020827553407517, 4.048053720371515, 4.689562813494701))
    prior = Market((0.0286410808980551, 4.340621750876239e-11, 0.47790271474479623, 0.4934562043137425))
    k = 0.00016120592382723196
    seg = solve(MarketInstance(vals, prior, k))
    assert verify_optimality(seg, vals, k, tol=1e-8).passed


# -------------------- regime changes --------------------
# Near a cost scale where the optimal set of prices changes, the entering
# price's optimal mass vanishes; each solve must pass its certificate.


def _assert_certified(vals, prior, k):
    seg = solve_ri(MarketInstance(vals, prior, k))
    report = verify_optimality(seg, vals, k, tol=1e-8)
    assert report.passed, (k, report.failures)
    return seg


@pytest.mark.parametrize("j", range(1, 7))
def test_two_types_just_below_threshold(j):
    prior = Market((0.6, 0.4))
    _assert_certified(V12, prior, (1.0 - 10.0**-j) * segmentation_threshold(V12, prior))


KBAR_123 = segmentation_threshold(V123, Market((0.3, 0.4, 0.3)))


def test_three_type_threshold_is_one_over_ln_2():
    # no segmentation's certificate of (1, 2, 3)/(0.3, 0.4, 0.3) binds first at price 3, at k = 1/ln 2
    assert abs(KBAR_123 - 1.0 / math.log(2.0)) <= 2.0 * math.ulp(1.0 / math.log(2.0))


@pytest.mark.parametrize("k", [1.4425] + [(1.0 - 10.0**-j) / math.log(2.0) for j in range(1, 7)])
def test_three_types_just_below_threshold(k):
    # each k is (1 - 10**-j) k-bar to within the 2 ulps pinned above, so the prior segments
    prior = Market((0.3, 0.4, 0.3))
    assert k < KBAR_123
    assert len(_assert_certified(V123, prior, float(k)).segments) > 1


@pytest.mark.parametrize("K", range(2, 9))
def test_threshold_separates_segmenting_from_not(K):
    # below k-bar no segmentation misses a profitable price, above it misses none
    rng = np.random.default_rng(K)
    for _ in range(60):
        vals = Valuations(tuple(np.cumsum(rng.uniform(0.2, 2.0, K))))
        prior = Market(tuple(rng.dirichlet(np.ones(K))))
        kbar = segmentation_threshold(vals, prior)
        whole = no_segmentation(prior, vals)
        for factor in (0.99, 0.999, 1.0001, 1.01):
            k = factor * kbar
            slacks = verify_optimality(whole, vals, k).price_slacks
            slack = max(x for t, x in enumerate(slacks) if t != whole.segments[0].price_index)
            seg = solve(MarketInstance(vals, prior, k))
            assert verify_optimality(seg, vals, k).passed, (vals, prior, factor)
            if factor < 1.0:
                assert slack > 0.0, (vals, prior)
                assert len(seg.segments) > 1, (vals, prior)
            else:
                assert slack <= 0.0 and len(seg.segments) == 1, (vals, prior)


def test_near_tie_segments_just_below_threshold():
    # the best two prices nearly tie, so k-bar is in the thousands and the
    # price that enters below it carries little mass; it must still enter
    vals = Valuations((0.4611673850768336, 2.1368678557895024, 2.6084845075673475, 4.008463111259573))
    prior = Market((0.176570282057588, 0.14895941049685418, 0.2600821352508255, 0.4143881721947323))
    kbar = segmentation_threshold(vals, prior)
    assert 1900.0 < kbar < 2000.0
    for factor, small in ((0.99, 5e-3), (0.999, 5e-4)):
        k = factor * kbar
        seg = solve(MarketInstance(vals, prior, k))
        assert verify_optimality(seg, vals, k).passed
        assert len(seg.segments) == 2
        assert min(s.weight for s in seg.segments) == pytest.approx(small, rel=0.2)


def test_three_type_sweep_across_support_changes():
    vals = Valuations((3.313, 3.991, 4.537))
    prior = Market((0.138, 0.125, 0.737))
    for k in np.geomspace(0.04537, 45.37, 100):
        _assert_certified(vals, prior, float(k))


# -------------------- certificate --------------------

def test_certificate_accepts_closed_form_output():
    seg = solve_binary(MarketInstance(V12, MU46, 0.8))
    report = verify_optimality(seg, V12, 0.8, tol=1e-8)
    assert report.passed
    assert report.ilr_residual < 1e-10
    assert report.bayes_residual < 1e-12


def test_certificate_rejects_perturbed_posterior():
    seg = solve_binary(MarketInstance(V12, MU46, 0.8))
    lo = seg.segments[0].market[1]
    hi = seg.segments[1].market[1] + 0.01
    tau_lo = (hi - 0.6) / (hi - lo)  # weight that restores Bayes plausibility
    perturbed = Segmentation(
        MU46,
        [
            Segment(Market((1.0 - lo, lo)), tau_lo, 0),
            Segment(Market((1.0 - hi, hi)), 1.0 - tau_lo, 1),
        ],
    )
    report = verify_optimality(perturbed, V12, 0.8, tol=1e-8)
    assert not report.passed
    assert "likelihood_ratio_invariance" in report.failures
    assert 1e-3 < report.ilr_residual < 0.2


def test_certificate_no_segmentation_slack():
    from segmentix import no_segmentation

    seg = no_segmentation(MU46, V12)
    report = verify_optimality(seg, V12, 5.0, tol=1e-8)
    assert report.passed
    # chosen price binds with equality, the unchosen low price has slack
    assert report.price_slacks[1] == pytest.approx(0.0, abs=1e-12)
    want = 0.4 * math.exp(0.2) + 0.6 * math.exp(-0.2) - 1.0
    assert report.price_slacks[0] == pytest.approx(want, abs=1e-12)
    assert report.price_slacks[0] < 0.0


def test_certificate_rejects_nan_or_negative_tolerance():
    # a NaN tolerance passed every segmentation: here one that keeps too much whole
    seg = no_segmentation(MU46, V12)
    assert not verify_optimality(seg, V12, 0.3).passed
    for tol in (math.nan, -1e-8, -math.inf):
        for k in (0.3, 0.0):
            with pytest.raises(ValidationError) as err:
                verify_optimality(seg, V12, k, tol=tol)
            assert err.value.invariant == "tolerance"
    with pytest.raises(ValidationError) as err:  # the cost scale is checked first
        verify_optimality(seg, V12, math.nan, tol=math.nan)
    assert err.value.invariant == "cost_scale"
    verify_optimality(seg, V12, 5.0, tol=0.0)  # zero is a tolerance


def test_certificate_zero_cost_accepts_only_point_masses():
    from segmentix import no_segmentation, perfect_discrimination

    ppd = perfect_discrimination(MU46, V12)
    assert verify_optimality(ppd, V12, 0.0).passed
    pooled = no_segmentation(MU46, V12)
    assert not verify_optimality(pooled, V12, 0.0).passed


def test_certificate_accepts_underflow_point_masses():
    # tiny cost scale: closed forms collapse to exact point masses and the
    # zero entries must be excused by their vanishing implied mass
    seg = solve_binary(MarketInstance(V12, MU46, 1e-3))
    report = verify_optimality(seg, V12, 1e-3, tol=1e-8)
    assert report.passed, report.failures


def test_certificate_flags_duplicate_price_split():
    # splitting one price across two distinct posteriors breaks the
    # likelihood-ratio invariant
    prior = Market((0.7, 0.3))
    seg = Segmentation(prior, [Segment(Market((0.8, 0.2)), 0.5, 0), Segment(Market((0.6, 0.4)), 0.5, 0)])
    report = verify_optimality(seg, V12, 0.8, tol=1e-8)
    assert not report.passed
    assert "likelihood_ratio_invariance" in report.failures


@pytest.mark.parametrize("implied,flagged", [(1.5e-12, True), (1e-12 / 1.5, False)])
def test_certificate_zero_mass_threshold(implied, flagged):
    # type 0 holds half of the price-1 segment and none of the price-2 one; the
    # invariant implies it mass 0.5 exp(-1/k) there, flagged from 1e-12 on
    k = 1.0 / math.log(0.5 / implied)
    seg = Segmentation(Market((0.25, 0.75)), [Segment(Market((0.0, 1.0)), 0.5, 1), Segment(Market((0.5, 0.5)), 0.5, 0)])
    failures = verify_optimality(seg, V12, k).failures
    assert ("zero_mass_type_0_segment_0" in failures) == flagged, failures


def test_certificate_at_a_subnormal_cost_scale():
    # payoff gaps over k = 1e-310 overflow to -inf: every served type's term at
    # price 2 is -inf, which is a slack of -1, and type 0 and 2 are served
    vals, prior = V123, Market((0.5, 0.0, 0.5))
    report = verify_optimality(perfect_discrimination(prior, vals), vals, 1e-310)
    assert report.passed, report.failures
    assert report.price_slacks == (0.0, -1.0, 0.0)


def _extreme_scale_draw(rng, K):
    # each type's valuation at its own scale, so v_K / v_1 reaches 1e13
    vals = Valuations(np.sort(rng.uniform(0.1, 10.0, K) * 10.0 ** rng.uniform(-6.0, 6.0, K)))
    return vals, Market(rng.dirichlet(np.ones(K)))


@pytest.mark.parametrize("K", [2, 3, 4, 8])
def test_extreme_scale_solves_pass_their_certificate(K):
    # v/k up to 1e10: the certificate's terms are payoff differences, so an
    # exact optimum passes however large v/k is
    for s in (1, 2, 3):
        rng = np.random.default_rng([s, K])
        for _ in range(200):
            vals, prior = _extreme_scale_draw(rng, K)
            k = vals[-1] * 10.0 ** rng.uniform(-10.0, 0.0)
            report = verify_optimality(solve(MarketInstance(vals, prior, k)), vals, k)
            assert report.passed, (vals, prior, k, report)


def test_no_segmentation_passes_just_above_threshold():
    # k-bar is read off the no-segmentation certificate's payoff differences;
    # the certificate must agree with it at every scale
    for K in (2, 3, 4):
        for s in (1, 2, 3):
            rng = np.random.default_rng([s, K, 5])
            for _ in range(300):
                vals, prior = _extreme_scale_draw(rng, K)
                k = 1.001 * segmentation_threshold(vals, prior)
                report = verify_optimality(no_segmentation(prior, vals), vals, k)
                assert report.passed, (vals, prior, k, report)


@pytest.mark.parametrize("K", [3, 4, 6])
def test_tiny_shares_are_certified(K):
    # one type's share from 1e-200 to 1e-8, at cost scales around k-bar
    rng = np.random.default_rng([K, 25])
    for _ in range(100):
        vals = Valuations(tuple(np.cumsum(rng.uniform(0.2, 2.0, K))))
        w = rng.dirichlet(np.ones(K))
        w[rng.integers(K)] = 10.0 ** rng.uniform(-200.0, -8.0)
        prior = Market(tuple(w / math.fsum(w)))
        k = segmentation_threshold(vals, prior) * 10.0 ** rng.uniform(-3.0, 0.5)
        seg = solve(MarketInstance(vals, prior, k))
        assert verify_optimality(seg, vals, k).passed, (vals, prior, k)


@pytest.mark.parametrize("lo,hi", [(-323.0, -300.0), (100.0, 307.0)])
def test_cost_scales_at_the_ends_of_double_range(lo, hi):
    # v/k overflows to inf at the small end and falls near the smallest
    # normal at the large end; every solve certifies
    rng = np.random.default_rng([int(abs(lo))])
    for _ in range(60):
        K = int(rng.integers(3, 7))
        vals = Valuations(tuple(np.cumsum(rng.uniform(0.2, 2.0, K))))
        prior = Market(tuple(rng.dirichlet(np.ones(K))))
        k = 10.0 ** rng.uniform(lo, hi)
        seg = solve(MarketInstance(vals, prior, k))
        assert verify_optimality(seg, vals, k).passed, (vals, prior, k)


def test_cost_scale_where_every_v_over_k_underflows():
    # v/k is 0.0 for every type: the prior stays whole, and that is certified
    vals, prior = Valuations((1e-20, 2e-20, 3e-20)), Market((0.3, 0.4, 0.3))
    assert vals[-1] / 1e308 == 0.0
    seg = solve(MarketInstance(vals, prior, 1e308))
    assert seg == no_segmentation(prior, vals)
    assert verify_optimality(seg, vals, 1e308).passed
