"""Two-type closed forms: tangency pair, threshold, solver."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from segmentix import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    net_objective,
    net_segment_value,
    optimal_price,
    segmentation_threshold,
    solve,
    solve_binary,
    solve_ri,
    tangency_markets,
    tangency_posteriors,
    verify_optimality,
    welfare,
)

V12 = Valuations((1.0, 2.0))
MU46 = Market((0.4, 0.6))

# threshold for (1,2) at high-type share 0.4 or 0.6, by symmetry
KBAR_12 = 1.0 / math.log(1.5)


def test_tangency_frozen_pair():
    lo, hi = tangency_posteriors(V12, 0.8)
    assert lo == pytest.approx(0.22270013882530887, abs=1e-14)
    assert hi == pytest.approx(0.7772998611746912, abs=1e-14)


def test_tangency_satisfies_common_tangent_conditions():
    """Independent check: the net-value curve's two branches share a tangent.

    Left-branch slope at lo must equal right-branch slope at hi, and the line
    through the two curve points must have that same slope (chord condition).
    """
    for k in (0.05, 0.3, 0.8, 2.0):
        lo, hi = tangency_posteriors(V12, k)
        slope_lo = k * math.log((1.0 - lo) / lo)            # d/dx [w1 + kH(x)]
        slope_hi = 2.0 + k * math.log((1.0 - hi) / hi)      # d/dx [w2 x + kH(x)]
        v_lo = net_segment_value(Market((1.0 - lo, lo)), V12, k)
        v_hi = net_segment_value(Market((1.0 - hi, hi)), V12, k)
        chord = (v_hi - v_lo) / (hi - lo)
        assert slope_lo == pytest.approx(slope_hi, abs=1e-9)
        assert chord == pytest.approx(slope_lo, abs=1e-9)


def test_tangency_low_point_exact_at_threshold_scale():
    # with w2 = 2*w1 the low tangency point is 1/(exp(w1/k) + 1)
    lo, _ = tangency_posteriors(V12, KBAR_12)
    assert lo == pytest.approx(0.4, abs=1e-14)


def test_tangency_rejects_zero_cost():
    with pytest.raises(ValidationError) as err:
        tangency_posteriors(V12, 0.0)
    assert err.value.invariant == "cost_scale"


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, -1.0])
def test_tangency_rejects_a_cost_scale_that_is_not_finite_and_positive(k):
    # a NaN k once gave a NaN pair from tangency_posteriors, and an inf k
    # was blamed on underflow
    for call in (tangency_posteriors, tangency_markets):
        with pytest.raises(ValidationError) as err:
            call(V12, k)
        assert err.value.invariant == "cost_scale"
        assert err.value.message == f"tangency posteriors need a finite k > 0, got {k}; k = 0 is the discrimination limit"


def test_tangency_markets_complements_are_stable():
    # complements computed by their own closed forms, not by 1 - x
    m_lo, m_hi = tangency_markets(V12, 0.03)
    assert m_lo[0] + m_lo[1] == pytest.approx(1.0, abs=1e-15)
    assert m_hi[0] > 0.0
    # at this scale the naive complement 1 - m2 loses most digits
    assert m_hi[1] > 1.0 - 1e-13


@given(st.floats(1.05, 40.0), st.floats(-3.0, 3.0))
def test_tangency_straddles_price_boundary(ratio, logk):
    vals = Valuations((1.0, ratio))
    k = 10.0 ** logk
    lo, hi = tangency_posteriors(vals, k)
    r = 1.0 / ratio
    assert 0.0 <= lo < r < hi <= 1.0


def test_tangency_monotone_in_cost_scale():
    # below k = 0.05 the high point is within one ulp of 1.0 and saturates
    ks = np.geomspace(0.05, 100.0, 60)
    los, his = zip(*(tangency_posteriors(V12, float(k)) for k in ks))
    assert all(b > a for a, b in zip(los, los[1:]))
    assert all(b < a for a, b in zip(his, his[1:]))
    assert los[-1] < 0.5 < his[-1]


# -------------------- threshold --------------------

def test_threshold_frozen_value():
    for mu in (Market((0.6, 0.4)), Market((0.4, 0.6))):
        assert abs(segmentation_threshold(V12, mu) - KBAR_12) <= 4.0 * math.ulp(KBAR_12)


def test_threshold_boundary_prior_is_infinite():
    assert segmentation_threshold(V12, Market((0.5, 0.5))) == math.inf


def test_threshold_degenerate_priors():
    assert segmentation_threshold(V12, Market((1.0, 0.0))) == 0.0
    assert segmentation_threshold(V12, Market((0.0, 1.0))) == 0.0
    assert segmentation_threshold(V12, Market((1.0 - 1e-6, 1e-6))) < 0.15


def test_solver_flips_exactly_at_threshold():
    for share in (0.3, 0.4, 0.6, 0.7):
        mu = Market((1.0 - share, share))
        kbar = segmentation_threshold(V12, mu)
        below = solve_binary(MarketInstance(V12, mu, kbar * (1 - 1e-6)))
        above = solve_binary(MarketInstance(V12, mu, kbar * (1 + 1e-6)))
        assert len(below.segments) == 2
        assert len(above.segments) == 1


# the high share, then the low share, below half an ulp of the other
TINY_HI = (Valuations((5665.424133780135, 23150.253488507526)), Market((1.0, 1.5063967719774e-114)),
           0.8853969049295498)
TINY_LO = (Valuations((6.58810979414354, 27.141280667075595)), Market((9.341843475483123e-25, 1.0)),
           0.002461952748699573)


def test_threshold_when_the_low_share_is_below_half_an_ulp():
    vals, mu, _ = TINY_LO
    kbar = segmentation_threshold(vals, mu)
    # the root of h_t, 0.1190691318121823796..., worked out to 120 bits
    assert kbar == pytest.approx(0.11906913181218239, rel=4e-16)
    for factor, n_segments in ((0.98, 2), (1.02, 1)):
        inst = MarketInstance(vals, mu, factor * kbar)
        assert len(solve_binary(inst).segments) == len(solve_ri(inst).segments) == n_segments


# -------------------- solver --------------------

@pytest.mark.parametrize("case", [TINY_HI, TINY_LO], ids=["tiny_high_share", "tiny_low_share"])
def test_solve_splits_priors_with_a_share_below_half_an_ulp(case):
    vals, mu, k = case
    seg = solve_binary(MarketInstance(vals, mu, k))
    assert len(seg.segments) == 2
    assert all(s.weight > 0.0 for s in seg.segments)
    assert verify_optimality(seg, vals, k).passed


def _tiny_share_draws(seed: int, n: int):
    """Two-type markets over twelve decades of scale, 30 % with one share in [1e-200, 1e-8]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        vals = np.sort(rng.uniform(0.1, 10.0, 2)) * 10.0 ** rng.uniform(-6.0, 6.0)
        mu = rng.dirichlet(np.full(2, 10.0 ** rng.uniform(-2.0, 1.0)))
        if rng.random() < 0.3:
            i = int(rng.integers(2))
            mu[i] = 10.0 ** rng.uniform(-200.0, -8.0)
            mu[1 - i] = 1.0 - mu[i]
        k = float(vals[0] * 10.0 ** rng.uniform(-5.0, 5.0))
        if vals[0] < vals[1]:
            yield MarketInstance(Valuations(tuple(vals)), Market(tuple(mu)), k)


def test_tiny_share_scan_solves_and_certifies():
    failed = []
    for seed in (1, 2, 3):
        for inst in _tiny_share_draws(seed, 3000):
            try:
                report = verify_optimality(solve_binary(inst), inst.vals, inst.k)
            except ValidationError as err:
                failed.append((inst, err.invariant))
                continue
            if not report.passed:
                failed.append((inst, report.failures))
    assert not failed, (len(failed), failed[:3])


def test_solve_worked_instance_frozen():
    seg = solve_binary(MarketInstance(V12, MU46, 0.8))
    assert len(seg.segments) == 2
    low, high = seg.segments
    assert low.price_index == 0 and high.price_index == 1
    assert low.weight == pytest.approx(0.3196897763013975, abs=1e-12)
    assert high.weight == pytest.approx(0.6803102236986025, abs=1e-12)
    assert low.market[1] == pytest.approx(0.22270013882530887, abs=1e-12)
    assert high.market[1] == pytest.approx(0.7772998611746912, abs=1e-12)
    assert seg.bayes_residual < 1e-15


def test_solve_expensive_information_no_segmentation():
    seg = solve_binary(MarketInstance(V12, MU46, 5.0))
    assert len(seg.segments) == 1
    assert seg.segments[0].price_index == 1
    rep = welfare(seg, V12, 5.0)
    assert rep.ps_gross == pytest.approx(1.2, abs=1e-15)
    assert rep.info_cost == 0.0


def test_solve_very_expensive_information(
):
    seg = solve_binary(MarketInstance(V12, MU46, 50.0))
    assert len(seg.segments) == 1
    assert seg.segments[0].price_index == 1


def test_solve_zero_cost_perfect_discrimination():
    seg = solve_binary(MarketInstance(V12, MU46, 0.0))
    rep = welfare(seg, V12, 0.0)
    assert rep.cs == 0.0
    assert rep.ps_gross == pytest.approx(1.6, abs=1e-15)


@pytest.mark.parametrize(
    "vals, k",
    [
        (V12, 1e-3),
        # w1/k ~ 740: the closed forms land on subnormals, which must be
        # flushed to zero for the certificate to accept the split
        (V12, 0.0013503878341926767),
        (Valuations((1.0, 8.0)), 0.00947254509131529),
    ],
    ids=["w12-k1e-3", "w12-subnormal", "w18-subnormal"],
)
def test_solve_tiny_cost_degrades_to_point_masses(vals, k):
    # closed forms underflow gracefully: segments become exact point masses
    seg = solve_binary(MarketInstance(vals, MU46, k))
    low, high = seg.segments
    assert low.market[1] == 0.0
    assert high.market[1] == 1.0
    assert verify_optimality(seg, vals, k).passed
    rep = welfare(seg, vals, k)
    assert rep.ts_gross == pytest.approx(0.4 * vals[0] + 0.6 * vals[1], abs=1e-12)


@given(st.floats(0.02, 0.98), st.floats(-2.0, 1.5))
def test_solve_output_is_bayes_plausible_and_priced(share, logk):
    mu = Market((1.0 - share, share))
    inst = MarketInstance(V12, mu, 10.0 ** logk)
    seg = solve_binary(inst)
    assert seg.bayes_residual < 1e-9
    welfare(seg, V12, inst.k)  # raises if any segment price is not optimal


def _market_rule(inst):
    """solve_binary's test on the normalized tangency markets alone, with no raw-share shortcut."""
    m_lo, m_hi = tangency_markets(inst.vals, inst.k)
    prior = inst.mu_star.weights
    i = 1 if prior[1] <= prior[0] else 0
    mu, x_lo, x_hi = prior[i], m_lo.weights[i], m_hi.weights[i]
    if not min(x_lo, x_hi) < mu < max(x_lo, x_hi):
        return Segmentation(inst.mu_star, [Segment(inst.mu_star, 1.0, optimal_price(inst.mu_star, inst.vals))])
    return Segmentation(inst.mu_star, [
        Segment(m_lo, (x_hi - mu) / (x_hi - x_lo), 0),
        Segment(m_hi, (mu - x_lo) / (x_hi - x_lo), 1),
    ])


def _outcome(fn, inst):
    try:
        return fn(inst)
    except ValidationError as e:
        return e.invariant


def test_raw_share_test_matches_market_test_near_ties():
    # priors at the normalized tangency shares and up to 4 ulp either side,
    # with either type the smaller one; k down to where shares flush to 0
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(150):
        w1 = float(rng.uniform(0.5, 5.0))
        w2 = w1 + float(rng.uniform(0.05, 5.0))
        cases.append((w1, w2, w2 * 10.0 ** float(rng.uniform(-2.5, 2.5))))
        cases.append((w1, w2, (w2 - w1) / float(rng.uniform(700.0, 760.0))))  # the low market's high share flushes
    cases += [(1.0, 2.0, 1e-300 * 2.0), (0.7, 3.1, 1e-300 * 3.1), (1.0, 2.0, 1e300)]
    ties = {0: 0, 1: 0}
    for w1, w2, k in cases:
        vals = Valuations((w1, w2))
        pair = tangency_markets(vals, k)
        for m in pair:
            for i in (0, 1):
                x = m.weights[i]
                for step in range(-4, 5):
                    s = x
                    for _ in range(abs(step)):
                        s = math.nextafter(s, math.copysign(math.inf, step))
                    if not 0.0 <= s <= 1.0:
                        continue
                    prior = Market((s, 1.0 - s) if i == 0 else (1.0 - s, s))
                    inst = MarketInstance(vals, prior, k)
                    got = solve_binary(inst)
                    assert got == _market_rule(inst), (w1, w2, k, prior)
                    j = 1 if prior[1] <= prior[0] else 0
                    ties[j] += prior[j] in (pair[0][j], pair[1][j])
    assert min(ties.values()) > 50, ties  # exact ties, with each type the smaller share
    # raw pairs that miss 1 by ~2.5e-12 (w/k subnormal), which Market() rejects: the same outcome
    for w1, w2, k in ((1e-12, 2e-12, 1e300), (1e-5, 2e-5, 1e308)):
        inst = MarketInstance(Valuations((w1, w2)), Market((0.9, 0.1)), k)
        assert _outcome(solve_binary, inst) == _outcome(_market_rule, inst)


def test_underflowing_w_over_k_is_a_cost_scale_error():
    # w/k underflows to 0 (a bare ZeroDivisionError before), or to a subnormal
    # whose closed forms miss 1 by ~2.5e-12 (blamed on market_weight_sum before;
    # tangency_posteriors returned (0.4999999999987648, 0.4999999999987648)
    # for V=(1e-12, 2e-12) at k=1e300, against the exact 0.5)
    for w1, w2, k in ((1e-300, 2e-300, 1e300), (1e-12, 2e-12, 1e300), (1e-5, 2e-5, 1e308)):
        vals = Valuations((w1, w2))
        for call in (solve, solve_binary):
            with pytest.raises(ValidationError) as err:
                call(MarketInstance(vals, Market((0.9, 0.1)), k))
            assert err.value.invariant == "cost_scale", (w1, k)
            assert err.value.message.startswith(f"w1/k = {w1 / k!r} underflows"), err.value.message
        for call in (tangency_markets, tangency_posteriors):
            with pytest.raises(ValidationError) as err:
                call(vals, k)
            assert err.value.invariant == "cost_scale", (call, w1, k)
    # a subnormal w/k whose closed forms keep enough digits still solves
    for w1, w2, k in ((1.0, 2.0, 1e308), (1e-10, 2e-10, 1e300)):
        seg = solve_binary(MarketInstance(Valuations((w1, w2)), Market((0.9, 0.1)), k))
        assert len(seg.segments) == 1 and verify_optimality(seg, Valuations((w1, w2)), k).passed
    # where both closed forms return, the shares keep the bits of the formula, a subnormal one included
    for w1, w2, k in ((1.0, 2.0, 0.8), (1.0, 2.0, 1e308), (1e-10, 2e-10, 1e300), (1.0, 3.0, 2.8e-3)):
        tangency_markets(Valuations((w1, w2)), k)
        mu2 = math.expm1(-w1 / k) / math.expm1(-w2 / k)
        got = tangency_posteriors(Valuations((w1, w2)), k)
        assert repr(got) == repr((mu2 * math.exp(-(w2 - w1) / k), mu2)), (w1, k)


def test_net_objective_beats_no_segmentation_when_segmenting():
    for share in (0.2, 0.4, 0.6, 0.8):
        mu = Market((1.0 - share, share))
        kbar = segmentation_threshold(V12, mu)
        inst = MarketInstance(V12, mu, 0.5 * kbar)
        seg = solve_binary(inst)
        assert len(seg.segments) == 2
        uniform = max(1.0, 2.0 * share)
        assert net_objective(seg, V12, inst.k) > uniform
