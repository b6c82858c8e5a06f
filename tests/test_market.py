"""Core type, pricing, and welfare accounting tests."""

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
    all_revenues,
    buyer_payoff,
    entropy,
    net_objective,
    net_segment_value,
    no_segmentation,
    optimal_price,
    perfect_discrimination,
    price_region,
    revenue,
    seller_payoff,
    uniform_report,
    welfare,
)
from segmentix.market import binary_entropy

V12 = Valuations((1.0, 2.0))
V123 = Valuations((1.0, 2.0, 3.0))


# -------------------- constructors --------------------

def test_valuations_reject_short_ladder():
    with pytest.raises(ValidationError) as err:
        Valuations((1.0,))
    assert err.value.invariant == "valuations_size"


def test_valuations_reject_nonpositive_bottom():
    with pytest.raises(ValidationError) as err:
        Valuations((0.0, 1.0))
    assert err.value.invariant == "valuations_positive"


def test_valuations_reject_unordered():
    with pytest.raises(ValidationError) as err:
        Valuations((2.0, 1.0))
    assert err.value.invariant == "valuations_increasing"


def test_market_rejects_negative_weight():
    with pytest.raises(ValidationError):
        Market((-0.1, 1.1))


def test_market_rejects_bad_sum():
    with pytest.raises(ValidationError) as err:
        Market((0.4, 0.7))
    assert err.value.invariant == "market_weight_sum"


def test_market_normalizes_tiny_drift():
    m = Market((0.4, 0.6 + 1e-13))
    assert math.fsum(m.weights) == 1.0


@st.composite
def _in_tolerance_weights(draw):
    """K = 2-10 weights with zeros and tiny shares, scaled by a relative drift below 1e-12."""
    k = draw(st.integers(2, 10))
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1e-12), st.floats(1e-6, 1.0)),
                        min_size=k, max_size=k))
    raw[draw(st.integers(0, k - 1))] = draw(st.floats(0.01, 1.0))  # some weight is not tiny
    total = math.fsum(raw)
    drift = draw(st.floats(-0.9e-12, 0.9e-12))
    return [x / total * (1.0 + drift) for x in raw]


@given(_in_tolerance_weights())
def test_market_is_its_own_normal_form(w):
    m = Market(w)
    assert math.fsum(m.weights) == 1.0
    assert Market(m.weights) == m


def test_market_normal_form_of_a_prior_that_renormalized_twice():
    # dividing by the fsum once left this prior with an fsum other than 1
    w = (0.8172438280513341, 0.18275617194866606)
    m = Market(w)
    assert math.fsum(m.weights) == 1.0
    assert Market(m.weights) == m
    assert m.weights[1] == w[1] / math.fsum(w)  # only the largest weight is set from the others


# -------------------- payoffs and revenue --------------------

def test_seller_and_buyer_payoffs():
    assert seller_payoff(1.0, 2.0) == 1.0
    assert seller_payoff(2.0, 1.0) == 0.0
    assert buyer_payoff(1.0, 2.0) == 1.0
    assert buyer_payoff(2.0, 2.0) == 0.0
    assert buyer_payoff(2.0, 1.0) == 0.0


def test_revenue_low_price_serves_everyone():
    assert revenue(Market((0.4, 0.6)), V12, 0) == 1.0


def test_revenue_high_price_serves_high_types():
    assert revenue(Market((0.4, 0.6)), V12, 1) == pytest.approx(1.2, abs=1e-15)


def test_revenue_three_types_middle_price():
    m = Market((0.2, 0.3, 0.5))
    assert revenue(m, V123, 1) == pytest.approx(1.6, abs=1e-15)


def test_revenue_and_net_objective_reject_length_mismatch():
    # a 3-type market priced against a 2-type ladder used to score 0.6
    m = Market((0.2, 0.3, 0.5))
    with pytest.raises(ValidationError, match="instance_shape"):
        revenue(m, V12, 1)
    with pytest.raises(ValidationError, match="instance_shape"):
        net_objective(no_segmentation(m, V123), V12, 0.5)


@given(st.integers(2, 5), st.data())
def test_all_revenues_matches_direct_sum(k, data):
    raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    m = Market([r / total for r in raw])
    vals = Valuations([1.0 + i for i in range(k)])
    rv = all_revenues(m, vals)
    for p in range(k):
        direct = sum(vals[p] * m[i] for i in range(k) if vals[i] >= vals[p])
        assert rv[p] == pytest.approx(direct, abs=1e-12)


# -------------------- optimal pricing --------------------

def test_optimal_price_prefers_high_when_profitable():
    assert optimal_price(Market((0.4, 0.6)), V12) == 1


def test_optimal_price_degenerate_low_market():
    assert optimal_price(Market((1.0, 0.0)), V12) == 0


def test_optimal_price_breaks_ties_low():
    # revenues tie at 1.0; the buyer-friendly price wins
    assert optimal_price(Market((0.5, 0.5)), V12) == 0


def test_optimal_price_three_types():
    m = Market((1 / 3, 1 / 3, 1 / 3))
    assert optimal_price(m, V123) == 1  # revenues (1, 4/3, 1)


def test_price_region_boundary_contains_both():
    assert price_region(Market((0.5, 0.5)), V12) == (0, 1)


def test_price_region_interior():
    assert price_region(Market((0.4, 0.6)), V12) == (1,)
    assert price_region(Market((0.7, 0.3)), V12) == (0,)


# -------------------- entropy and segment values --------------------

def test_entropy_uniform_binary():
    assert entropy(Market((0.5, 0.5))) == pytest.approx(math.log(2.0), abs=1e-15)


def test_entropy_point_mass_is_zero():
    assert entropy(Market((1.0, 0.0))) == 0.0


def test_entropy_frozen_value():
    assert entropy(Market((0.4, 0.6))) == pytest.approx(0.6730116670092565, abs=1e-15)


@given(st.floats(0.0, 1.0))
def test_entropy_bounds(x):
    h = entropy(Market((x, 1.0 - x)))
    assert -1e-15 <= h <= math.log(2.0) + 1e-15


@given(st.floats(-0.5, 1.5))
def test_binary_entropy_is_the_two_type_entropy(x):
    h = binary_entropy(x)
    if x <= 0.0 or x >= 1.0:
        assert h == 0.0
    else:
        assert h == -(x * math.log(x) + (1.0 - x) * math.log1p(-x))
        assert h == pytest.approx(entropy((1.0 - x, x)), abs=1e-15)


def test_net_segment_value_zero_cost_piecewise():
    assert net_segment_value(Market((0.6, 0.4)), V12, 0.0) == 1.0
    assert net_segment_value(Market((0.4, 0.6)), V12, 0.0) == pytest.approx(1.2, abs=1e-15)


def test_net_segment_value_adds_scaled_entropy():
    got = net_segment_value(Market((0.4, 0.6)), V12, 0.8)
    assert got == pytest.approx(1.7384093336074051, abs=1e-12)


# -------------------- segments and segmentations --------------------

def test_segment_rejects_suboptimal_price_on_check():
    from segmentix import check_segment_prices

    seg = Segmentation(Market((0.7, 0.3)), [Segment(Market((0.7, 0.3)), 1.0, 1)])
    with pytest.raises(ValidationError) as err:
        check_segment_prices(seg, V12)
    assert err.value.invariant == "segment_price_optimality"


def test_constructors_reject_a_bool_for_a_number():
    # as the file loaders do: True is an int, but not a weight or a cost scale
    m = Market((0.5, 0.5))
    with pytest.raises(ValidationError) as err:
        Segment(m, True, 0)
    assert err.value.invariant == "segment_weight"
    for k in (True, False):
        with pytest.raises(ValidationError) as err:
            MarketInstance(V12, m, k)
        assert err.value.invariant == "cost_scale"
    assert Segment(m, 1, 0).weight == 1 and MarketInstance(V12, m, 0).k == 0


def test_segmentation_rejects_bad_weight_sum():
    m = Market((0.5, 0.5))
    with pytest.raises(ValidationError) as err:
        Segmentation(m, [Segment(m, 0.7, 0), Segment(m, 0.7, 0)])
    assert err.value.invariant == "segmentation_weight_sum"


def test_segmentation_rejects_bayes_violation():
    with pytest.raises(ValidationError) as err:
        Segmentation(
            Market((0.5, 0.5)),
            [Segment(Market((0.9, 0.1)), 0.5, 0), Segment(Market((0.3, 0.7)), 0.5, 1)],
        )
    assert err.value.invariant == "bayes_plausibility"


def test_segmentation_rejects_support_above_type_count():
    m = Market((0.5, 0.5))
    segs = [Segment(m, 1 / 3, 0)] * 3
    with pytest.raises(ValidationError) as err:
        Segmentation(m, segs)
    assert err.value.invariant == "segmentation_support"


def test_segmentation_shape_mismatch():
    with pytest.raises(ValidationError) as err:
        Segmentation(Market((0.5, 0.5)), [Segment(Market((0.2, 0.3, 0.5)), 1.0, 0)])
    assert err.value.invariant == "segmentation_shape"


NAN, INF = math.nan, math.inf
M55 = Market((0.5, 0.5))
M91 = Market((0.9, 0.1))

# (constructor call, invariant, message): one row per check, and rows that
# break two checks at once, whose invariant pins which check runs first
BAD_CONSTRUCTOR_INPUTS = [
    (lambda: Valuations((1.0,)), "valuations_size", "need at least two types"),
    (lambda: Valuations((0.0, 1.0)), "valuations_positive", "lowest valuation must be > 0, got 0.0"),
    (lambda: Valuations((1.0, NAN)), "valuations_finite", "valuations must be finite"),
    (lambda: Valuations((2.0, 1.0)), "valuations_increasing",
     "valuations must be strictly increasing, got (2.0, 1.0)"),
    (lambda: Valuations((-1.0, NAN)), "valuations_positive", "lowest valuation must be > 0, got -1.0"),
    (lambda: Valuations((2.0, INF, 1.0)), "valuations_finite", "valuations must be finite"),
    (lambda: Market((1.0,)), "market_size", "need at least two type weights"),
    (lambda: Market((NAN,)), "market_size", "need at least two type weights"),
    (lambda: Market((NAN, 0.5)), "market_finite", "weights must be finite"),
    (lambda: Market((0.5, INF)), "market_finite", "weights must be finite"),
    (lambda: Market((NAN, -0.5, 1.5)), "market_finite", "weights must be finite"),
    (lambda: Market((-0.1, 1.1)), "market_nonnegative", "weights must be >= 0, got (-0.1, 1.1)"),
    (lambda: Market((-0.5, 0.7)), "market_nonnegative", "weights must be >= 0, got (-0.5, 0.7)"),
    (lambda: Market((0.4, 0.7)), "market_weight_sum", "weights sum to 1.1, expected 1 within 1e-12"),
    (lambda: Segment(M55, 0.0, 0), "segment_weight", "segment weight must lie in (0, 1], got 0.0"),
    (lambda: Segment(M55, -0.0, 0), "segment_weight", "segment weight must lie in (0, 1], got -0.0"),
    (lambda: Segment(M55, NAN, 0), "segment_weight", "segment weight must lie in (0, 1], got nan"),
    (lambda: Segment(M55, 1.0 + 2e-10, 0), "segment_weight",
     "segment weight must lie in (0, 1], got 1.0000000002"),
    (lambda: Segment(M55, True, 0), "segment_weight", "segment weight must lie in (0, 1], got True"),
    (lambda: Segment(M55, 0.5, 2), "segment_price_index", "price index 2 out of range"),
    (lambda: Segment(M55, 0.5, -1), "segment_price_index", "price index -1 out of range"),
    (lambda: Segment(M55, 2.0, 5), "segment_weight", "segment weight must lie in (0, 1], got 2.0"),
    (lambda: Segmentation(M55, []), "segmentation_empty", "need at least one segment"),
    (lambda: Segmentation(M55, [Segment(Market((0.2, 0.3, 0.5)), 1.0, 0)]), "segmentation_shape",
     "all segment markets must match the prior's length"),
    (lambda: Segmentation(M55, [Segment(M55, 1 / 3, 0)] * 3), "segmentation_support", "3 segments exceed 2 types"),
    (lambda: Segmentation(M55, [Segment(M55, 0.7, 0), Segment(M55, 0.7, 0)]), "segmentation_weight_sum",
     "segment weights sum to 1.4"),
    (lambda: Segmentation(M55, [Segment(M91, 0.5, 0), Segment(Market((0.3, 0.7)), 0.5, 1)]), "bayes_plausibility",
     "weighted segments miss the prior by 1.000e-01"),
    (lambda: Segmentation(M55, [Segment(Market((0.2, 0.3, 0.5)), 0.5, 0)] * 3), "segmentation_shape",
     "all segment markets must match the prior's length"),
    (lambda: Segmentation(M55, [Segment(M55, 0.7, 0)] * 3), "segmentation_support", "3 segments exceed 2 types"),
    (lambda: Segmentation(M55, [Segment(M55, 0.7, 0), Segment(M91, 0.7, 0)]), "segmentation_weight_sum",
     "segment weights sum to 1.4"),
    (lambda: MarketInstance(V123, M55, 1.0), "instance_shape", "valuations and weights must have equal length"),
    (lambda: MarketInstance(V12, M55, -1.0), "cost_scale", "k must be finite and >= 0, got -1.0"),
    (lambda: MarketInstance(V12, M55, NAN), "cost_scale", "k must be finite and >= 0, got nan"),
    (lambda: MarketInstance(V12, M55, INF), "cost_scale", "k must be finite and >= 0, got inf"),
    (lambda: MarketInstance(V12, M55, False), "cost_scale", "k must be finite and >= 0, got False"),
    (lambda: MarketInstance(V123, M55, NAN), "instance_shape", "valuations and weights must have equal length"),
]


@pytest.mark.parametrize("make,invariant,message", BAD_CONSTRUCTOR_INPUTS)
def test_constructors_name_the_first_broken_check(make, invariant, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert (err.value.invariant, err.value.message, str(err.value)) == (invariant, message, f"{invariant}: {message}")


def test_constructors_keep_a_negative_zero():
    m = Market((-0.0, 1.0))
    assert repr(m.weights) == "(-0.0, 1.0)" and Market(m.weights) == m
    assert repr(MarketInstance(V12, m, -0.0).k) == "-0.0"
    seg = Segmentation(m, [Segment(m, 1.0, 1)])
    assert seg.segments[0].market is m and seg.bayes_residual == 0.0


# -------------------- welfare accounting --------------------

def test_welfare_degenerate_segmentation():
    mu = Market((0.4, 0.6))
    rep = welfare(no_segmentation(mu, V12), V12, 0.8)
    assert rep.cs == 0.0
    assert rep.ps_gross == pytest.approx(1.2, abs=1e-15)
    assert rep.info_cost == 0.0
    assert rep.segmented is False


def test_welfare_rejects_nan_or_negative_price_tol():
    # a NaN tolerance passed every price: V=(1, 2) prices mu=(0.4, 0.6) best at index 1
    mu = Market((0.4, 0.6))
    mispriced = Segmentation(mu, [Segment(mu, 1.0, 0)])
    with pytest.raises(ValidationError) as err:
        welfare(mispriced, V12, 0.3)
    assert err.value.invariant == "segment_price_optimality"
    for tol in (math.nan, -1e-10, -math.inf):
        with pytest.raises(ValidationError) as err:
            welfare(mispriced, V12, 0.3, price_tol=tol)
        assert err.value.invariant == "tolerance"
    with pytest.raises(ValidationError) as err:  # the cost scale is checked first
        welfare(mispriced, V12, math.nan, price_tol=math.nan)
    assert err.value.invariant == "cost_scale"
    assert welfare(no_segmentation(mu, V12), V12, 0.3, price_tol=0.0).ps_gross == pytest.approx(1.2)


def test_welfare_perfect_discrimination_at_zero_cost():
    mu = Market((0.4, 0.6))
    rep = welfare(perfect_discrimination(mu, V12), V12, 0.0)
    assert rep.cs == 0.0
    assert rep.ps_gross == pytest.approx(1.6, abs=1e-15)
    assert rep.info_cost == 0.0
    assert rep.ts_gross == pytest.approx(1.6, abs=1e-15)


def test_welfare_identities_and_bounds():
    mu = Market((0.4, 0.6))
    for maker, k in ((no_segmentation, 0.8), (perfect_discrimination, 0.3)):
        rep = welfare(maker(mu, V12), V12, k)
        assert rep.ts_gross == pytest.approx(rep.cs + rep.ps_gross, abs=1e-12)
        assert rep.ps_net == pytest.approx(rep.ps_gross - rep.info_cost, abs=1e-12)
        assert rep.ts_net == pytest.approx(rep.cs + rep.ps_net, abs=1e-12)
        assert rep.cs >= 0.0
        assert rep.info_cost >= 0.0
        assert rep.ts_gross <= 1.6 + 1e-12


def test_uniform_report_picks_monopoly_price():
    assert uniform_report(Market((0.4, 0.6)), V12).ps_gross == pytest.approx(1.2)
    assert uniform_report(Market((0.7, 0.3)), V12).ps_gross == pytest.approx(1.0)


def test_perfect_discrimination_info_cost_positive_when_k_positive():
    mu = Market((0.4, 0.6))
    rep = welfare(perfect_discrimination(mu, V12), V12, 1.0)
    assert rep.info_cost == pytest.approx(entropy(mu), abs=1e-12)
