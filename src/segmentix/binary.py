"""Two-type closed forms, and the segmentation threshold for any number of types.

With two buyer types the seller's optimal information strategy has an
explicit solution: either no segmentation at all, or a split into exactly
two segments whose high-type shares depend only on the valuation ladder and
the cost scale ``k``, not on the prior. The prior only determines the mixing
weights and whether the split is worth doing.

The threshold above which the seller stops segmenting, for any number of
types, is read off the no-segmentation certificate: one convex root per
price, found by a monotone Newton iteration.
"""

from __future__ import annotations

import math
import sys

from .market import (
    WEIGHT_SUM_TOL,
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    _tail_revenues,
    no_segmentation,
    optimal_price,
    perfect_discrimination,
    seller_payoff,
)


_NORMAL_MIN = sys.float_info.min  # the smallest normal float


def _require_two_types(vals: Valuations) -> tuple[float, float]:
    if len(vals.values) != 2:
        raise ValidationError("binary_only", f"closed forms need exactly 2 types, got {len(vals.values)}")
    return vals.values


def tangency_posteriors(vals: Valuations, k: float) -> tuple[float, float]:
    """High-type shares of the two optimal segments, low-price one first.

    Computed as ``mu2_hi = expm1(-w1/k) / expm1(-w2/k)`` with
    ``mu1_hi = mu2_hi * exp(-(w2-w1)/k)``, which stays accurate for both
    very small and very large ``k`` (no large positive exponents appear).
    The pair straddles the pricing boundary w1/w2 for every k > 0. Where
    w/k underflows so far that the closed forms lose their digits, it raises
    ``ValidationError("cost_scale")``, as ``tangency_markets`` does.
    """
    w1, w2 = _require_two_types(vals)
    mu1, mu2, _ = _shares(w1, w2, k)
    if w1 / k < _NORMAL_MIN:
        _posteriors(w1, w2, k)  # raises where tangency_markets does
    return mu1, mu2


def _shares(w1: float, w2: float, k: float) -> tuple[float, float, float]:
    """The raw high-type shares ``(mu1, mu2)``, and ``expm1(-w2/k)``, which ``_posteriors`` reuses."""
    if not 0.0 < k < math.inf:  # a NaN k would give a NaN pair
        raise ValidationError("cost_scale", f"tangency posteriors need a finite k > 0, got {k}; k = 0 is the discrimination limit")
    em2 = math.expm1(-w2 / k)
    if em2 == 0.0:  # w2/k, and w1/k with it, underflowed to 0
        raise _underflow(w1, k)
    mu2 = math.expm1(-w1 / k) / em2
    mu1 = mu2 * math.exp(-(w2 - w1) / k)
    return mu1, mu2, em2


def _underflow(w1: float, k: float) -> ValidationError:
    return ValidationError("cost_scale", f"w1/k = {w1 / k!r} underflows, and the closed forms lose their digits")


def tangency_markets(vals: Valuations, k: float) -> tuple[Market, Market]:
    """The two optimal segment markets with both coordinates computed stably.

    Taking the high-type share near 1 and subtracting it from 1 would wipe
    out the low-type mass's relative precision (it can be ~1e-16 while the
    share rounds to 1), so the complements get their own closed forms:
    ``1 - mu2_hi = exp(-w1/k) * expm1(-(w2-w1)/k) / expm1(-w2/k)`` and
    ``1 - mu1_hi = (1 - mu2_hi) - mu2_hi * expm1(-(w2-w1)/k)``.
    """
    c1, mu1, c2, mu2 = _posteriors(*_require_two_types(vals), k)
    return Market((c1, mu1)), Market((c2, mu2))


def _posteriors(w1: float, w2: float, k: float) -> tuple[float, float, float, float]:
    """``tangency_markets``' raw weights ``(c1, mu1, c2, mu2)``, before ``Market`` normalizes them."""
    mu1, mu2, em2 = _shares(w1, w2, k)
    em_d = math.expm1(-(w2 - w1) / k)
    c2 = math.exp(-w1 / k) * em_d / em2  # 1 - mu2, no cancellation
    c1 = c2 - mu2 * em_d  # 1 - mu1, likewise
    # subnormal entries keep too few digits for the likelihood-ratio check;
    # exact zeros are what the certificate's zero-mass rule accepts
    c1, mu1, c2, mu2 = raw = tuple([x if x >= _NORMAL_MIN else 0.0 for x in (c1, mu1, c2, mu2)])
    # with w1/k normal every term near 1 is good to a few ulp; a subnormal one keeps
    # fewer digits, and a pair can miss 1 by more than Market() accepts: no instance
    # whose pairs Market() takes raises here
    if w1 / k < _NORMAL_MIN and (abs(c1 + mu1 - 1.0) > WEIGHT_SUM_TOL or abs(c2 + mu2 - 1.0) > WEIGHT_SUM_TOL):
        raise _underflow(w1, k)
    return raw


# Market() divides weights that sum to s by s, then may round the larger one
# again: a move of at most |1/s - 1| plus 2**-52, relative. While each raw
# pair adds up to 1 within _RAW_SUM_TOL (closed forms with normal arguments
# miss by a few ulp), that stays far inside _RAW_MARGIN, so a prior share
# outside the raw pair by the margin is outside the normalized pair too.
_RAW_MARGIN = 1e-12
_RAW_SUM_TOL = 1e-13


def solve_binary(inst: MarketInstance) -> Segmentation:
    """Optimal segmentation of a two-type market.

    Returns the two-segment tangency split when the prior's smaller share
    lies strictly between the closed-form posteriors' shares of that type,
    and the degenerate no-segmentation outcome otherwise (including exact
    ties). The larger share can round to 1.0 while the smaller one still
    straddles, so the test and each segment weight use the smaller share,
    each weight from its own difference. ``k = 0`` takes the
    full-discrimination limit; for tiny positive ``k`` the closed forms
    underflow gracefully to the same answer. A huge ``k`` whose w/k underflows
    so far that they lose their digits raises ``ValidationError("cost_scale")``.

    A prior clearly outside the raw closed-form pair (see ``_RAW_MARGIN``)
    gets ``no_segmentation`` without either market being built; every other
    call builds both and tests their normalized weights. The result, or the
    error, is the same bits either way.
    """
    w1, w2 = _require_two_types(inst.vals)
    if inst.k == 0.0:
        return perfect_discrimination(inst.mu_star, inst.vals)
    c1, mu1, c2, mu2 = _posteriors(w1, w2, inst.k)
    prior = inst.mu_star.weights
    i = 1 if prior[1] <= prior[0] else 0
    mu = prior[i]
    x_lo, x_hi = (mu1, mu2) if i else (c1, c2)
    if (
        (mu < min(x_lo, x_hi) * (1.0 - _RAW_MARGIN) or mu > max(x_lo, x_hi) * (1.0 + _RAW_MARGIN))
        and abs(c1 + mu1 - 1.0) <= _RAW_SUM_TOL
        and abs(c2 + mu2 - 1.0) <= _RAW_SUM_TOL
    ):
        return no_segmentation(inst.mu_star, inst.vals)
    m_lo, m_hi = Market((c1, mu1)), Market((c2, mu2))
    x_lo, x_hi = m_lo.weights[i], m_hi.weights[i]
    if not min(x_lo, x_hi) < mu < max(x_lo, x_hi):
        return no_segmentation(inst.mu_star, inst.vals)
    segments = [
        Segment(m_lo, (x_hi - mu) / (x_hi - x_lo), 0),
        Segment(m_hi, (mu - x_lo) / (x_hi - x_lo), 1),
    ]
    return Segmentation(inst.mu_star, segments)


def segmentation_threshold(vals: Valuations, mu_star: Market) -> float:
    """Largest cost scale at which the prior still gets segmented, for any number of types.

    With p* the uniform price, no segmentation is optimal at ``k`` exactly
    when its certificate (see ``solver.verify_optimality``) holds: for every
    price t, ``h_t(1/k) <= 0``, where ``h_t(s) = log sum_i mu_i exp(d_i s)``
    and ``d_i = S[i, t] - S[i, p*]``. Each ``h_t`` is convex with ``h_t(0) = 0``
    and ``h_t'(0) = R(t) - R(p*) <= 0``, so it has at most one positive root
    ``s_t``, and the threshold is ``1 / min_t s_t``. Newton's method started
    at ``s0 = min over d_i > 0 of -log(mu_i) / d_i``, where ``h_t(s0) >= 0``,
    falls monotonically to ``s_t``; it stops at the first step that does not
    lower ``s``. Returns ``inf`` when another price ties p* (the prior then
    segments at every cost scale) and 0 when no price has a positive root
    (degenerate priors).
    """
    p = optimal_price(mu_star, vals)
    rev = _tail_revenues(mu_star.weights, vals.values)
    served = [(math.log(m), v) for m, v in zip(mu_star.weights, vals.values) if m > 0.0]
    s_min = math.inf
    for t in range(len(vals)):
        if t == p:
            continue
        if rev[t] == rev[p]:
            return math.inf
        d = [seller_payoff(vals[t], v) - seller_payoff(vals[p], v) for _, v in served]
        starts = [-lm / di for (lm, _), di in zip(served, d) if di > 0.0]
        if not starts:
            continue
        s = min(starts)
        while True:
            x = [lm + di * s for (lm, _), di in zip(served, d)]
            top = max(x)
            e = [math.exp(xi - top) for xi in x]
            total = math.fsum(e)
            slope = math.fsum(ei * di for ei, di in zip(e, d))  # h_t'(s) * total
            nxt = s - (top + math.log(total)) * total / slope if slope > 0.0 else s
            if not 0.0 < nxt < s:
                break
            s = nxt
        s_min = min(s_min, s)
    return 1.0 / s_min
