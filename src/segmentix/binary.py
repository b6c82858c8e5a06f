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
from typing import TYPE_CHECKING, NamedTuple

from .market import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    _tail_revenues,
    net_objective,
    no_segmentation,
    optimal_price,
    perfect_discrimination,
    seller_payoff,
)

if TYPE_CHECKING:
    import numpy as np

# Grid points where the curve touches its envelope give a gap of exactly
# zero (the hull keeps them as vertices), so this only needs to clear the
# interpolation noise on linear stretches, ~1e-16 of the value scale. A
# loose threshold would misplace the interval edges: the gap grows only
# quadratically away from a tangency point.
ENVELOPE_GAP_TOL = 1e-12


def _require_two_types(vals: Valuations) -> tuple[float, float]:
    if len(vals.values) != 2:
        raise ValidationError("binary_only", f"closed forms need exactly 2 types, got {len(vals.values)}")
    return vals.values


def tangency_posteriors(vals: Valuations, k: float) -> tuple[float, float]:
    """High-type shares of the two optimal segments, low-price one first.

    Computed as ``mu2_hi = expm1(-w1/k) / expm1(-w2/k)`` with
    ``mu1_hi = mu2_hi * exp(-(w2-w1)/k)``, which stays accurate for both
    very small and very large ``k`` (no large positive exponents appear).
    The pair straddles the pricing boundary w1/w2 for every k > 0.
    """
    return _shares(*_require_two_types(vals), k)


def _shares(w1: float, w2: float, k: float) -> tuple[float, float]:
    if k <= 0.0:
        raise ValidationError("cost_scale", "tangency posteriors need k > 0; k = 0 is the discrimination limit")
    mu2 = math.expm1(-w1 / k) / math.expm1(-w2 / k)
    mu1 = mu2 * math.exp(-(w2 - w1) / k)
    return mu1, mu2


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
    mu1, mu2 = _shares(w1, w2, k)
    em_d = math.expm1(-(w2 - w1) / k)
    c2 = math.exp(-w1 / k) * em_d / math.expm1(-w2 / k)  # 1 - mu2, no cancellation
    c1 = c2 - mu2 * em_d  # 1 - mu1, likewise
    # subnormal entries keep too few digits for the likelihood-ratio check;
    # exact zeros are what the certificate's zero-mass rule accepts
    return tuple([x if x >= sys.float_info.min else 0.0 for x in (c1, mu1, c2, mu2)])


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
    underflow gracefully to the same answer.

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


class EnvelopeResult(NamedTuple):
    """Sampled net-value curve, its upper concave envelope, and the gap interval.

    ``interval`` is the maximal grid interval on which the envelope exceeds
    the curve by more than ``ENVELOPE_GAP_TOL`` (the region whose priors
    strictly benefit from segmentation); ``None`` when there is no such
    interval around the reference prior.
    """

    grid: np.ndarray
    values: np.ndarray
    envelope: np.ndarray
    interval: tuple[float, float] | None


def upper_concave_hull(x: np.ndarray, y: np.ndarray) -> tuple[list[float], list[float]]:
    """Vertices of the upper concave hull of points sampled on an increasing grid.

    Monotone-chain scan keeping only vertices with decreasing slopes, from
    the first point to the last. O(n).
    """
    hull_x: list[float] = []
    hull_y: list[float] = []
    for xi, yi in zip(x.tolist(), y.tolist()):  # Python floats: same values, faster arithmetic
        while len(hull_x) >= 2:
            # drop the middle vertex if it lies on or below the new chord
            x0, y0 = hull_x[-2], hull_y[-2]
            x1, y1 = hull_x[-1], hull_y[-1]
            if (y1 - y0) * (xi - x0) <= (yi - y0) * (x1 - x0):
                hull_x.pop()
                hull_y.pop()
            else:
                break
        hull_x.append(xi)
        hull_y.append(yi)
    return hull_x, hull_y


def net_value_curve(vals: Valuations, k: float, grid: np.ndarray) -> np.ndarray:
    """Pointwise best revenue plus entropy credit along high-type shares."""
    import numpy as np

    w1, w2 = _require_two_types(vals)
    x = np.asarray(grid, dtype=float)
    ent = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    ent[inner] = -(xi * np.log(xi) + (1.0 - xi) * np.log1p(-xi))
    return np.maximum(w1, w2 * x) + k * ent


def concave_envelope(
    vals: Valuations,
    k: float,
    grid_n: int,
    mu_star: Market | None = None,
) -> EnvelopeResult:
    """Concavify the two-type net-value curve on ``grid_n + 1`` points.

    When ``mu_star`` is given the reported interval is the gap run containing
    its high-type share (``None`` if that prior sits where curve and envelope
    agree, i.e. no segmentation helps it); otherwise the longest gap run.
    """
    import numpy as np

    _require_two_types(vals)
    if grid_n < 2:
        raise ValidationError("grid_size", f"grid_n must be >= 2, got {grid_n}")
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError("cost_scale", f"k must be finite and >= 0, got {k}")
    x = np.linspace(0.0, 1.0, grid_n + 1)
    y = net_value_curve(vals, k, x)
    env = np.interp(x, *upper_concave_hull(x, y))
    gap = env - y > ENVELOPE_GAP_TOL
    interval: tuple[float, float] | None = None
    if gap.any():
        # contiguous runs of grid points with a strict envelope gap
        idx = np.nonzero(gap)[0]
        breaks = np.nonzero(np.diff(idx) > 1)[0]
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(idx) - 1]])
        runs = [(idx[s], idx[e]) for s, e in zip(starts, ends)]
        if mu_star is None:
            s, e = max(runs, key=lambda r: r[1] - r[0])
            interval = (float(x[s]), float(x[e]))
        else:
            mu = mu_star[1]
            for s, e in runs:
                if x[s] <= mu <= x[e]:
                    interval = (float(x[s]), float(x[e]))
                    break
    return EnvelopeResult(grid=x, values=y, envelope=env, interval=interval)


def binary_net_value(inst: MarketInstance) -> float:
    """Net seller payoff of the optimal two-type policy (revenue minus info cost)."""
    return net_objective(solve_binary(inst), inst.vals, inst.k)
