"""Closed-form segmentation for two-type markets.

With two buyer types the seller's optimal information strategy has an
explicit solution: either no segmentation at all, or a split into exactly
two segments whose high-type shares depend only on the valuation ladder and
the cost scale ``k``, not on the prior. The prior only determines the mixing
weights and whether the split is worth doing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .market import (
    EXP_OVERFLOW,
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    net_objective,
    no_segmentation,
    perfect_discrimination,
)

# Grid points where the curve touches its envelope give a gap of exactly
# zero (the hull keeps them as vertices), so this only needs to clear the
# interpolation noise on linear stretches, ~1e-16 of the value scale. A
# loose threshold would misplace the interval edges: the gap grows only
# quadratically away from a tangency point.
ENVELOPE_GAP_TOL = 1e-12
THRESHOLD_BISECTION_TOL = 1e-10


def _require_two_types(vals: Valuations) -> tuple[float, float]:
    if len(vals) != 2:
        raise ValidationError("binary_only", f"closed forms need exactly 2 types, got {len(vals)}")
    return vals[0], vals[1]


@dataclass(frozen=True)
class BinaryClosedForm:
    """Raw ingredients of the two-type solution.

    ``mu1_hi``/``mu2_hi`` are the high-type shares of the low- and high-price
    segments. ``A`` and ``B`` are the payoff exponentials ``exp(w2/k)`` and
    ``exp((w2-w1)/k)``; they overflow to ``inf`` for very small ``k``, where
    the solution is numerically indistinguishable from full discrimination.
    """

    mu1_hi: float
    mu2_hi: float
    A: float
    B: float


def closed_form(vals: Valuations, k: float) -> BinaryClosedForm:
    w1, w2 = _require_two_types(vals)
    if k <= 0.0:
        raise ValidationError("cost_scale", "closed form needs k > 0; use the discrimination path for k = 0")
    mu1, mu2 = tangency_posteriors(vals, k)
    a_exp = math.exp(w2 / k) if w2 / k <= EXP_OVERFLOW else math.inf
    b_exp = math.exp((w2 - w1) / k) if (w2 - w1) / k <= EXP_OVERFLOW else math.inf
    return BinaryClosedForm(mu1_hi=mu1, mu2_hi=mu2, A=a_exp, B=b_exp)


def tangency_posteriors(vals: Valuations, k: float) -> tuple[float, float]:
    """High-type shares of the two optimal segments, low-price one first.

    Computed as ``mu2_hi = expm1(-w1/k) / expm1(-w2/k)`` with
    ``mu1_hi = mu2_hi * exp(-(w2-w1)/k)``, which stays accurate for both
    very small and very large ``k`` (no large positive exponents appear).
    The pair straddles the pricing boundary w1/w2 for every k > 0.
    """
    w1, w2 = _require_two_types(vals)
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
    w1, w2 = _require_two_types(vals)
    if k <= 0.0:
        raise ValidationError("cost_scale", "tangency markets need k > 0; k = 0 is the discrimination limit")
    d = w2 - w1
    em_d = math.expm1(-d / k)
    em_w2 = math.expm1(-w2 / k)
    mu2 = math.expm1(-w1 / k) / em_w2
    mu1 = mu2 * math.exp(-d / k)
    c2 = math.exp(-w1 / k) * em_d / em_w2  # 1 - mu2, no cancellation
    c1 = c2 - mu2 * em_d                   # 1 - mu1, likewise
    # subnormal entries keep too few digits for the likelihood-ratio check;
    # exact zeros are what the certificate's zero-mass rule accepts
    c1, mu1, c2, mu2 = (x if x >= sys.float_info.min else 0.0 for x in (c1, mu1, c2, mu2))
    return Market((c1, mu1)), Market((c2, mu2))


def solve_binary(inst: MarketInstance) -> Segmentation:
    """Optimal segmentation of a two-type market.

    Returns the two-segment tangency split when the prior's high-type share
    lies strictly between the closed-form posteriors, and the degenerate
    no-segmentation outcome otherwise (including exact ties). ``k = 0``
    takes the full-discrimination limit; for tiny positive ``k`` the closed
    forms underflow gracefully to the same answer.
    """
    w1, w2 = _require_two_types(inst.vals)
    if inst.k == 0.0:
        return perfect_discrimination(inst.mu_star, inst.vals)
    mu = inst.mu_star[1]
    m_lo, m_hi = tangency_markets(inst.vals, inst.k)
    lo, hi = m_lo[1], m_hi[1]
    if not (lo < mu < hi):
        return no_segmentation(inst.mu_star, inst.vals)
    tau1 = (hi - mu) / (hi - lo)
    segments = [
        Segment(m_lo, tau1, 0),
        Segment(m_hi, 1.0 - tau1, 1),
    ]
    return Segmentation(inst.mu_star, segments)


def segmentation_threshold(vals: Valuations, mu_star: Market) -> float:
    """Largest cost scale at which the prior still gets segmented.

    For priors below the pricing boundary the binding condition is the
    low-price posterior rising to meet the prior; above the boundary it is
    the high-price posterior falling to it. Found by bisection. Returns
    ``inf`` for the boundary market (which segments at every cost scale)
    and 0 for degenerate priors.
    """
    w1, w2 = _require_two_types(vals)
    mu = mu_star[1]
    if mu <= 0.0 or mu >= 1.0:
        return 0.0
    boundary = w1 / w2
    if mu == boundary:
        return math.inf

    if mu < boundary:
        def gap(k: float) -> float:
            return tangency_posteriors(vals, k)[0] - mu
    else:
        def gap(k: float) -> float:
            return mu - tangency_posteriors(vals, k)[1]

    # gap < 0 means the prior still straddles the posteriors at this k.
    lo = w1 * 1e-12
    while gap(lo) > 0.0:
        lo *= 0.5
        if lo == 0.0:
            return 0.0
    hi = max(w1, 1.0)
    doublings = 0
    while gap(hi) <= 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 1024:
            return math.inf
    while hi - lo > THRESHOLD_BISECTION_TOL * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class EnvelopeResult:
    """Sampled net-value curve, its upper concave envelope, and the gap interval.

    ``interval`` is the maximal grid interval on which the envelope exceeds
    the curve by more than ``gap_tol`` (the region whose priors strictly
    benefit from segmentation); ``None`` when there is no such interval
    around the reference prior.
    """

    grid: np.ndarray
    values: np.ndarray
    envelope: np.ndarray
    interval: tuple[float, float] | None
    gap_tol: float


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
    gap_tol: float = ENVELOPE_GAP_TOL,
) -> EnvelopeResult:
    """Concavify the two-type net-value curve on ``grid_n + 1`` points.

    When ``mu_star`` is given the reported interval is the gap run containing
    its high-type share (``None`` if that prior sits where curve and envelope
    agree, i.e. no segmentation helps it); otherwise the longest gap run.
    """
    _require_two_types(vals)
    if grid_n < 2:
        raise ValidationError("grid_size", f"grid_n must be >= 2, got {grid_n}")
    if k < 0.0:
        raise ValidationError("cost_scale", f"k must be >= 0, got {k}")
    x = np.linspace(0.0, 1.0, grid_n + 1)
    y = net_value_curve(vals, k, x)
    env = np.interp(x, *upper_concave_hull(x, y))
    gap = env - y > gap_tol
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
    return EnvelopeResult(grid=x, values=y, envelope=env, interval=interval, gap_tol=gap_tol)


def binary_net_value(inst: MarketInstance) -> float:
    """Net seller payoff of the optimal two-type policy (revenue minus info cost)."""
    return net_objective(solve_binary(inst), inst.vals, inst.k)
