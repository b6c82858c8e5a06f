"""Inverse problem: choose segments and a convex information cost so that a
given (consumer surplus, producer surplus) pair is what the seller's optimum
produces.

For a two-type market whose uniform price is the low valuation, every
strictly interior point of the surplus triangle is achievable. The target
pins down a unique segment pair and mixing weight; a one-knot
piecewise-quadratic cost then makes that pair globally optimal. Global
optimality needs the cost's derivative gap across the segments to equal the
high valuation together with a chord condition: both are built in exactly,
and verify_rationalization re-checks the outcome with the exact best pair
over the grid, the chord of the grid curve's upper concave hull over the
prior (Kamenica & Gentzkow 2011). That search is the two-type oracle's own
``oracle.pair_scan``: it scores only the pairs that can win, in O(grid_n)
cells, and returns what scoring every pair returns, bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .market import (
    Market,
    Segment,
    Segmentation,
    SurplusTriangle,
    ValidationError,
    Valuations,
    _Frozen,
    surplus_triangle,
    welfare,
)
from .oracle import pair_scan

SLOPE_FLOOR = 1e-6
MIN_VERIFY_GRID_N = 2000  # coarser grids cannot place the argmax within two steps of the target
CS_PS_TOL = 1e-3  # how far the re-optimized (CS, PS) may land from the target


class RationalizationTarget(_Frozen):
    """A (CS, gross PS) point to be made optimal, with its market.

    Valid targets are strictly interior to the surplus triangle, and the
    prior's uniform price must be the low valuation; high-prior markets are
    the mirror case and are rejected rather than silently transformed.
    """

    __slots__ = _fields = ("cs", "ps", "vals", "mu_star")

    def __init__(self, cs: float, ps: float, vals: Valuations, mu_star: Market):
        super().__init__(cs, ps, vals, mu_star)
        if len(self.vals) != 2 or len(self.mu_star) != 2:
            raise ValidationError("binary_only", "rationalization covers two-type markets")
        w1, w2 = self.vals[0], self.vals[1]
        if w2 * self.mu_star[1] > w1:
            raise ValidationError(
                "price_region", "prior must price at the low valuation (high-type share <= w1/w2)"
            )
        tri = self.triangle
        if not (0.0 < self.cs < tri.max_cs):
            raise ValidationError(
                "rationalizable_region", f"cs must lie strictly in (0, {tri.max_cs}), got {self.cs}"
            )
        if not self.ps > tri.uniform_profit:
            raise ValidationError(
                "rationalizable_region",
                f"ps must strictly exceed the uniform profit {tri.uniform_profit}, got {self.ps}",
            )
        if not self.cs + self.ps < tri.full_surplus:
            raise ValidationError(
                "rationalizable_region",
                f"cs + ps must stay strictly below the full surplus {tri.full_surplus}, got {self.cs + self.ps}",
            )

    @property
    def triangle(self) -> SurplusTriangle:
        return surplus_triangle(self.mu_star, self.vals)


class InducedSegments(NamedTuple):
    """High-type shares of the two segments and the low-price segment's weight."""

    mu1: float
    mu2: float
    tau1: float


def induced_segments(target: RationalizationTarget) -> InducedSegments:
    """Solve the target's welfare equations for the unique segment pair.

    Only the low-price segment generates consumer surplus (its high types
    pay the low price), which fixes that segment's share of high types;
    producer surplus then fixes the weight, and Bayes plausibility fixes
    the rest. Interior targets always land with the low segment weakly
    below the pricing boundary and the high segment strictly above it.
    """
    w1, w2 = target.vals[0], target.vals[1]
    mu = target.mu_star[1]
    t1 = target.cs / (w2 - w1)        # tau1 * mu1, the surplus-earning mass
    t2 = mu - t1                      # tau2 * mu2
    tau1 = (target.ps - w2 * t2) / w1
    if not (0.0 < tau1 < 1.0):
        raise ValidationError("rationalizable_region", f"implied weight {tau1} is not interior")
    mu1 = t1 / tau1
    mu2 = t2 / (1.0 - tau1)
    r = w1 / w2
    if not (mu1 <= r <= mu2):
        raise ValidationError(
            "rationalizable_region",
            f"segments ({mu1}, {mu2}) must straddle the pricing boundary {r}",
        )
    return InducedSegments(mu1=mu1, mu2=mu2, tau1=tau1)


def realized_welfare(seg: InducedSegments, vals: Valuations) -> tuple[float, float]:
    """(CS, gross PS) generated by the induced segments; inverse of induced_segments."""
    w1, w2 = vals[0], vals[1]
    cs = seg.tau1 * seg.mu1 * (w2 - w1)
    ps = seg.tau1 * w1 + (1.0 - seg.tau1) * seg.mu2 * w2
    return cs, ps


class ConvexCostSpec(_Frozen):
    """Piecewise-quadratic convex function on [0, 1].

    ``quadratics[i]`` holds (a, b, c) with value a*x^2 + b*x + c on the
    interval [knots[i], knots[i+1]]. Both fields are normalized to floats,
    as ``Valuations`` is: ``knots`` a tuple of floats and ``quadratics`` a
    tuple of float 3-tuples, so a spec built from lists is hashable and
    cannot change after its checks. Construction validates finite,
    increasing knots, strict convexity of every piece, finite linear and
    constant coefficients, and value/derivative continuity at the interior
    knots. The interior knots and the coefficients, as arrays, are built
    once here, outside ``==``, ``hash`` and ``repr``. x beyond [0, 1] takes
    the nearest end piece, and NaN the last. ``value`` and ``derivative``
    of a float are taken on floats, by the array path's IEEE operations,
    so they give its bits.
    """

    _fields = ("knots", "quadratics")
    __slots__ = (*_fields, "_interior", "_coefs")

    def __init__(self, knots: Sequence[float], quadratics: Sequence[Sequence[float]]):
        ks = tuple(map(float, knots))
        quads = tuple([tuple(map(float, q)) for q in quadratics])
        super().__init__(ks, quads)
        if len(ks) < 2 or len(quads) != len(ks) - 1 or any(len(q) != 3 for q in quads):
            raise ValidationError("cost_shape", "need one quadratic (a, b, c) per knot interval")
        if not all(map(math.isfinite, ks)):
            raise ValidationError("cost_knots", f"knots must be finite, got {ks}")
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValidationError("cost_knots", f"knots must be strictly increasing, got {ks}")
        if ks[0] != 0.0 or ks[-1] != 1.0:
            raise ValidationError("cost_knots", "knots must span [0, 1]")
        for i, (a, _, _) in enumerate(quads):
            if not (a > 0.0 and math.isfinite(a)):
                raise ValidationError(
                    "cost_convexity", f"piece {i} has curvature {a}; strict convexity needs a > 0"
                )
        for i, (_, b, c) in enumerate(quads):
            if not (math.isfinite(b) and math.isfinite(c)):
                raise ValidationError("cost_finite", f"piece {i} has coefficients b={b}, c={c}; both must be finite")
        for i in range(1, len(ks) - 1):
            x = ks[i]
            al, bl, cl = quads[i - 1]
            ar, br, cr = quads[i]
            vgap = abs((al * x + bl) * x + cl - ((ar * x + br) * x + cr))
            dgap = abs((2.0 * al * x + bl) - (2.0 * ar * x + br))
            scale = 1.0 + abs(2.0 * ar * x + br)
            if vgap > 1e-9 * scale or dgap > 1e-9 * scale:
                raise ValidationError(
                    "cost_continuity", f"knot {x}: value gap {vgap:.3e}, derivative gap {dgap:.3e}"
                )
        object.__setattr__(self, "_interior", np.array(ks[1:-1]))
        object.__setattr__(self, "_coefs", tuple(np.array(quads).T.copy()))  # a, b and c by piece

    def _piece(self, x: float) -> tuple[float, float, float]:
        """(a, b, c) of the piece holding the float x: the interior knots at or below it count."""
        return self.quadratics[bisect.bisect_right(self.knots, x, 1, len(self.knots) - 1) - 1]

    def _coefficients(self, x: np.ndarray) -> list[np.ndarray]:
        """a, b and c of the piece holding each x, each shaped like x.

        One 1-D take per coefficient: indexing a 2-D coefficient array
        costs about twice as much on a verification grid.
        """
        idx = np.searchsorted(self._interior, x, "right")
        return [coef[idx] for coef in self._coefs]

    def value(self, x) -> np.ndarray | float:
        if isinstance(x, float):  # the same IEEE operations as on an array element
            a, b, c = self._piece(x)
            return float((a * x + b) * x + c)
        xs = np.asarray(x, dtype=float)
        out, b, c = self._coefficients(xs)  # (a x + b) x + c, in place
        out *= xs
        out += b
        out *= xs
        out += c
        return float(out) if np.isscalar(x) else out

    def derivative(self, x) -> np.ndarray | float:
        if isinstance(x, float):
            a, b, _ = self._piece(x)
            return float(2.0 * a * x + b)
        xs = np.asarray(x, dtype=float)
        a, b, _ = self._coefficients(xs)
        out = 2.0 * a * xs + b
        return float(out) if np.isscalar(x) else out


def construct_cost(
    mu1: float, mu2: float, tau1: float, vals: Valuations, mu_star: Market
) -> ConvexCostSpec:
    """Build a strictly convex cost making (mu1, mu2) the optimal segments.

    The derivative is piecewise linear through (mu1, d1) and (mu2, d2) with
    one interior knot. d1 comes from the chord condition under the
    normalization c(mu1) = c(mu2) = 0; d2 = w2 + d1 equalizes the tangent
    slopes across the pricing kink. The knot height makes the derivative's
    integral over [mu1, mu2] vanish exactly (so the normalization holds),
    and the knot position is the midpoint of the interval on which both
    connecting slopes stay positive. Outside [mu1, mu2] the derivative
    extends linearly with slope one.
    """
    w1, w2 = vals[0], vals[1]
    if not (0.0 < mu1 < mu2 < 1.0):
        raise ValidationError("cost_segments", f"need 0 < mu1 < mu2 < 1, got ({mu1}, {mu2})")
    d1 = (w1 - w2 * mu2) / (mu2 - mu1)
    d2 = w2 + d1
    if d1 >= 0.0 or d2 <= 0.0:
        raise ValidationError(
            "cost_convexity", f"tangency derivatives ({d1}, {d2}) must straddle zero"
        )
    gain = (1.0 - tau1) * (w2 * mu2 - w1)
    if gain < 0.0:
        raise ValidationError("cost_gain", f"segmentation gain {gain} is negative")
    beta = -d1
    t_lo = max(0.0, 1.0 - 2.0 * beta / w2)
    t_hi = min(1.0, 2.0 - 2.0 * beta / w2)
    t = 0.5 * (t_lo + t_hi)
    m = mu1 + t * (mu2 - mu1)
    y = w2 * t - d2  # makes the integral of the derivative over [mu1, mu2] zero
    span = mu2 - mu1
    slope_in1 = (y - d1) / (t * span)
    slope_in2 = (d2 - y) / ((1.0 - t) * span)
    if min(slope_in1, slope_in2) < SLOPE_FLOOR:
        raise ValidationError(
            "cost_convexity",
            f"interior slopes ({slope_in1:.3e}, {slope_in2:.3e}) fall below the floor {SLOPE_FLOOR}",
        )

    # derivative values at knots [0, mu1, m, mu2, 1]; linear extension slope 1
    knots = (0.0, mu1, m, mu2, 1.0)
    derivs = (d1 - mu1, d1, y, d2, d2 + (1.0 - mu2))
    # integrate: trapezoid is exact for a piecewise-linear derivative
    values = [0.0] * 5
    values[1] = 0.0  # normalization c(mu1) = 0
    values[0] = values[1] - 0.5 * (derivs[0] + derivs[1]) * (knots[1] - knots[0])
    for i in (2, 3, 4):
        values[i] = values[i - 1] + 0.5 * (derivs[i - 1] + derivs[i]) * (knots[i] - knots[i - 1])
    quads = []
    for i in range(4):
        x0, x1 = knots[i], knots[i + 1]
        g0, g1 = derivs[i], derivs[i + 1]
        s = (g1 - g0) / (x1 - x0)
        a = 0.5 * s
        b = g0 - s * x0
        c = values[i] - (a * x0 + b) * x0
        quads.append((a, b, c))
    return ConvexCostSpec(knots=knots, quadratics=tuple(quads))


def foc_residuals(spec: ConvexCostSpec, seg: InducedSegments, vals: Valuations) -> tuple[float, float]:
    """Residuals of the two tangency conditions under the constructed cost.

    First: the chord condition (w1 - w2*mu2) - c'(mu1)*(mu2 - mu1).
    Second: the tangent-slope condition (c'(mu2) - c'(mu1)) - w2, i.e. the
    derivative gap across the pricing kink must equal the high valuation.
    """
    w1, w2 = vals[0], vals[1]
    d1 = spec.derivative(seg.mu1)
    d2 = spec.derivative(seg.mu2)
    return (w1 - w2 * seg.mu2) - d1 * (seg.mu2 - seg.mu1), (d2 - d1) - w2


@functools.lru_cache(maxsize=2)
def _verify_grid(grid_n: int) -> np.ndarray:
    """The posteriors linspace(0, 1, grid_n + 1), read-only and shared; the last two sizes asked for are kept."""
    x = np.linspace(0.0, 1.0, grid_n + 1)
    x.flags.writeable = False
    return x


class RationalizationReport(NamedTuple):
    """Outcome of grid re-optimization under a constructed cost."""

    passed: bool
    best_is_pair: bool
    argmax: tuple[float, float, float] | None
    intended: InducedSegments
    posterior_steps: float
    realized_cs: float
    realized_ps: float
    best_value: float
    no_seg_value: float
    grid_step: float
    messages: tuple[str, ...]


def verify_rationalization(
    spec: ConvexCostSpec,
    target: RationalizationTarget,
    grid_n: int = 4000,
) -> RationalizationReport:
    """Re-optimize from scratch under the constructed cost and compare.

    Maximizes the seller's objective (revenue minus expected cost, plus the
    constant cost at the prior) over the grid pairs straddling the prior,
    and the no-segmentation candidate. The best pair x1 < prior < x2 comes
    from ``oracle.pair_scan``, which takes its supporting line from a few
    tangent searches for the hull edge over the prior and then scores only
    the pairs near that line, O(grid_n) cells in all. Passes when the
    argmax lands within two grid steps of the intended segments and
    reproduces the target welfare within ``CS_PS_TOL``. When no pair beats
    staying put (the prior a vertex of the hull among them), the report is
    the failed no-segmentation one, and its message quotes the best pair's
    value.
    """
    if grid_n < MIN_VERIFY_GRID_N:
        raise ValidationError("grid_size", f"verification needs grid_n >= {MIN_VERIFY_GRID_N}, got {grid_n}")
    w1, w2 = target.vals[0], target.vals[1]
    mu = target.mu_star[1]
    intended = induced_segments(target)
    h = 1.0 / grid_n

    x = _verify_grid(grid_n)
    phi = np.maximum(w1, w2 * x)  # the best revenue, less the cost below
    phi -= spec.value(x)
    c_prior = spec.value(mu)
    no_seg_value = max(w1, w2 * mu)  # phi(mu) + c(mu)

    best_v, pair = pair_scan(x, phi, mu)
    best_v += c_prior

    if not best_v > no_seg_value:
        return RationalizationReport(
            passed=False,
            best_is_pair=False,
            argmax=None,
            intended=intended,
            posterior_steps=math.inf,
            realized_cs=0.0,
            realized_ps=no_seg_value,
            best_value=no_seg_value,
            no_seg_value=no_seg_value,
            grid_step=h,
            messages=(f"no-segmentation value {no_seg_value!r} beats every pair ({best_v!r})",),
        )

    x1, x2 = pair
    tau1 = (x2 - mu) / (x2 - x1)
    steps = max(abs(x1 - intended.mu1), abs(x2 - intended.mu2)) / h
    m1 = Market([1.0 - x1, x1])
    m2 = Market([1.0 - x2, x2])
    seg = Segmentation(
        target.mu_star,
        [
            Segment(m1, tau1, 0 if w2 * x1 <= w1 else 1),
            Segment(m2, 1.0 - tau1, 1 if w2 * x2 >= w1 else 0),
        ],
    )
    rep = welfare(seg, target.vals, 0.0)
    messages: list[str] = []
    if steps > 2.0:
        messages.append(
            f"argmax ({x1}, {x2}) is {steps:.1f} grid steps from intended "
            f"({intended.mu1}, {intended.mu2})"
        )
    if abs(rep.cs - target.cs) > CS_PS_TOL or abs(rep.ps_gross - target.ps) > CS_PS_TOL:
        messages.append(
            f"realized (CS, PS) = ({rep.cs}, {rep.ps_gross}) misses target "
            f"({target.cs}, {target.ps}) beyond {CS_PS_TOL}"
        )
    return RationalizationReport(
        passed=not messages,
        best_is_pair=True,
        argmax=(x1, x2, tau1),
        intended=intended,
        posterior_steps=steps,
        realized_cs=rep.cs,
        realized_ps=rep.ps_gross,
        best_value=best_v,
        no_seg_value=no_seg_value,
        grid_step=h,
        messages=tuple(messages),
    )
