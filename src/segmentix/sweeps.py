"""Cost sweeps and welfare geometry.

Runs the solver across a ladder of information-cost scales, classifies how
each welfare account moves with the cost, and checks the boundary-prior
always-segments property. Output is tabular (CSV) with an optional
self-contained SVG chart.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, NamedTuple, Sequence

from .binary import tangency_posteriors
from .market import (
    Market,
    MarketInstance,
    Segmentation,
    ValidationError,
    Valuations,
    WelfareReport,
    _Frozen,
    _tail_revenues,
    binary_entropy,
    welfare,
)
from .solver import OptimalityReport, SolverError, solve, verify_optimality

CSV_HEADER = "k,cs,ps_gross,info_cost,ps_net,ts_gross,ts_net,n_segments,prices"

# welfare's price_tol for sweep rows: how far an assigned price may fall
# short of revenue-maximal before the row is rejected
SWEEP_PRICE_TOL = 1e-8


class KGridSpec(_Frozen):
    """Cost-scale ladder: ``n`` log-spaced points from ``lo`` to ``hi``.

    A spec whose points are not strictly increasing in double precision
    (``hi / lo`` too close to 1 for ``n``) is rejected, as an explicit grid is.
    """

    __slots__ = _fields = ("lo", "hi", "n")

    def __init__(self, lo: float, hi: float, n: int):
        try:
            n = operator.index(n)  # an int or numpy integer; a bool is 0 or 1, too few points
        except TypeError:
            raise ValidationError("k_grid", f"the number of points must be an integer, got {n!r}") from None
        super().__init__(lo, hi, n)
        if not (0.0 < self.lo < self.hi) or not math.isfinite(self.hi):
            raise ValidationError("k_grid", f"need 0 < lo < hi finite, got [{self.lo}, {self.hi}]")
        if self.n < 2:
            raise ValidationError("k_grid", f"need at least 2 points, got {self.n}")
        _check_k_grid(self.points())

    def points(self) -> tuple[float, ...]:
        """The grid, in ``np.geomspace``'s steps: ``10 ** (i * step + log10(lo))``, ends exactly ``lo`` and ``hi``."""
        a = math.log10(self.lo)
        step = (math.log10(self.hi) - a) / (self.n - 1)
        return (float(self.lo), *(10.0 ** (i * step + a) for i in range(1, self.n - 1)), float(self.hi))


def _check_k_grid(ks: Sequence[float]) -> None:
    """Reject, as ``k_grid``, a grid that is empty or not finite, positive and strictly increasing."""
    if not ks:
        raise ValidationError("k_grid", "grid must be non-empty")
    if not all(0.0 < k < math.inf for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("k_grid", "grid must be finite, positive and strictly increasing")


def default_k_grid(vals: Valuations) -> KGridSpec:
    """200 log-spaced cost scales spanning both limits of the lowest valuation."""
    return KGridSpec(1e-3 * vals[0], 1e2 * vals[0], 200)


class SweepRow(NamedTuple):
    """One sweep entry: the cost scale, welfare accounts, and solution shape.

    ``error`` is the stringified ``SolverError`` (which no solver raises) when
    the row could not be solved; numeric fields are then absent.
    """

    k: float
    report: WelfareReport | None
    n_segments: int
    prices: tuple[float, ...]
    verify: OptimalityReport | None
    error: str | None = None


class SweepTable(_Frozen):
    """Sweep rows in strictly increasing k order."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[SweepRow, ...]):
        super().__init__(rows)
        ks = [r.k for r in self.rows]
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValidationError("sweep_order", "rows must be strictly increasing in k")

    def series(self, field: str) -> list[tuple[float, float]]:
        """(k, value) pairs of one welfare account, skipping failed rows."""
        out = []
        for r in self.rows:
            if r.report is not None:
                out.append((r.k, getattr(r.report, field)))
        return out


def sweep_k(
    vals: Valuations,
    mu_star: Market,
    k_grid: KGridSpec | Sequence[float] | None = None,
    max_workers: int = 1,
) -> SweepTable:
    """Solve one market at every cost scale on the grid, in grid order, in this process.

    Each row solves ``mu_star`` as given, so it is ``solve`` on that prior at
    the row's k. A row whose solve raises ``SolverError`` is recorded with
    its error and the sweep continues (no solver raises it). Once every row
    is solved, each solved row is accounted by ``welfare``, then each is
    certified by ``verify_optimality``, in grid order. The rows that keep
    the prior whole (one segment, ``mu_star`` itself at weight 1.0) share
    one report per price: it is the ``welfare`` call of the first such row,
    and every later one would give the same bits, since the information
    cost ``k * (H - 1.0 * H)`` is 0.0 at every finite k > 0 and no other
    account reads k. Every other row has a ``welfare`` call of its own. A
    row whose accounts fail raises its ``ValidationError``, the first such
    row in grid order. The grid is checked before any row is
    solved: it must be non-empty, finite, positive and strictly increasing.
    ``max_workers`` is accepted and ignored.
    """
    if k_grid is None:
        k_grid = default_k_grid(vals)
    if isinstance(k_grid, KGridSpec):
        ks = k_grid.points()  # checked when the spec was made
    else:
        ks = [float(k) for k in k_grid]
        _check_k_grid(ks)
    segs: list[Segmentation | str] = []  # per k: the solution, or why the solver failed
    for k in ks:
        try:
            segs.append(solve(MarketInstance(vals, mu_star, k)))
        except SolverError as e:
            segs.append(str(e))
    solved = [(seg, k) for seg, k in zip(segs, ks) if not isinstance(seg, str)]
    # a pass per function, not one loop per row: with the three calls
    # interleaved, each of them measured 23-30 % slower on K=2 sweeps
    whole: dict[int, WelfareReport] = {}  # per price index: the report of the rows that keep the prior whole
    accounted = []
    for seg, k in solved:
        first = seg.segments[0]
        if len(seg.segments) == 1 and first.market is mu_star and first.weight == 1.0:  # see the docstring
            if first.price_index not in whole:
                whole[first.price_index] = welfare(seg, vals, k, price_tol=SWEEP_PRICE_TOL)
            accounted.append(whole[first.price_index])
        else:
            accounted.append(welfare(seg, vals, k, price_tol=SWEEP_PRICE_TOL))
    reports = iter(accounted)
    verified = iter([verify_optimality(seg, vals, k) for seg, k in solved])
    values = vals.values
    rows = []
    for k, seg in zip(ks, segs):
        if isinstance(seg, str):
            rows.append(SweepRow(k=k, report=None, n_segments=0, prices=(), verify=None, error=seg))
        else:
            prices = tuple([values[c.price_index] for c in seg.segments])
            rows.append(SweepRow(k, next(reports), len(seg.segments), prices, next(verified)))
    return SweepTable(rows=tuple(rows))


def classify_monotonicity(values: Iterable[float]) -> str:
    """Label a series nondecreasing, nonincreasing, or nonmonotone.

    Successive differences within 1e-9 of the series magnitude count as
    float noise. A constant series counts as nondecreasing (checked first).
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        raise ValidationError("series_size", f"need at least 3 points, got {len(vals)}")
    tol = 1e-9 * max(abs(v) for v in vals)
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    if all(d >= -tol for d in diffs):
        return "nondecreasing"
    if all(d <= tol for d in diffs):
        return "nonincreasing"
    return "nonmonotone"


class BoundaryReport(NamedTuple):
    """Witness that the boundary prior segments at every tested cost scale.

    ``min_straddle_slack`` is the smallest distance from the boundary share
    to either tangency posterior; ``min_gain`` the smallest net value gain
    of segmenting over standing pat, with ``argmin_k`` the scale attaining it.
    """

    always_segments: bool
    min_straddle_slack: float
    min_gain: float
    argmin_k: float


def boundary_always_segments(vals: Valuations, k_grid: Sequence[float]) -> BoundaryReport:
    """Check that the price-region boundary prior segments for every k.

    The boundary market (high-type share ω₁/ω₂) is revenue-indifferent
    between both prices, and the tangency posteriors straddle it at every
    finite cost scale, so the seller always strictly gains by splitting.
    The gain is computed with the k factor kept outside the entropy
    combination, which preserves its sign even when it decays to the
    1e-12 scale at large k.
    """
    if len(vals) != 2:
        raise ValidationError("binary_only", "boundary property is for two-type markets")
    w1, w2 = vals[0], vals[1]
    r = w1 / w2
    prior = Market([1.0 - r, r])
    rev_prior = max(_tail_revenues(prior.weights, vals.values))
    h_prior = binary_entropy(r)
    always = True
    min_slack = math.inf
    min_gain = math.inf
    argmin_k = math.nan
    for k in k_grid:
        k = float(k)
        lo, hi = tangency_posteriors(vals, k)
        slack = min(r - lo, hi - r)
        min_slack = min(min_slack, slack)
        if not (lo < r < hi):
            always = False
            continue
        tau = (hi - r) / (hi - lo)
        rev_split = tau * w1 + (1.0 - tau) * w2 * hi
        gain = (rev_split - rev_prior) + k * (tau * binary_entropy(lo) + (1.0 - tau) * binary_entropy(hi) - h_prior)
        if gain < min_gain:
            min_gain = gain
            argmin_k = k
        if gain <= 0.0:
            always = False
    return BoundaryReport(
        always_segments=always,
        min_straddle_slack=min_slack,
        min_gain=min_gain,
        argmin_k=argmin_k,
    )


def to_csv(table: SweepTable) -> str:
    """Render a sweep as CSV text. Failed rows carry nan fields and no prices.

    A report object that several rows hold (as ``sweep_k`` shares one) is
    formatted once; the key is its identity, as ``==`` does not tell 0.0
    from -0.0.
    """
    lines = [CSV_HEADER]
    accounts: dict[int, str] = {}  # per report object: its six fields
    for row in table.rows:
        rep = row.report
        if rep is None:
            lines.append(f"{row.k!r},nan,nan,nan,nan,nan,nan,0,")
            continue
        text = accounts.get(id(rep))
        if text is None:
            text = accounts[id(rep)] = (
                f"{rep.cs!r},{rep.ps_gross!r},{rep.info_cost!r},{rep.ps_net!r},{rep.ts_gross!r},{rep.ts_net!r}"
            )
        lines.append(f"{row.k!r},{text},{row.n_segments},{';'.join(map(repr, row.prices))}")
    return "\n".join(lines) + "\n"


_SVG_SERIES = ("cs", "ps_gross", "ps_net", "ts_gross")
_SVG_COLORS = {"cs": "#1f77b4", "ps_gross": "#d62728", "ps_net": "#ff7f0e", "ts_gross": "#2ca02c"}


def to_svg(table: SweepTable) -> str:
    """Self-contained 800 x 500 SVG line chart of the welfare accounts against log10(k)."""
    width, height = 800, 500
    pts = {name: table.series(name) for name in _SVG_SERIES}
    all_k = [k for series in pts.values() for k, _ in series]
    all_v = [v for series in pts.values() for _, v in series]
    if not all_k:
        raise ValidationError("sweep_empty", "no successful rows to chart")
    lx = [math.log10(k) for k in all_k]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(all_v), max(all_v)
    if x1 - x0 <= 0.0:
        x1 = x0 + 1.0
    if y1 - y0 <= 0.0:
        y1 = y0 + 1.0
    ml, mr, mt, mb = 60, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb

    def px(k: float) -> float:
        return ml + pw * (math.log10(k) - x0) / (x1 - x0)

    def py(v: float) -> float:
        return mt + ph * (1.0 - (v - y0) / (y1 - y0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for name in _SVG_SERIES:
        series = pts[name]
        if not series:
            continue
        coords = " ".join(f"{px(k):.2f},{py(v):.2f}" for k, v in series)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{_SVG_COLORS[name]}" stroke-width="1.5"/>'
        )
    legend_y = mt + 14
    for name in _SVG_SERIES:
        parts.append(
            f'<text x="{ml + 8}" y="{legend_y}" font-family="monospace" font-size="12" '
            f'fill="{_SVG_COLORS[name]}">{name}</text>'
        )
        legend_y += 14
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 12}" font-family="monospace" font-size="12" '
        f'fill="#333" text-anchor="middle">log10(k)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
