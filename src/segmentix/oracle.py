"""Brute-force oracles for validating the solvers.

Deliberately independent implementations: plain grid search (two types) and
a linear program over a simplex grid (three types), each followed by
column generation off the grid and reported with an upper bound (``upper``).
Nothing here shares likelihood-ratio machinery with the solvers; tests
sandwich solver values between oracle values to catch agreement-by-shared-
bug.

The two-type pair scan scores every grid pair that can win, in O(grid_n)
cells rather than all of them. For any line L with L(prior) = phi, a pair
is worth phi - tau*d1 - (1 - tau)*d2, where d is an end point's distance
below L; so a pair that ties a known pair value V needs an end point with
d <= phi - V. The envelope's edge over the prior (the LP dual of the pair
problem), found by a few tangent searches, gives a line that leaves a
handful of such points. The pairs through them are scored with the
exhaustive scan's own elementwise formula and tie-break, so its results
keep their bytes. ``pair_scan`` is also the rationalization check's best
chord search; it is the only one in the package.

A line (or plane) raised by the most any price piece rises above it, a
closed form, bounds the value from above, and where each piece rises most
is the next column to try. Both oracles first price the tangent at the
prior, which certifies no segmentation above k-bar, and otherwise generate
columns from the grid's best until the bound meets the value: the
two-type oracle to rounding, the three-type one to 1e-11 relative, its
master re-solved each round by the grid LP from its last basis.

The LP is Dantzig's primal simplex on three rows, written out here, so an
oracle run loads nothing beyond numpy. On the grid it starts from the cell
that holds the prior, a feasible basis that above k-bar is already optimal
(Dantzig 1963, ch. 7), and solves its weights on the optimal basis alone,
so they do not depend on the start.

A grid's posteriors, their upper tails and their entropies depend only on
its size; they are built once, read-only, and the last size of each kind is
kept, so a call on it pays only for ``_net_value_points``, which also
values the three-type master's points.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .market import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    binary_entropy,
    entropy,
    no_segmentation,
    optimal_price,
)

_LP_MAX_PIVOTS = 1000  # 1,600 seeded K=3 grid LPs took at most 18 from the prior's cell (22 from the corners)
_CG_ROUNDS = 32  # two-type column-generation rounds: 5,550 seeded calls on grids 4 to 4000 took at most 9
_LP_ROUNDS = 64  # three-type column-generation rounds: 1,600 seeded calls at k/k-bar 0.03 to 2 on grids 20 to 100 took at most 23
_LP_GAP = 1e-11  # three-type stop: U - L <= _LP_GAP * max(1, |L|); see brute_force_small
_PAIR_CELLS = 1 << 15  # pair cells scored at once: 256 KB temporaries that stay in cache


def _prior_cell(m: int, mu: np.ndarray) -> list[int]:
    """Rows of ``_simplex_grid(m)`` at the corners of the grid cell that holds ``mu``.

    With a = m mu_0 and b = m mu_1, the cell's corner (i0, j0) is their
    floors, kept on the grid; it is the "up" triangle (i0, j0), (i0+1, j0),
    (i0, j0+1) when frac(a) + frac(b) <= 1 and the "down" triangle
    (i0+1, j0), (i0, j0+1), (i0+1, j0+1) otherwise. On the long edge
    (i0 + j0 = m - 1) only the up triangle is on the grid, and mu is in it
    up to the rounding of a + b. Point (i, j) is row i(m+1) - i(i-1)/2 + j.
    """
    a, b = m * float(mu[0]), m * float(mu[1])
    i0 = min(math.floor(a), m - 1)
    j0 = min(math.floor(b), m - 1 - i0)
    up = a - i0 + b - j0 <= 1.0 or i0 + j0 == m - 1
    cell = [(i0 + 1, j0), (i0, j0 + 1), (i0, j0) if up else (i0 + 1, j0 + 1)]
    return sorted(i * (m + 1) - i * (i - 1) // 2 + j for i, j in cell)


def _grid_lp(P: np.ndarray, g: np.ndarray, mu: np.ndarray, start: list[int]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Maximise ``g @ lam`` subject to ``P.T @ lam = mu``, ``lam >= 0``; returns lam, the dual y and the basis.

    Primal simplex on the three rows, from the feasible basis ``start``:
    three rows of P whose hull holds ``mu``, such as ``_prior_cell``'s.
    Dantzig pricing picks the entering point and stops once no reduced cost
    exceeds 1e-12 * max(1, |g|_inf); the ratio test breaks ties on the
    lowest point index. Each pass re-solves the 3x3 basis, so no error
    accumulates. The weights are solved on the optimal basis in ascending
    row order; where mu sits on a grid edge or point, a basic weight is at
    most 1e-12 and several bases hold the same vertex, so the weights are
    fitted on the points above it alone and normalised. Either way they
    depend on the optimal vertex, not on the start or the pivots' path.
    The dual y solves B y = g on the optimal basis, as the last pass left
    it: the plane y . p passes through the basic points and lies above g at
    every grid point, to the pricing tolerance, and y . mu = g @ lam. The
    optimal basis, in ascending row order, is a feasible start for the same
    LP with more points appended to P.
    """
    basis = list(start)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    for pivots in range(_LP_MAX_PIVOTS + 1):
        B = P[basis]  # rows are the basic points, so the basis matrix is B.T
        y = np.linalg.solve(B, g[basis])
        d = g - P @ y
        j = int(np.argmax(d))
        if d[j] <= tol:
            basis.sort()
            x = np.linalg.solve(P[basis].T, mu)
            support = [r for r, xr in zip(basis, x.tolist()) if xr > 1e-12]
            if len(support) < 3:
                x = np.linalg.lstsq(P[support].T, mu, rcond=None)[0]
                x = x / x.sum()
            lam = np.zeros(len(P))
            lam[support] = x
            return lam, y, basis
        if pivots == _LP_MAX_PIVOTS:
            break
        x, w = np.linalg.solve(B.T, np.column_stack([mu, P[j]])).T
        rows = np.flatnonzero(w > 1e-12)  # never empty: w sums to 1, as the points do
        ratios = np.maximum(x[rows], 0.0) / w[rows]
        tied = rows[ratios == ratios.min()]
        basis[min(tied, key=lambda r: basis[r])] = j
    raise ValidationError("oracle_lp", f"grid LP not optimal after {_LP_MAX_PIVOTS} pivots")


class OracleResult(NamedTuple):
    """Best value found by grid search plus column generation, and a bound on it.

    ``value``, ``upper`` and ``grid_value`` are net objectives (revenue
    minus information cost). ``value`` is the oracle's valuation of
    ``segmentation``, and the optimum lies in [``value``, ``upper``] up to
    rounding. ``grid_value`` is the grid's best, before column generation,
    for both type counts. Once column generation meets its tolerance,
    ``upper`` is within rounding of ``value`` (two types) or within 1e-11
    of it relative to the value before the prior's entropy credit (three
    types); it is wider only where the rounds run out.
    ``resolution_bound`` is a crude overestimate of how much value the grid
    alone can miss. ``upper`` is the certified bound; ``resolution_bound``
    and its ``oracle`` JSON key stay because the benchmark harness in
    ``perfbench/`` reads them.
    """

    value: float
    upper: float
    grid_value: float
    segmentation: Segmentation
    grid_step: float
    resolution_bound: float
    method: str


def _grid_terms(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper tails and entropies of the row-posteriors of P, for ``_net_value_points``."""
    tails = np.ascontiguousarray(np.cumsum(P[:, ::-1], axis=1)[:, ::-1])
    return tails, -(P * np.log(np.where(P > 0.0, P, 1.0))).sum(axis=-1)  # log 1 = 0 where P = 0


def _net_value_points(vals: np.ndarray, k: float, tails: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Best revenue plus entropy credit at each grid point, from its tails and entropy."""
    # the best price column by column: numpy's max along a row of two or
    # three entries takes five times as long on a grid
    return functools.reduce(np.maximum, (tails * vals).T) + k * H


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)
def _pair_grid(grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-type grid: high-type shares x = linspace(0, 1, grid_n + 1), and
    the tails and entropies of the posteriors (1 - x, x). Kept until another
    size is asked for, and shared, so the arrays are read-only."""
    x = np.linspace(0.0, 1.0, grid_n + 1)
    return _read_only(x, *_grid_terms(np.column_stack([1.0 - x, x])))


@functools.lru_cache(maxsize=1)
def _simplex_grid(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The resolution-m three-type grid, row-major (i outer, j inner): its
    points P and their tails and entropies. Kept until another size is
    asked for, and shared, so the arrays are read-only."""
    r = np.arange(m + 1)
    i, j = np.nonzero(np.add.outer(r, r) <= m)
    P = np.column_stack([i, j, m - i - j]) / m
    return _read_only(P, *_grid_terms(P))


def _resolution_bound(h: float, top_value: float, k: float) -> float:
    # worst-case value drop from moving posteriors one grid cell: revenue
    # slope at most the top valuation, entropy slope at most |log h| once
    # points are a cell away from the boundary
    return 2.0 * h * (top_value + k * max(1.0, -math.log(h)))


def _pair_values(xl: np.ndarray, gl: np.ndarray, xh: np.ndarray, gh: np.ndarray, mu: float) -> np.ndarray:
    """Value of every pair (xl[i], xh[j]) mixed to the prior share ``mu``."""
    tau = (xh[None, :] - mu) / (xh[None, :] - xl[:, None])
    return tau * gl[:, None] + (1.0 - tau) * gh[None, :]


def _block_max(xl: np.ndarray, gl: np.ndarray, xh: np.ndarray, gh: np.ndarray, mu: float) -> tuple[float, int, int]:
    """``_pair_values``' first maximum in (i, j) order, and its (i, j).

    A block of more than ``_PAIR_CELLS`` cells is scored a few rows at a
    time, at most ``_PAIR_CELLS`` cells (or one row) each: cells are scored
    alike however the rows are cut, and the first of the chunks' first
    maxima, in row order, is the whole block's.
    """
    step = max(1, _PAIR_CELLS // len(xh))
    if step >= len(xl):  # one piece, as on any curve not straight to within rounding
        V = _pair_values(xl, gl, xh, gh, mu)
        r, c = divmod(int(V.argmax()), V.shape[1])
        return V[r, c], r, c
    best = []
    for start in range(0, len(xl), step):
        V = _pair_values(xl[start : start + step], gl[start : start + step], xh, gh, mu)
        r, c = divmod(int(V.argmax()), V.shape[1])
        best.append((V[r, c], start + r, c))
    return max(best, key=lambda b: b[0])  # the first of equal maxima


def pair_scan(x: np.ndarray, g: np.ndarray, mu: float) -> tuple[float, tuple[float, float] | None]:
    """Best grid pair x1 < mu < x2 and its value; the first maximum in (x1, x2) order.

    ``x`` is strictly increasing in [0, 1]. Exactly the maximum over all
    pairs, but only pairs with an end point near a supporting line are
    scored. The line L(x) = phi + b (x - mu) has
    phi = max_i g_i + b (mu - x_i) (over x_i != mu), and phi is convex in
    b with its minimum, the concave envelope at mu, at the slope of the
    envelope's edge over mu. That edge is found by alternating tangent
    searches: from a left end i, the right end j is the point of x > mu
    with the greatest slope from i, then i the point of x < mu with the
    least slope to j, until an end repeats or 64 rounds pass; b is the
    slope of ij. A repeated j stops before its search for i, which would
    return the i it came from; a repeated i stops the ties on a flat run,
    which can cycle. Any b is correct, a near one only scores fewer pairs.
    With d_i = L(x_i) - g_i, a pair's exact value is
    phi - tau d_i - (1 - tau) d_j, so a pair worth at least V has
    min(d_i, d_j) <= phi - V. V is the computed value of the pair of
    points nearest L, one on each side, scored on floats with the same
    operations as ``_pair_values``.

    Each tangent search is four passes over one side of mu. The a_i are
    then three passes over the whole grid, sliced on each side of mu, so
    the points at mu stay out of phi and of the cut; d is one more pass,
    and the cut two passes a side. The blocks of rows and columns under
    the cut are scored by ``_block_max``.

    The cut on d is phi - V plus a slack of 32 ulp(S), S = max(|g|, |b|,
    |phi|), that covers rounding. With u = 2**-53, u S <= ulp(S) and x, mu
    in [0, 1]: a_i = g_i + b (mu - x_i) is off by at most u (|g| + 3.01 |b|),
    and d_i = phi - a_i, phi being an exact max of the a_i, by 7.1 u S; tau
    is off by 3.01 u and 1 - tau by 4.02 u, so a pair value is off by
    10.1 u max|g|; forming phi - V and adding the slack round by 2.03 u S
    each. A pair whose computed value reaches V's thus keeps an end point
    under the cut as long as the slack is at least 21.3 u S.
    """
    lo = int(x.searchsorted(mu))
    hi = lo + 1 if lo < len(x) and x[lo] == mu else lo  # x is strictly increasing: at most one point is mu
    if lo == 0 or hi == len(x):
        return -math.inf, None
    xl, gl, xh, gh = x[:lo], g[:lo], x[hi:], g[hi:]
    i, j, seen = lo - 1, -1, set()
    for _ in range(64):  # stops once an end repeats; any b is exact
        seen.add(i)
        j_next = int(((gh - gl[i]) / (xh - xl[i])).argmax())
        if j_next == j:  # i was the least slope to this j already
            break
        j = j_next
        i_next = int(((gh[j] - gl) / (xh[j] - xl)).argmin())
        if i_next in seen:
            break
        i = i_next
    xi, gi, xj, gj = float(xl[i]), float(gl[i]), float(xh[j]), float(gh[j])
    b = (gj - gi) / (xj - xi)
    a = g + b * (mu - x)
    al, ah = a[:lo], a[hi:]
    phi = float(max(al.max(), ah.max()))
    d = phi - a
    dl, dh = d[:lo], d[hi:]
    i, j = int(dl.argmin()), int(dh.argmin())
    xi, gi, xj, gj = float(xl[i]), float(gl[i]), float(xh[j]), float(gh[j])
    tau = (xj - mu) / (xj - xi)
    v = tau * gi + (1.0 - tau) * gj  # the nearest pair, scored as _pair_values scores it
    cut = (phi - v) + 32 * math.ulp(max(float(g.max()), -float(g.min()), abs(b), abs(phi)))
    rows, cols = (dl <= cut).nonzero()[0], (dh <= cut).nonzero()[0]
    found = []  # (value, i, j) of each block's first maximum
    if len(rows):
        value, r, c = _block_max(xl[rows], gl[rows], xh, gh, mu)
        found.append((value, rows[r], c))
    if len(cols):
        value, r, c = _block_max(xl, gl, xh[cols], gh[cols], mu)
        found.append((value, r, cols[c]))
    top = max(f[0] for f in found)
    i, j = min((i, j) for value, i, j in found if value == top)
    return float(top), (float(xl[i]), float(xh[j]))


def _logistic(z: float) -> float:
    """1 / (1 + exp(z)), without overflow."""
    if z > 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(z))


def brute_force_binary(inst: MarketInstance, grid_n: int = 4000) -> OracleResult:
    """Exhaustive pair search over a uniform grid of two-type posteriors,
    then exact column generation from the best grid pair.

    Every pair (x1, x2) with x1 <= prior share <= x2 is a feasible
    two-segment candidate once the mixing weight is read off Bayes
    plausibility; ``pair_scan`` finds the grid's best (``grid_value``).
    With x the high-type share, g(x) = max(w1, w2 x) + k H(x) is the larger
    of two concave price pieces c_t + d_t x + k H(x), d_0 = 0 and d_1 = w2,
    and the seller's value is g's concave envelope at the prior share mu
    (concavification). Against a line L(x) = V + s (x - mu), piece t rises
    most at its tangent point of slope s, x_t = 1 / (1 + exp((s - d_t) / k))
    (the Gibbs maximizer, in one dimension), so gap = max_t g(x_t) - L(x_t)
    is g's exact greatest rise above L, and V + max(0, gap) bounds the
    envelope at mu from above: that is ``upper``.

    The one-atom certificate comes first: L is the tangent at mu on mu's
    price piece, of slope d + k log((1 - mu) / mu). If its gap is within
    the tolerance, no pair beats staying put and the result is no
    segmentation. There is no such tangent at k = 0, and none at
    w2 mu = w1, where mu sits on the kink.

    Otherwise a restricted master starts from the grid pair's two ends.
    Each round V is the best of staying put and the master's straddling
    pairs, scored on floats with the chord formula; s is the slope of the
    chord through the last two points priced if they straddle mu, and else
    through the best pair (the grid pair, at first); and both tangent
    points join the master (Dantzig-Wolfe column generation; Gilmore &
    Gomory 1961). The chord through the tangent points has slope
    s + (phi_1 - phi_0) / (x_1 - x_0), phi_t being piece t's tangent
    intercept: Newton's step on phi_1 - phi_0, whose root is the common
    tangent, so s converges quadratically. (The best pair's chord is the
    master's own dual, but where its value ties a better pair's to
    rounding it can stay tilted, its gap above the tolerance: that ran 2
    of 1,250 seeded draws to the round cap.) At k = 0 the pieces are
    lines, and g - L peaks at x = 0 or 1, the points priced. The rounds
    stop once gap is within the tolerance, after at most ``_CG_ROUNDS``;
    the grid is never scanned again.

    The tolerance is 32 ulp(S), S = max(w2, k, |V|, |s|). With
    u = 2**-53 and u S <= ulp(S): g(x) is off by at most u (2 w2 + 5 k),
    H's logs being within an ulp and its terms at most 1/e; L(x) by
    u (|V| + 3 |s|); their difference adds u (w2 + k + |V| + |s|); so a
    gap is off by at most 15 u S. V, a chord's value, is off by
    10.1 u max|g| (see ``pair_scan``), and L moves with it. A master at the
    envelope so reads a gap of at most 26 u S and stops, and a gap read
    within the tolerance leaves the envelope at most 47 ulp(S) above V.
    """
    if len(inst.vals) != 2:
        raise ValidationError("oracle_size", "pair oracle needs exactly 2 types")
    if grid_n < 4:
        raise ValidationError("grid_size", f"grid_n must be >= 4, got {grid_n}")
    w1, w2 = inst.vals[0], inst.vals[1]
    k = inst.k
    mu = inst.mu_star[1]

    def gfun(x: float) -> float:
        return max(w1, w2 * x) + k * binary_entropy(x)

    def price(V: float, s: float) -> tuple[float, float, tuple[float, float]]:
        # g's greatest rise above V + s (x - mu), the tolerance, and the points priced
        tops = (0.0, 1.0) if k == 0.0 else (_logistic(s / k), _logistic((s - w2) / k))
        tol = 32 * math.ulp(max(w2, k, abs(V), abs(s)))
        return max(gfun(t) - (V + s * (t - mu)) for t in tops), tol, tops

    x, tails, H = _pair_grid(grid_n)
    g = _net_value_points(np.array([w1, w2]), k, tails, H)

    prior_ent = binary_entropy(mu)
    base = gfun(mu)  # no-segmentation candidate
    best_pair_v, best_pair = pair_scan(x, g, mu)
    grid_value = max(base, best_pair_v) - k * prior_ent

    best_v, gap, pair = base, 0.0, None  # with mu at 0 or 1 (no grid pair) the prior is the only posterior
    certified = best_pair is None
    if not certified and k > 0.0 and w2 * mu != w1:
        gap, tol, _ = price(base, (w2 if w2 * mu > w1 else 0.0) + k * math.log((1.0 - mu) / mu))
        certified = gap <= tol
    if not certified:
        master = {c: gfun(c) for c in best_pair}
        a, b = best_pair
        for _ in range(_CG_ROUNDS):
            pair_v, x1, x2 = max(
                (((x2 - mu) / (x2 - x1)) * g1 + (1.0 - (x2 - mu) / (x2 - x1)) * g2, x1, x2)
                for x1, g1 in master.items() if x1 < mu for x2, g2 in master.items() if x2 > mu
            )
            best_v = max(base, pair_v)
            if not a < mu < b:
                a, b = x1, x2
            gap, tol, (a, b) = price(best_v, (master[b] - master[a]) / (b - a))
            if gap <= tol:
                break
            master.update((c, gfun(c)) for c in (a, b))
        if pair_v > base:  # the pair only counts if it beats staying put
            pair = (x1, x2)
    if pair is not None:
        x1, x2 = pair
        tau = (x2 - mu) / (x2 - x1)
        m1 = Market([1.0 - x1, x1])
        m2 = Market([1.0 - x2, x2])
        seg = Segmentation(
            inst.mu_star,
            [
                Segment(m1, tau, optimal_price(m1, inst.vals)),
                Segment(m2, 1.0 - tau, optimal_price(m2, inst.vals)),
            ],
        )
    else:
        seg = no_segmentation(inst.mu_star, inst.vals)
    h = 1.0 / grid_n
    return OracleResult(
        value=best_v - k * prior_ent,
        upper=best_v + max(0.0, gap) - k * prior_ent,
        grid_value=grid_value,
        segmentation=seg,
        grid_step=h,
        resolution_bound=_resolution_bound(h, w2, k),
        method="binary_grid",
    )


def _gibbs_rise(vals: tuple[float, ...], k: float, y: list[float], mu: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """The most any price piece rises above the plane y . p on the face that
    holds ``mu``, and the point where each piece that rises above it peaks.

    Piece t is S_t . p + k H(p), S_it being what a type-i buyer pays at
    price t. By Gibbs' variational principle it rises at most
    k log sum_i exp((S_it - y_i) / k) above the plane, at p proportional to
    exp((S_t - y) / k); at k = 0, max_i S_it - y_i, at that type's vertex.
    The sums run over the types ``mu`` holds: a Bayes-plausible posterior
    of ``mu`` holds no other type.
    """
    face = [i for i, m in enumerate(mu.tolist()) if m > 0.0]
    rise, peaks = -math.inf, []
    for t, vt in enumerate(vals):
        z = [(vt if i >= t else 0.0) - y[i] for i in face]
        top = max(z)
        if k > 0.0:  # k log sum exp(z / k), summed from the top term
            e = [math.exp((zi - top) / k) for zi in z]
            total = math.fsum(e)
            top += k * math.log(total)
            x = [ei / total for ei in e]
        else:
            x = [0.0] * len(z)
            x[z.index(top)] = 1.0
        rise = max(rise, top)
        if top > 0.0:
            peak = np.zeros(len(mu))
            peak[face] = x
            peaks.append(peak)
    return rise, peaks


def _merge_atoms(points: np.ndarray, lam: np.ndarray, vals: Valuations) -> tuple[list, np.ndarray]:
    """The atoms of ``lam`` merged by optimal price, in price order: their
    weights and posteriors. Entropy is concave, so merging never lowers the
    value."""
    groups: dict[int, tuple[float, np.ndarray]] = {}
    for a in np.nonzero(lam > 1e-12)[0]:
        pi = optimal_price(Market(points[a]), vals)
        w_old, p_old = groups.get(pi, (0.0, np.zeros(len(vals))))
        groups[pi] = (w_old + lam[a], p_old + lam[a] * points[a])
    return [groups[pi][0] for pi in sorted(groups)], np.array([groups[pi][1] / groups[pi][0] for pi in sorted(groups)])


def brute_force_small(inst: MarketInstance, grid_n: int = 100) -> OracleResult:
    """LP over a simplex grid for three-type markets, then certified column
    generation.

    Candidate posteriors are every point of a resolution-``grid_n`` simplex
    grid; the best Bayes-plausible mixture over them is a linear program
    whose basic optimum uses at most three atoms, solved by ``_grid_lp``
    from the grid cell that holds the prior. Atoms sharing an optimal price
    are merged; that mixture's value is ``grid_value``.

    The value at mu is the concave envelope of g(p) = max_t S_t . p + k H(p)
    (concavification). For any plane y . p, y . mu plus the most a price
    piece rises above the plane (``_gibbs_rise``), or plus 0, bounds it from
    above. The one-atom certificate comes first: the tangent plane at mu on
    mu's best price piece t*, y_i = S_it* - k log mu_i, passes through
    g(mu), and the pieces rise at most
    gap = max_t k log sum_i mu_i exp((S_it - S_it*) / k) above it. If gap
    is within the tolerance, the result is no segmentation, and ``upper``
    = g(mu) + gap. There is no such plane at k = 0, nor where some
    mu_i = 0.

    Otherwise a restricted master starts from the grid LP's optimal basis
    plus mu. Each round ``_grid_lp`` solves the master from its last basis,
    giving the lower bound L = g @ lam and the dual y; U, the least of the
    rounds' bounds y . mu + max(0, rise), is ``upper``; and every piece's
    peak above y joins the master (Dantzig-Wolfe column generation; Gilmore
    & Gomory 1961). The rounds stop once U - L <= 1e-11 max(1, |L|), or
    after ``_LP_ROUNDS``. That tolerance sits ten times above the master
    LP's own pricing tolerance, 1e-12 max(1, |g|_inf), below which its dual
    plane is not exact; from a stop at 1e-12 the rounds tail off. The
    master's atoms are merged as the grid's are; a single group is no
    segmentation, valued g(mu).
    """
    if len(inst.vals) != 3:
        raise ValidationError("oracle_size", "simplex oracle needs exactly 3 types")
    if grid_n < 4:
        raise ValidationError("grid_size", f"grid_n must be >= 4, got {grid_n}")
    vals, k = inst.vals, inst.k
    v, mu = np.asarray(vals.values, dtype=float), np.asarray(inst.mu_star.weights, dtype=float)

    P, tails, H = _simplex_grid(grid_n)
    lam, _, basis = _grid_lp(P, _net_value_points(v, k, tails, H), mu, _prior_cell(grid_n, mu))
    prior_ent = entropy(inst.mu_star)
    grid_weights, grid_posts = _merge_atoms(P, lam, vals)
    g = _net_value_points(v, k, *_grid_terms(np.vstack([grid_posts, mu]))).tolist()  # the merged atoms, then mu
    grid_value = math.fsum(w * gp for w, gp in zip(grid_weights, g)) - k * prior_ent
    base = g[-1]

    weights, gap = [1.0], math.inf  # one segment unless column generation finds more
    if k > 0.0 and mu.min() > 0.0:
        t = optimal_price(inst.mu_star, vals)
        y = [(v[t] if i >= t else 0.0) - k * math.log(m) for i, m in enumerate(mu.tolist())]
        gap = _gibbs_rise(vals.values, k, y, mu)[0]
        upper = base + max(0.0, gap)
    if not gap <= _LP_GAP * max(1.0, abs(base)):
        X, start, upper = np.vstack([P[basis], mu]), [0, 1, 2], math.inf
        for _ in range(_LP_ROUNDS):
            gX = _net_value_points(v, k, *_grid_terms(X))
            lam, y, start = _grid_lp(X, gX, mu, start)
            low = float(gX @ lam)
            rise, peaks = _gibbs_rise(vals.values, k, y.tolist(), mu)
            upper = min(upper, float(y @ mu) + max(0.0, rise))
            if upper - low <= _LP_GAP * max(1.0, abs(low)):
                break
            X = np.vstack([X, *peaks])
        weights, posts = _merge_atoms(X, lam, vals)
        value = math.fsum(w * gp for w, gp in zip(weights, _net_value_points(v, k, *_grid_terms(posts)).tolist()))
    if len(weights) == 1:
        seg, value = no_segmentation(inst.mu_star, vals), base
    else:
        total = math.fsum(weights)
        markets = [Market(p) for p in posts]
        seg = Segmentation(inst.mu_star, [Segment(m, w / total, optimal_price(m, vals)) for w, m in zip(weights, markets)])
    h = 1.0 / grid_n
    return OracleResult(
        value=value - k * prior_ent,
        upper=max(upper, value) - k * prior_ent,  # both bound the optimum; rounding can put U an ulp under
        grid_value=grid_value,
        segmentation=seg,
        grid_step=h,
        resolution_bound=_resolution_bound(h, float(v[-1]), k),
        method="simplex_lp",
    )


def brute_force(inst: MarketInstance, grid_n: int | None = None) -> OracleResult:
    """Dispatch to the pair oracle (2 types) or the simplex LP oracle (3 types)."""
    if len(inst.vals) == 2:
        return brute_force_binary(inst, 4000 if grid_n is None else grid_n)
    if len(inst.vals) == 3:
        return brute_force_small(inst, 100 if grid_n is None else grid_n)
    raise ValidationError("oracle_size", "oracles cover markets with 2 or 3 types only")
