"""Closed-form solver for markets with any number of buyer types, and its optimality certificate.

With ``zt[i, t] = exp((S[i, t] - v_i) / k)``, where ``S[i, t]`` is the
revenue from type i at price t, and price masses ``q >= 0``, the seller's
net value is affine in the concave ``gain(q) = sum_i mu_i log (zt q)_i -
sum(q)``, whose maximizer sums to one: the log-optimal portfolio problem,
with the optimality conditions of Caplin, Dean & Leahy (2022). Posteriors
derived from any ``q`` are Bayes-plausible by construction. Candidate
prices are the valuations of types the prior contains: a zero-mass type's
valuation is strictly revenue-dominated by the next supported one above.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .binary import solve_binary
from .market import (
    BAYES_TOL,
    EXP_OVERFLOW,
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    SolverError,  # re-exported: callers catch it as ``segmentix.solver.SolverError``
    ValidationError,
    Valuations,
    no_segmentation,
    perfect_discrimination,
)

VERIFY_TOL = 1e-8

# A posterior entry stored as exact zero is accepted when the mass the
# likelihood-ratio invariant would imply is below this: such entries are
# artifacts of double precision (underflow, or absorption next to 1.0),
# not genuine misallocations. Genuine violations imply order-one masses.
ZERO_MASS_TOL = 1e-12
_LOG_ZERO_MASS_TOL = math.log(ZERO_MASS_TOL)
_TINY = sys.float_info.min
_LN2 = math.log(2.0)


class OptimalityReport(NamedTuple):
    """Outcome of checking a segmentation against the optimality certificate.

    ``ilr_residual`` is the worst relative spread of the likelihood-ratio
    invariant across a type's segments. ``price_slacks`` has one entry per
    candidate price: about zero at chosen prices, negative where an
    unchosen price has strict slack, positive where a profitable price was
    missed. ``slack_excess`` is their maximum. ``failures`` names every
    condition that failed outright.
    """

    ilr_residual: float
    slack_excess: float
    bayes_residual: float
    passed: bool
    failures: tuple[str, ...]
    price_slacks: tuple[float, ...] = ()


def verify_optimality(seg: Segmentation, vals: Valuations, k: float, tol: float = VERIFY_TOL) -> OptimalityReport:
    """Check a segmentation against the first-order optimality certificate.

    For k > 0 the certificate is: (a) within each type, posterior mass
    deflated by exp(payoff/k) is the same in every segment (invariant
    likelihood ratios); (b) for every candidate price, the deflated masses
    reinflated at that price sum to at most one (no profitable segment was
    left on the table); (c) Bayes plausibility. The conditions are
    sufficient as well as necessary because the underlying program is
    concave.

    For k = 0 the optimum is full discrimination, so every segment must be
    a point mass charged exactly its own valuation.

    ``k`` must be finite and >= 0, ``tol`` must be >= 0 (a NaN one would
    pass every check), and the segmentation must have one type per
    valuation; each failure raises its ``ValidationError``.

    Arithmetic: every term is a payoff difference. For a served type i, j*
    is the segment where its invariant ``log post[i][j] - S[i][p_j]/k``
    peaks, found by comparing differences, and ``log post[i][j*] +
    (S[i][t] - S[i][p_j*])/k`` is the log mass the invariant at j* implies
    for type i at price t. The spread compares each positive posterior
    entry with the term at its segment's price, the zero-mass test reads
    the term at a zero entry's segment's price, and price t's slack is the
    log-sum-exp of the served types' terms at t, as in
    ``segmentation_threshold``. In the absolute form ``log post - S/k``,
    terms of size v/k cancel, so its rounding grows with v/k. Here a term
    that matters is near a log posterior (|log post| < 746) and one far
    below it adds nothing, so the error scales with |log post| and not with
    v/k. All of it runs on Python floats with the math module.
    """
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError("cost_scale", f"k must be finite and >= 0, got {k}")
    if not tol >= 0.0:
        raise ValidationError("tolerance", f"tol must be >= 0, got {tol}")
    K = len(vals.values)
    n = len(seg.prior.weights)
    if n != K:
        raise ValidationError("instance_shape", f"{n} types in the segmentation against {K} valuations")
    failures: list[str] = []
    bayes = seg.bayes_residual
    if bayes > BAYES_TOL:
        failures.append("bayes_plausibility")
    if k == 0.0:
        for j, c in enumerate(seg.segments):
            w = c.market.weights
            if max(w) < 1.0 - 1e-12 or w[c.price_index] < 1.0 - 1e-12:
                failures.append(f"discrimination_limit_segment_{j}")
        return OptimalityReport(0.0, 0.0, bayes, not failures, tuple(failures))
    columns = list(zip(*[c.market.weights for c in seg.segments]))  # per type, its posterior in each segment
    price_idx = [c.price_index for c in seg.segments]
    values = vals.values
    zeros = (0.0,) * K
    ilr = 0.0
    terms = []  # each served type's K terms
    for i, mass in enumerate(seg.prior.weights):
        if mass <= 0.0:
            continue
        S_i = values[: i + 1] + zeros[i + 1 :]  # revenue from type i at each price
        col = columns[i]
        held = [(math.log(x), p) for x, p in zip(col, price_idx) if x > 0.0]
        if not held:
            failures.append(f"type_{i}_unserved")
            continue
        # j* by differences: a segment beats the peak so far when its log
        # posterior exceeds what the peak's invariant implies at its price
        top, top_pay = held[0][0], S_i[held[0][1]]
        for lp, p in held:
            if lp > top + (S_i[p] - top_pay) / k:
                top, top_pay = lp, S_i[p]
        term = [top + (pay - top_pay) / k for pay in S_i]
        ilr = max(ilr, -math.expm1(min([lp - term[p] for lp, p in held])))
        if len(held) < len(col):
            for j, (x, p) in enumerate(zip(col, price_idx)):
                # a zero entry is fine only if the invariant would put its mass
                # below what doubles can represent next to the other entries
                if x == 0.0 and term[p] >= _LOG_ZERO_MASS_TOL:
                    failures.append(f"zero_mass_type_{i}_segment_{j}")
        terms.append(term)
    if ilr > tol:
        failures.append("likelihood_ratio_invariance")
    slacks = []
    for at_t in zip(*terms):
        # log-sum-exp with the largest term taken out, so no exp overflows
        top = max(at_t)
        if not math.isinf(top):
            top += math.log(math.fsum([math.exp(v - top) for v in at_t]))
        slacks.append(math.expm1(min(top, EXP_OVERFLOW)))
    price_slacks = tuple(slacks) if terms else (-1.0,) * K
    slack_excess = max(price_slacks)
    if slack_excess > tol:
        failures.append("price_slack")
    return OptimalityReport(ilr, slack_excess, bayes, not failures, tuple(failures), price_slacks)


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x >= 0, and -inf at 0, switching forms at ln 2 as Mächler (2012) advises."""
    if x > _LN2:
        return math.log1p(-math.exp(-x))
    return math.log(-math.expm1(-x)) if x > 0.0 else -math.inf


def solve_ri(inst: MarketInstance) -> Segmentation:
    """The optimal segmentation in closed form: the priced types are the vertices of an upper concave hull.

    Take the types the prior holds in ascending order, with masses μ_i and
    x_i = v_i/k, as points (τ_i, G_i): τ_i = 1/(e^{x_i} - 1), and G_i =
    Σ_{j≥i} μ_j buys at price v_i. a₁ maximizes G_i (1 - e^{-x_i}): the
    tangent from (-1, 0) touches the points there. The priced set A = {a₁ <
    … < a_m} is the vertices, other than O = (0, 0), of the upper concave
    hull of O and the points i ≥ a₁ (collinear points dropped, ties to the
    larger index); m = 1 keeps the prior whole. Band b is the types in
    [a_b, a_{b+1}), of mass M_b, and band 0 those below a₁. With
    τ_{a_{m+1}} = 0, C = G_{a₁}(1 - e^{-x_{a₁}}), D₀ = 1 and D_b = M_b /
    (C (τ_{a_b} - τ_{a_{b+1}})), segment j charges v_{a_j}, has mass q_j =
    (D_j - D_{j-1}) τ_{a_j}, and a posterior proportional to μ_i
    e^{x_{a_j}} / D_b for types i ≥ a_j and to μ_i / D_b below, b being
    i's band.

    Why it holds: on A, type i's row of ``zt`` is its band's row times
    e^{-x_i}, so stationarity (r_t = Σ_i μ_i zt[i, t] / (zt q)_i is 1 where
    q_t > 0) reduces to m scalar equations, which these formulas solve. q ≥
    0 because the hull is concave. No price outside A has r_t > 1, because
    every point (τ_t, G_t) lies on or under the hull or, for t < a₁, under
    the tangent.

    Arithmetic: Python floats, in logs. Hull tests compare log slopes
    through payoff differences (v_j - v_i)/k and log(1 - e^{-x}) (Mächler
    2012), never e^{x}, so any v/k that doubles hold is solved; a₁ is the
    lowest vertex whose edge above is steeper than the tangent, in the same
    arithmetic. An edge's mass is a sum of masses, never a difference of
    tails. Weights are q_j s_j over their ``fsum``, s_j being column j's
    sum. A type whose v/k underflows to 0 is never priced. Nothing raises
    :class:`SolverError`.
    """
    if inst.k == 0.0:
        return perfect_discrimination(inst.mu_star, inst.vals)
    k = inst.k
    support = [i for i, m in enumerate(inst.mu_star.weights) if m > 0.0]
    mu = [inst.mu_star[i] for i in support]
    n = len(support)
    v = [*(inst.vals[i] for i in support), math.inf]  # O is type n, valued above all
    x = [vi / k for vi in v]
    lx = [_log1mexp(xi) for xi in x]

    def log_g(i: int) -> float:
        # log G_i from the smaller side, so that neither G_i nor 1 - G_i loses digits
        below = math.fsum(mu[:i])
        return math.log1p(-below) if below <= 0.5 else math.log(math.fsum(mu[i:]))

    def edge(w: int, u: int, mass: float) -> float:
        # h: the log slope of the edge from vertex w down to u, less x_u + log(1 - e^{-x_u})
        return math.log(mass) - _log1mexp((v[w] - v[u]) / k) + lx[w]

    def rise(h_above: float, w: int, h_below: float, u: int) -> float:
        # log(slope of the edge above vertex w / slope of the edge from w down to u)
        return (h_above + lx[w] + (v[w] - v[u]) / k) - (h_below + lx[u])

    hull = [(n, 0.0, 0.0)]  # from O down: each vertex, with the mass and h of the edge above it
    for u in range(n - 1, -1, -1):
        if x[u] == 0.0:
            break  # v/k underflows from here down
        mass = mu[u]
        h = edge(hull[-1][0], u, mass)
        while len(hull) > 1 and not rise(hull[-1][2], hull[-1][0], h, u) > 0.0:
            mass += hull.pop()[1]
            h = edge(hull[-1][0], u, mass)
        hull.append((u, mass, h))
    while len(hull) > 2 and not hull[-1][2] + x[hull[-1][0]] - log_g(hull[-1][0]) > 0.0:
        hull.pop()  # D₁ <= 1: the tangent from (-1, 0) touches the hull above the lowest vertex
    if len(hull) <= 2:
        return no_segmentation(inst.mu_star, inst.vals)

    priced = hull[:0:-1]  # (a_j, M_j, h_j) for j = 1..m
    a1 = priced[0][0]
    log_c = log_g(a1) + lx[a1]
    log_rise = [priced[0][2] + x[a1] - log_g(a1)]  # log(D_j / D_{j-1})
    log_rise += [rise(h, a, h_prev, a_prev) for (a_prev, _, h_prev), (a, _, h) in zip(priced, priced[1:])]
    q = [math.exp(h - log_c + _log1mexp(r)) for (_, _, h), r in zip(priced, log_rise)]
    cols = [[mu[i]] * len(priced) for i in range(a1)]  # band 0: D₀ = 1
    for b, (a, _, h) in enumerate(priced):
        for i in range(a, priced[b + 1][0] if b + 1 < len(priced) else n):
            base = math.log(mu[i]) - (h + lx[a]) + log_c  # log(μ_i e^{x_a} / D_b)
            cols.append([math.exp(base - ((v[a] - v[aj]) / k if j <= b else x[a]))
                         for j, (aj, _, _) in enumerate(priced)])
    sums = [math.fsum(col) for col in zip(*cols)]
    weights = [qj * sj for qj, sj in zip(q, sums)]
    total = math.fsum(weights)
    posts = [[0.0] * len(inst.mu_star) for _ in priced]
    for i, row in zip(support, cols):
        for post, c, s in zip(posts, row, sums):
            post[i] = c / s if c / s >= _TINY else 0.0  # subnormals are too coarse for the likelihood-ratio check
    segments = [Segment(Market(p), w / total, support[a]) for p, w, (a, _, _) in zip(posts, weights, priced)]
    return Segmentation(inst.mu_star, segments)


def solve(inst: MarketInstance) -> Segmentation:
    """Best segmentation of an instance: ``solve_binary`` for two types, ``solve_ri`` otherwise."""
    if len(inst.vals.values) == 2:
        return solve_binary(inst)
    return solve_ri(inst)
