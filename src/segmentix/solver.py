"""Iterative solver for markets with any number of buyer types.

With ``Z = exp((S - v) / k)`` (rows are buyer types, columns prices) and price
masses ``q >= 0``, the seller's net value is affine in the concave ``gain(q) =
sum_i mu_i log (Z q)_i - sum(q)``, whose maximizer sums to one: the log-optimal
portfolio problem, with the optimality conditions of Caplin, Dean & Leahy
(2022). Posteriors derived from any ``q`` are Bayes-plausible by construction.
Candidate prices are the valuations of types the prior contains: a zero-mass
type's valuation is strictly revenue-dominated by the next supported one above.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .binary import solve_binary
from .market import (
    BAYES_TOL,
    EXP_OVERFLOW,
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    SolverError,
    ValidationError,
    Valuations,
    no_segmentation,
    perfect_discrimination,
    seller_payoff,
)

if TYPE_CHECKING:
    import numpy as np

VERIFY_TOL = 1e-8

# A posterior entry stored as exact zero is accepted when the mass the
# likelihood-ratio invariant would imply is below this: such entries are
# artifacts of double precision (underflow, or absorption next to 1.0),
# not genuine misallocations. Genuine violations imply order-one masses.
ZERO_MASS_TOL = 1e-12
_LOG_ZERO_MASS_TOL = math.log(ZERO_MASS_TOL)
_TINY = sys.float_info.min


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the iterative solver.

    ``max_iters`` caps the passes of ``solve_ri``'s loop. ``convergence_tol``
    bounds the stationarity residual: |r - 1| at prices with mass and r - 1
    at the others, where r - 1 is the gradient of the concave gain.
    """

    max_iters: int = 200_000
    convergence_tol: float = 1e-12


@dataclass(frozen=True)
class OptimalityReport:
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


def _payoffs(vals: Valuations) -> list[list[float]]:
    """S[i][t] = revenue extracted from a type-i buyer at price vals[t]."""
    return [[seller_payoff(p, v) for p in vals.values] for v in vals.values]


def payoff_matrix(vals: Valuations) -> np.ndarray:
    """S[i, t] = revenue extracted from a type-i buyer at price vals[t]."""
    import numpy as np

    return np.array(_payoffs(vals))


def _log_sum_exp(x: list[float]) -> float:
    """log(sum(exp(x))) with the largest term taken out, so no exp overflows."""
    top = max(x)
    if math.isinf(top):
        return top
    return top + math.log(math.fsum([math.exp(v - top) for v in x]))


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

    ``k`` must be finite and >= 0, and the segmentation must have one type
    per valuation; either failure raises its ``ValidationError``.

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
    K = len(vals)
    if len(seg.prior) != K:
        raise ValidationError("instance_shape", f"{len(seg.prior)} types in the segmentation against {K} valuations")
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
    posts = [c.market.weights for c in seg.segments]
    price_idx = seg.price_indices()
    ilr = 0.0
    terms = []  # each served type's K terms
    for i, (mass, S_i) in enumerate(zip(seg.prior.weights, _payoffs(vals))):
        if mass <= 0.0:
            continue
        held = [(math.log(w[i]), p) for w, p in zip(posts, price_idx) if w[i] > 0.0]
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
        ilr = max(ilr, -math.expm1(min(lp - term[p] for lp, p in held)))
        for j, (w, p) in enumerate(zip(posts, price_idx)):
            # a zero entry is fine only if the invariant would put its mass
            # below what doubles can represent next to the other entries
            if w[i] == 0.0 and term[p] >= _LOG_ZERO_MASS_TOL:
                failures.append(f"zero_mass_type_{i}_segment_{j}")
        terms.append(term)
    if ilr > tol:
        failures.append("likelihood_ratio_invariance")
    if terms:
        price_slacks = tuple([math.expm1(min(_log_sum_exp(col), EXP_OVERFLOW)) for col in zip(*terms)])
    else:
        price_slacks = (-1.0,) * K
    slack_excess = max(price_slacks)
    if slack_excess > tol:
        failures.append("price_slack")
    return OptimalityReport(ilr, slack_excess, bayes, not failures, tuple(failures), price_slacks)


def solve_ri(inst: MarketInstance, options: SolveOptions | None = None) -> Segmentation:
    """Solve the segmentation problem by ascent on the price masses.

    No segmentation, then perfect discrimination, is accepted outright when
    it passes the optimality certificate (sufficient by concavity): above
    the segmentation threshold, at k = 0 and where ``Z`` is the identity to
    double precision. Otherwise each pass takes a multiplicative step and a
    Newton step on the prices with mass, where a price the Newton step
    exhausts leaves; or, when the largest violation of stationarity is a
    price without mass (as once the rest are stationary), that price enters.
    Raises :class:`SolverError`, naming the last residual and the prices
    with mass, when the iteration budget runs out.
    """
    opts = options or SolveOptions()
    for cand in (no_segmentation(inst.mu_star, inst.vals), perfect_discrimination(inst.mu_star, inst.vals)):
        if verify_optimality(cand, inst.vals, inst.k).passed:
            return cand

    import numpy as np  # only the iteration computes on arrays

    mu_full = inst.mu_star.as_array()
    support = np.nonzero(mu_full > 0.0)[0]
    mu = mu_full[support]
    S = payoff_matrix(inst.vals)[np.ix_(support, support)]
    zt = np.exp((S - inst.vals.as_array()[support, None]) / inst.k)  # rows scaled so diagonals are 1

    def gain(q: np.ndarray) -> float:
        Z = zt @ q
        return float(mu @ np.log(Z) - q.sum()) if Z.min() >= _TINY else -math.inf

    def newton(q: np.ndarray) -> np.ndarray:
        # Newton step on the prices with mass, cut where it exhausts one of
        # them and halved until gain falls by no more than rounding
        act = np.flatnonzero(q)
        Z, za, qa = zt @ q, zt[:, act], q[act]
        root = za * (np.sqrt(mu) / Z)[:, None]  # minus the Hessian is root.T @ root
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                R = np.linalg.qr(root, mode="r")
                d = np.linalg.solve(R, np.linalg.solve(R.T, za.T @ (mu / Z) - 1.0))
        except np.linalg.LinAlgError:
            return q
        if not np.isfinite(d).all():
            return q
        floor = gain(q) - 4.0 * np.spacing(mu @ np.abs(np.log(Z)) + q.sum())
        ratios = np.divide(qa, -d, out=np.ones_like(qa), where=qa + d < 0.0)
        j = int(np.argmin(ratios))
        t = float(ratios[j])
        for _ in range(60):
            trial = q.copy()
            trial[act] = np.maximum(qa + t * d, 0.0)
            if t == ratios[j] < 1.0:
                trial[act[j]] = 0.0  # the step exhausts this price: it leaves if gain stays finite
            if gain(trial) >= floor:
                return trial
            t *= 0.5
        return q

    q = np.full(len(support), 1.0 / len(support))
    for iters in range(opts.max_iters + 1):
        Z = zt @ q
        r = zt.T @ (mu / Z)  # r - 1 is the gradient of gain
        stationary = float(np.max(np.abs(r[q > 0.0] - 1.0)))
        resid = max(stationary, float(np.max(r)) - 1.0)
        if resid <= opts.convergence_tol:
            break
        if iters == opts.max_iters:
            prices = [inst.vals[i] for i in support[q > 0.0]]
            raise SolverError(f"no convergence after {iters} iterations (residual {resid:.3e}, active prices {prices})")
        if resid > stationary:
            # a price without mass enters by a 1-D Newton step, which cannot overshoot
            # on this ray, where the gradient is convex; w / top keeps w**2 finite
            a = int(np.argmax(r))
            w = zt[:, a] / Z
            top = w.max()
            q[a] = (r[a] - 1.0) / top / (mu @ (w / top) ** 2) / top
        else:
            q = newton(q * r if gain(q * r) > -math.inf else q)  # the multiplicative step, unless Z underflows

    keep = q > 0.0
    actions, zt, q = support[keep], zt[:, keep], q[keep]
    if len(actions) == 1:
        return no_segmentation(inst.mu_star, inst.vals)
    # assemble: posteriors renormalized per recommendation, weights carry the
    # residual column mass so Bayes plausibility holds to float accuracy
    cols = zt * (mu / (zt @ q))[:, None]  # mu / Z first: mu * zt can underflow
    sums = cols.sum(axis=0)
    weights = q * sums / math.fsum(q * sums)
    posts = np.zeros((len(mu_full), len(actions)))
    posts[support] = cols / sums
    posts[posts < _TINY] = 0.0  # subnormals are too coarse for the likelihood-ratio check
    segments = [Segment(Market(p), float(w), int(a)) for p, w, a in zip(posts.T, weights, actions)]
    return Segmentation(inst.mu_star, segments)


def solve(inst: MarketInstance, options: SolveOptions | None = None) -> Segmentation:
    """Best segmentation of an instance: closed form for two types, iteration otherwise."""
    if len(inst.vals) == 2:
        return solve_binary(inst)
    return solve_ri(inst, options)
