"""Iterative solver for markets with any number of buyer types.

The segmentation problem can be read as designing a noisy channel from
buyer types to price recommendations: conditional on type, a buyer is
routed to a recommendation, the seller pays ``k`` times the mutual
information between type and recommendation and collects the posted-price
revenue. The value is a concave function of the recommendation marginal,
and the classic alternating-maximization scheme from rate-distortion
theory (Blahut-Arimoto) climbs it monotonically. Posteriors derived from
any marginal are exactly Bayes-plausible by construction, so convergence
only has to settle which prices survive and with what mass.

Candidate recommendations are the valuations of types the prior actually
contains: a price equal to a zero-mass type's valuation is strictly
revenue-dominated by the next supported valuation above it, so dropping
those rows and columns up front loses nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binary import solve_binary
from .market import (
    BAYES_TOL,
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    _numpy_order_sum,
    no_segmentation,
    perfect_discrimination,
    seller_payoff,
)

VERIFY_TOL = 1e-8

# A posterior entry stored as exact zero is accepted when the mass the
# likelihood-ratio invariant would imply is below this: such entries are
# artifacts of double precision (underflow, or absorption next to 1.0),
# not genuine misallocations. Genuine violations imply order-one masses.
ZERO_MASS_TOL = 1e-12
_LOG_ZERO_MASS_TOL = math.log(ZERO_MASS_TOL)


class SolverError(RuntimeError):
    """Raised when the fixed-point iteration fails to converge."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the fixed-point solver.

    ``convergence_tol`` bounds the stationarity residual |r - 1| on the
    surviving support, where r is the mass-update ratio; ``support_prune_tol``
    is the marginal mass below which a recommendation is dropped and the
    iteration restarted; ``verify_tol`` is the default tolerance for post-hoc
    optimality verification.
    """

    max_iters: int = 200_000
    convergence_tol: float = 1e-12
    support_prune_tol: float = 1e-9
    verify_tol: float = VERIFY_TOL


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


def payoff_matrix(vals: Valuations) -> np.ndarray:
    """S[i, t] = revenue extracted from a type-i buyer at price vals[t]."""
    return np.array([[seller_payoff(p, v) for p in vals.values] for v in vals.values])


def _logsumexp_rows(rows: list[list[float]]) -> list[float]:
    """log(sum(exp(row))) of each row of a nonempty rectangular table, as scipy.special.logsumexp does it.

    Each row's maxima are taken out of its sum and counted, and each step
    follows scipy 1.17's arithmetic, so certificate slacks keep the bytes
    they had when scipy computed them, without loading scipy.special. One
    np.exp call covers the whole table, and each row is summed in numpy's
    order.
    """
    tops = [max(row) for row in rows]
    counts = [float(row.count(top)) for row, top in zip(rows, tops)]
    shifted = [[(-math.inf if x == top else x) - top for x in row] for row, top in zip(rows, tops)]
    rest = [_numpy_order_sum(row) for row in np.exp(shifted).tolist()]
    log1p = np.log1p([r / m for r, m in zip(rest, counts)]).tolist()
    return [a + b + top for a, b, top in zip(log1p, np.log(counts).tolist(), tops)]


def verify_optimality(
    seg: Segmentation, vals: Valuations, k: float, tol: float = VERIFY_TOL
) -> OptimalityReport:
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

    Arithmetic: numpy is called only for log, exp and log1p, whose SIMD
    code differs from the math module's in the last bit on a few percent of
    inputs; each is called once over all its entries (the posterior matrix,
    then the K price slacks). Sums keep np.sum's order, left to right below
    8 terms and pairwise from 8 on, where they stay np.sum calls. Products,
    quotients, differences, max, min and comparisons are correctly rounded
    either way and run on Python floats, so the report has the bytes the
    all-numpy certificate gave it.
    """
    if k < 0.0:
        raise ValidationError("cost_scale", f"k must be >= 0, got {k}")
    failures: list[str] = []
    bayes = seg.bayes_residual
    if bayes > BAYES_TOL:
        failures.append("bayes_plausibility")

    if k == 0.0:
        for j, s in enumerate(seg.segments):
            w = s.market.weights
            if max(w) < 1.0 - 1e-12 or w[s.price_index] < 1.0 - 1e-12:
                failures.append(f"discrimination_limit_segment_{j}")
        return OptimalityReport(
            ilr_residual=0.0,
            slack_excess=0.0,
            bayes_residual=bayes,
            passed=not failures,
            failures=tuple(failures),
        )

    K = len(vals)
    if len(seg.prior) != K:
        raise ValidationError("instance_shape", f"{len(seg.prior)} types in the segmentation against {K} valuations")
    S = payoff_matrix(vals).tolist()
    posts = [s.market.weights for s in seg.segments]
    price_idx = seg.price_indices()
    # zero entries are logged as 1.0 and masked to -inf below
    logs = np.log([[x if x > 0.0 else 1.0 for x in post] for post in posts]).tolist()

    ilr = 0.0
    base_log = []  # (type, invariant value on log scale) of each served type
    for i, (mass, S_i, post_i, log_i) in enumerate(zip(seg.prior.weights, S, zip(*posts), zip(*logs))):
        if mass <= 0.0:
            continue
        row = [lp - S_i[p] / k if x > 0.0 else -math.inf for x, lp, p in zip(post_i, log_i, price_idx)]
        finite = [x for x in row if math.isfinite(x)]
        if not finite:
            failures.append(f"type_{i}_unserved")
            continue
        lmax = max(finite)
        lmin = min(finite)
        ilr = max(ilr, -math.expm1(lmin - lmax))
        base_log.append((i, lmax))
        for j, x in enumerate(row):
            # a zero entry is fine only if the invariant would put its mass
            # below what doubles can represent next to the other entries
            if not math.isfinite(x) and lmax + S_i[price_idx[j]] / k >= _LOG_ZERO_MASS_TOL:
                failures.append(f"zero_mass_type_{i}_segment_{j}")
    if ilr > tol:
        failures.append("likelihood_ratio_invariance")

    if base_log:
        slack_logs = _logsumexp_rows([[b + S[i][t] / k for i, b in base_log] for t in range(K)])
        price_slacks = [math.expm1(min(x, 700.0)) for x in slack_logs]
    else:
        price_slacks = [-1.0] * K
    slack_excess = max(price_slacks)
    if slack_excess > tol:
        failures.append("price_slack")

    return OptimalityReport(
        ilr_residual=ilr,
        slack_excess=slack_excess,
        bayes_residual=bayes,
        passed=not failures,
        failures=tuple(failures),
        price_slacks=tuple(price_slacks),
    )


def solve_ri(inst: MarketInstance, options: SolveOptions | None = None) -> Segmentation:
    """Solve the segmentation problem by alternating maximization.

    The no-segmentation candidate is accepted outright when it already
    passes the optimality certificate (sufficient by concavity; this covers
    every instance whose cost scale exceeds its segmentation threshold).
    Otherwise the mass-update map runs on the supported price ladder,
    pruning recommendations whose mass decays below ``support_prune_tol``
    and reconverging until the surviving support is stationary.

    Raises :class:`SolverError` when the iteration budget runs out.
    """
    opts = options or SolveOptions()
    if inst.k == 0.0:
        return perfect_discrimination(inst.mu_star, inst.vals)
    cand = no_segmentation(inst.mu_star, inst.vals)
    if verify_optimality(cand, inst.vals, inst.k, opts.verify_tol).passed:
        return cand

    mu_full = inst.mu_star.as_array()
    support = np.nonzero(mu_full > 0.0)[0]
    mu = mu_full[support]
    v = inst.vals.as_array()[support]
    n = len(support)
    S = payoff_matrix(inst.vals)[np.ix_(support, support)]
    k = inst.k
    zt = np.exp((S - v[:, None]) / k)  # rows scaled so diagonals are 1; entries in (0, 1]

    def objective(q: np.ndarray) -> float:
        # concave potential the update ascends; its max is the net payoff
        return float(mu @ v + k * (mu @ np.log(zt @ q)))

    actions = support.copy()
    q = np.full(n, 1.0 / n)
    total_iters = 0
    while True:  # each pass converges on the current support or prunes it
        converged = False
        f_prev = -math.inf
        resid = math.inf
        while total_iters < opts.max_iters:
            Z = zt @ q
            r = zt.T @ (mu / Z)
            live = q >= opts.support_prune_tol
            resid = max(float(np.max(r)) - 1.0, float(np.max(np.abs(r[live] - 1.0))))
            if resid <= opts.convergence_tol:
                converged = True
                break
            q = q * r
            total_iters += 1
            if total_iters % 50 == 0:
                q = q / q.sum()
                f = objective(q)
                if f < f_prev - 1e-9 * max(1.0, abs(f)):
                    raise SolverError(f"objective decreased from {f_prev!r} to {f!r}")
                f_prev = f
        if converged:
            keep = q >= opts.support_prune_tol
            if keep.all():
                break
        else:
            # residual pinned by a slowly dying recommendation: drop clearly
            # decaying mass and give the loop another chance
            Z = zt @ q
            r = zt.T @ (mu / Z)
            keep = ~((q < 1e-5) & (r < 1.0 - 1e-9))
            if keep.all():
                raise SolverError(
                    f"no convergence after {total_iters} iterations (residual {resid:.3e})"
                )
        q = q[keep]
        q = q / q.sum()
        zt = zt[:, keep]
        actions = actions[keep]

    if len(actions) == 1:
        return no_segmentation(inst.mu_star, inst.vals)
    # assemble: posteriors renormalized per recommendation, weights carry the
    # residual column mass so Bayes plausibility holds to float accuracy
    Z = zt @ q
    cols = (mu[:, None] * zt) / Z[:, None]
    sums = cols.sum(axis=0)
    weights = q * sums
    weights = weights / math.fsum(weights)
    segments = []
    for a in range(len(actions)):
        post = np.zeros(len(mu_full))
        post[support] = cols[:, a] / sums[a]
        segments.append(Segment(Market(post), float(weights[a]), int(actions[a])))
    return Segmentation(inst.mu_star, segments)


def solve(inst: MarketInstance, options: SolveOptions | None = None) -> Segmentation:
    """Best segmentation of an instance: closed form for two types, iteration otherwise."""
    if len(inst.vals) == 2:
        return solve_binary(inst)
    return solve_ri(inst, options)
