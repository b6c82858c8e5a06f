"""Brute-force oracles for validating the solvers.

Deliberately independent implementations: plain grid search (two types) and
a linear program over a simplex grid (three types), each followed by a
derivative-free local polish. Nothing here shares likelihood-ratio
machinery with the solvers; tests sandwich solver values between oracle
values to catch agreement-by-shared-bug.

scipy is imported inside the functions that call it, so that importing the
package (and starting every CLI process) does not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .market import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    entropy,
    no_segmentation,
    optimal_price,
)

_CHUNK = 256


@dataclass(frozen=True)
class OracleResult:
    """Best value found by exhaustive search plus local refinement.

    ``value`` and ``grid_value`` are net objectives (revenue minus
    information cost); ``grid_value`` is before the polish step.
    ``resolution_bound`` is a crude overestimate of how much value the grid
    alone can miss; the polished value is normally far closer than that.
    """

    value: float
    grid_value: float
    segmentation: Segmentation
    grid_step: float
    resolution_bound: float
    method: str


def _entropy_vec(P: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(P > 0.0, np.log(np.where(P > 0.0, P, 1.0)), 0.0)
    return -(P * logs).sum(axis=-1)


def _net_value_points(vals_arr: np.ndarray, k: float, P: np.ndarray) -> np.ndarray:
    """Best revenue plus entropy credit at each row-posterior of P."""
    tails = np.cumsum(P[:, ::-1], axis=1)[:, ::-1]
    best = (tails * vals_arr[None, :]).max(axis=1)
    return best + k * _entropy_vec(P)


def _resolution_bound(h: float, top_value: float, k: float) -> float:
    # worst-case value drop from moving posteriors one grid cell: revenue
    # slope at most the top valuation, entropy slope at most |log h| once
    # points are a cell away from the boundary
    return 2.0 * h * (top_value + k * max(1.0, -math.log(h)))


def brute_force_binary(inst: MarketInstance, grid_n: int = 4000) -> OracleResult:
    """Exhaustive pair search over a uniform grid of two-type posteriors.

    Every pair (x1, x2) with x1 <= prior share <= x2 is a feasible
    two-segment candidate once the mixing weight is read off Bayes
    plausibility; the search scores all of them against the no-segmentation
    fallback, then polishes the winner with Nelder-Mead.
    """
    if len(inst.vals) != 2:
        raise ValidationError("oracle_size", "pair oracle needs exactly 2 types")
    if grid_n < 4:
        raise ValidationError("grid_size", f"grid_n must be >= 4, got {grid_n}")
    w1, w2 = inst.vals[0], inst.vals[1]
    k = inst.k
    mu = inst.mu_star[1]

    def gfun(x: float) -> float:
        ent = 0.0 if x <= 0.0 or x >= 1.0 else -(x * math.log(x) + (1.0 - x) * math.log1p(-x))
        return max(w1, w2 * x) + k * ent

    x = np.linspace(0.0, 1.0, grid_n + 1)
    g = _net_value_points(np.array([w1, w2]), k, np.column_stack([1.0 - x, x]))

    prior_ent = 0.0 if mu <= 0.0 or mu >= 1.0 else -(mu * math.log(mu) + (1.0 - mu) * math.log1p(-mu))
    base = gfun(mu)  # no-segmentation candidate
    best_v = base
    best_pair: tuple[float, float] | None = None
    lo_mask = x < mu
    hi_mask = x > mu
    xl, gl = x[lo_mask], g[lo_mask]
    xh, gh = x[hi_mask], g[hi_mask]
    best_pair_v = -math.inf
    for start in range(0, len(xl), _CHUNK):
        xb = xl[start : start + _CHUNK, None]
        gb = gl[start : start + _CHUNK, None]
        tau = (xh[None, :] - mu) / (xh[None, :] - xb)
        V = tau * gb + (1.0 - tau) * gh[None, :]
        i, j = np.unravel_index(int(np.argmax(V)), V.shape)
        if V[i, j] > best_pair_v:
            best_pair_v = float(V[i, j])
            best_pair = (float(xb[i, 0]), float(xh[j]))
    if best_pair is not None and best_pair_v > best_v:
        best_v = best_pair_v
    grid_value = best_v - k * prior_ent

    if best_pair is not None:
        from scipy.optimize import minimize

        def neg(p: np.ndarray) -> float:
            x1, x2 = float(p[0]), float(p[1])
            if not (0.0 <= x1 <= mu <= x2 <= 1.0) or x2 - x1 < 1e-12:
                return 1e9
            tau = (x2 - mu) / (x2 - x1)
            return -(tau * gfun(x1) + (1.0 - tau) * gfun(x2))

        res = minimize(
            neg,
            np.array(best_pair),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 4000},
        )
        if res.fun < -best_v:
            best_v = -float(res.fun)
            best_pair = (float(res.x[0]), float(res.x[1]))
    # the pair only counts if it beats staying put
    use_pair = best_pair is not None and best_v > base
    if use_pair:
        x1, x2 = best_pair
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
        best_v = base
    h = 1.0 / grid_n
    return OracleResult(
        value=best_v - k * prior_ent,
        grid_value=grid_value,
        segmentation=seg,
        grid_step=h,
        resolution_bound=_resolution_bound(h, w2, k),
        method="binary_grid",
    )


def _simplex_grid(m: int) -> np.ndarray:
    pts = []
    for i in range(m + 1):
        for j in range(m + 1 - i):
            pts.append((i, j, m - i - j))
    return np.asarray(pts, dtype=float) / m


def brute_force_small(inst: MarketInstance, grid_n: int = 100) -> OracleResult:
    """LP-over-grid oracle for three-type markets.

    Candidate posteriors are every point of a resolution-``grid_n`` simplex
    grid; the best Bayes-plausible mixture over them is a linear program
    whose basic optimum uses at most three atoms. Atoms sharing an optimal
    price are merged (entropy is concave, so merging never hurts) and the
    result is polished with Nelder-Mead in a parameterization that keeps
    Bayes plausibility exact.
    """
    if len(inst.vals) != 3:
        raise ValidationError("oracle_size", "simplex oracle needs exactly 3 types")
    if grid_n < 4:
        raise ValidationError("grid_size", f"grid_n must be >= 4, got {grid_n}")
    v = inst.vals.as_array()
    k = inst.k
    mu = inst.mu_star.as_array()

    from scipy.optimize import linprog

    P = _simplex_grid(grid_n)
    g = _net_value_points(v, k, P)
    res = linprog(-g, A_eq=P.T, b_eq=mu, bounds=(0.0, None), method="highs-ds")
    if not res.success:
        raise ValidationError("oracle_lp", f"grid LP failed: {res.message}")
    lam = res.x
    atoms = np.nonzero(lam > 1e-12)[0]

    def gval(p: np.ndarray) -> float:
        tails = np.cumsum(p[::-1])[::-1]
        return float(np.max(tails * v)) + k * float(_entropy_vec(p))

    # merge atoms that share an optimal price
    groups: dict[int, tuple[float, np.ndarray]] = {}
    for a in atoms:
        m = Market(P[a])
        pi = optimal_price(m, inst.vals)
        w_old, p_old = groups.get(pi, (0.0, np.zeros(3)))
        groups[pi] = (w_old + lam[a], p_old + lam[a] * P[a])
    posts = []
    weights = []
    for pi in sorted(groups):
        w, acc = groups[pi]
        posts.append(acc / w)
        weights.append(w)
    value = math.fsum(w * gval(p) for w, p in zip(weights, posts))
    grid_value = value - k * entropy(inst.mu_star)

    refined = _refine_small(np.array(posts), np.array(weights), mu, gval)
    if refined is not None and refined[0] > value:
        value, posts, weights = refined

    base = gval(mu)
    if base >= value:
        seg = no_segmentation(inst.mu_star, inst.vals)
        value = base
    else:
        segments = []
        for w, p in zip(weights, posts):
            if w <= 1e-12:
                continue
            p = np.clip(np.asarray(p, dtype=float), 0.0, None)
            m = Market(p / p.sum())
            segments.append(Segment(m, float(w), optimal_price(m, inst.vals)))
        if len(segments) == 1:
            seg = no_segmentation(inst.mu_star, inst.vals)
        else:
            total = math.fsum(s.weight for s in segments)
            segments = [Segment(s.market, s.weight / total, s.price_index) for s in segments]
            seg = Segmentation(inst.mu_star, segments)
    h = 1.0 / grid_n
    return OracleResult(
        value=value - k * entropy(inst.mu_star),
        grid_value=grid_value,
        segmentation=seg,
        grid_step=h,
        resolution_bound=_resolution_bound(h, float(v[-1]), k),
        method="simplex_lp",
    )


def _refine_small(posts: np.ndarray, weights: np.ndarray, mu: np.ndarray, gval) -> tuple[float, list, list] | None:
    """Polish an LP solution; parameterizations keep Bayes exact by design."""
    from scipy.optimize import minimize

    s = len(weights)
    if s == 1:
        return None
    if s == 2:
        def neg(p: np.ndarray) -> float:
            a, b, tau = p
            x1 = np.array([a, b, 1.0 - a - b])
            if x1.min() < 0.0 or not (1e-12 < tau < 1.0 - 1e-12):
                return 1e9
            x2 = (mu - tau * x1) / (1.0 - tau)
            if x2.min() < -1e-12:
                return 1e9
            x2 = np.clip(x2, 0.0, None)
            return -(tau * gval(x1) + (1.0 - tau) * gval(x2 / x2.sum()))

        p0 = np.array([posts[0][0], posts[0][1], weights[0]])
        res = minimize(neg, p0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 6000})
        if res.fun >= 1e9:
            return None
        a, b, tau = res.x
        x1 = np.array([a, b, 1.0 - a - b])
        x2 = np.clip((mu - tau * x1) / (1.0 - tau), 0.0, None)
        x2 = x2 / x2.sum()
        return (-float(res.fun), [x1, x2], [float(tau), 1.0 - float(tau)])
    if s == 3:
        def unpack(p: np.ndarray) -> np.ndarray | None:
            X = np.empty((3, 3))
            for i in range(3):
                a, b = p[2 * i], p[2 * i + 1]
                if a < 0.0 or b < 0.0 or a + b > 1.0:
                    return None
                X[i] = (a, b, 1.0 - a - b)
            return X

        def neg(p: np.ndarray) -> float:
            X = unpack(p)
            if X is None:
                return 1e9
            try:
                lam = np.linalg.solve(X.T, mu)
            except np.linalg.LinAlgError:
                return 1e9
            if lam.min() < -1e-10 or lam.max() > 1.0 + 1e-10:
                return 1e9
            lam = np.clip(lam, 0.0, None)
            return -math.fsum(l * gval(x) for l, x in zip(lam, X))

        p0 = np.array([c for x in posts for c in x[:2]])
        res = minimize(neg, p0, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 12000})
        if res.fun >= 1e9:
            return None
        X = unpack(res.x)
        lam = np.clip(np.linalg.solve(X.T, mu), 0.0, None)
        lam = lam / lam.sum()
        return (-float(res.fun), list(X), list(map(float, lam)))
    return None


def brute_force(inst: MarketInstance, grid_n: int | None = None) -> OracleResult:
    """Dispatch to the pair oracle (2 types) or the simplex LP oracle (3 types)."""
    if len(inst.vals) == 2:
        return brute_force_binary(inst, grid_n or 4000)
    if len(inst.vals) == 3:
        return brute_force_small(inst, grid_n or 100)
    raise ValidationError("oracle_size", "oracles cover markets with 2 or 3 types only")
