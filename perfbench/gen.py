"""Seeded inputs for the benchmark, built with numpy alone.

Nothing here imports segmentix: the program under test only ever sees
the generated inputs, and generating them costs the same whatever the
program does. The segmentation threshold k-bar is found by bisection on
the no-segmentation certificate

    max over prices t != p of  sum_i mu_i * exp((S_it - S_ip) / k)  <= 1,

where p is the prior's revenue-maximizing price and S_it the revenue a
type-i buyer pays at price v_t. The left side falls as k grows (its log
is convex in 1/k with a nonpositive slope at 1/k = 0), so the set of k
that pass is [k-bar, inf).
"""

from __future__ import annotations

import numpy as np

# instance family of the acceptance suite's three-type oracle check:
# valuations uniform on [0.5, 5] at least 0.1 apart, prior Dirichlet(2)
VAL_LO, VAL_HI, VAL_GAP, PRIOR_ALPHA = 0.5, 5.0, 0.1, 2.0


def markets(rng: np.random.Generator, n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """n random markets with K types: (valuations (n, K) ascending, priors (n, K))."""
    vals = np.empty((n, K))
    filled = 0
    while filled < n:
        w = np.sort(rng.uniform(VAL_LO, VAL_HI, size=(2 * (n - filled) + 4, K)), axis=1)
        w = w[np.min(np.diff(w, axis=1), axis=1) >= VAL_GAP][: n - filled]
        vals[filled : filled + len(w)] = w
        filled += len(w)
    return vals, rng.dirichlet(np.full(K, PRIOR_ALPHA), size=n)


def thresholds(vals: np.ndarray, mu: np.ndarray, iters: int = 110) -> np.ndarray:
    """k-bar for each row of (vals, mu), by bisection on log k."""
    vals = np.atleast_2d(vals)
    mu = np.atleast_2d(mu)
    n, K = vals.shape
    S = np.where(vals[:, :, None] >= vals[:, None, :], vals[:, None, :], 0.0)  # (n, i, t)
    p = np.argmax(np.einsum("ni,nit->nt", mu, S), axis=1)
    A = S - np.take_along_axis(S, p[:, None, None], axis=2)
    # column p is identically zero; drop it so rounding in sum(mu) cannot matter
    keep = np.arange(K)[None, :] != p[:, None]
    A = A[np.repeat(keep[:, None, :], K, axis=1)].reshape(n, K, K - 1)

    def passes(log_k: np.ndarray) -> np.ndarray:
        x = A / np.exp(log_k)[:, None, None]
        m = x.max(axis=1, keepdims=True)
        f = np.log(np.einsum("ni,nit->nt", mu, np.exp(x - m))) + m[:, 0, :]
        return f.max(axis=1) <= 0.0

    lo = np.log(vals[:, 0] * 1e-9)
    hi = np.log(vals[:, -1] * 1e9)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = passes(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return np.exp(hi)


def instances(rng: np.random.Generator, K: int, ratios: np.ndarray) -> list[tuple[tuple, tuple, float, float]]:
    """One market per entry of ``ratios``, with k = ratio * k-bar.

    Returns (valuations, prior, k, ratio) tuples of plain floats.
    """
    vals, mu = markets(rng, len(ratios), K)
    kbar = thresholds(vals, mu)
    return [
        (tuple(map(float, v)), tuple(map(float, m)), float(r * kb), float(r))
        for v, m, kb, r in zip(vals, mu, kbar, ratios)
    ]


def rationalization_targets(rng: np.random.Generator, n: int) -> list[dict]:
    """Two-type (CS, PS) targets strictly inside the surplus triangle.

    Drawn through the segments they induce: a low segment at high-type
    share mu1 below the pricing boundary r = w1/w2, a high segment at mu2
    above it, and a weight tau1 large enough that the prior still prices
    low. CS and PS then follow from the welfare identities, so every
    target is rationalizable by construction.
    """
    # unit low valuation, as in the test suite: verify_rationalization's
    # welfare tolerance is absolute, so its grid error must stay below it
    w1 = np.ones(n)
    w2 = rng.uniform(1.5, 3.0, size=n)
    r = w1 / w2
    mu1 = r * rng.uniform(0.15, 0.85, size=n)
    mu2 = r + (1.0 - r) * rng.uniform(0.15, 0.85, size=n)
    tau_min = (mu2 - r) / (mu2 - mu1)
    tau1 = tau_min + (1.0 - tau_min) * rng.uniform(0.15, 0.85, size=n)
    prior = tau1 * mu1 + (1.0 - tau1) * mu2
    cs = tau1 * mu1 * (w2 - w1)
    ps = tau1 * w1 + (1.0 - tau1) * mu2 * w2
    return [
        {"cs": float(c), "ps": float(s), "valuations": [float(a), float(b)], "mu": [float(1.0 - m), float(m)]}
        for c, s, a, b, m in zip(cs, ps, w1, w2, prior)
    ]


def pair_cells(grid_n: int, share: float, inclusive: bool) -> int:
    """Grid pairs a brute-force pair scan visits on linspace(0, 1, grid_n + 1).

    A count computed from the grid size, not measured: points on each side
    of the prior share, with the prior itself counted on both sides when
    ``inclusive`` (the rationalization check) and on neither otherwise
    (the two-type oracle).
    """
    x = np.linspace(0.0, 1.0, grid_n + 1)
    if inclusive:
        return int(np.count_nonzero(x <= share)) * int(np.count_nonzero(x >= share))
    return int(np.count_nonzero(x < share)) * int(np.count_nonzero(x > share))
