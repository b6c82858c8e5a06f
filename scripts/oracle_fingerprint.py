#!/usr/bin/env python3
"""Fingerprint the brute-force oracles over a fixed set of seeded inputs.

Imports ``segmentix`` from ``--src`` and runs ``oracle.brute_force`` on
seeded markets: two-type ones on grids 400 to 4000 at k below and above
the segmentation threshold k-bar, and three-type ones on simplex grids 20
to 100 at k from far below k-bar (three segments) to above it (one).
Each input prints one line:

    K=<types> grid=<grid_n> seed=<s> ratio=<k / k-bar> segments=<n> sha256=<digest of repr(result)>

The inputs depend only on the seeds, not on the tree under test (k-bar is
found here, by bisection on the no-segmentation certificate), so two runs
print the same lines unless an oracle result changed in some bit. Compare
two source trees with

    python scripts/oracle_fingerprint.py --src OLD/src > old.txt
    python scripts/oracle_fingerprint.py --src NEW/src > new.txt
    diff old.txt new.txt

Uses the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

GRIDS = {2: (400, 1000, 2000, 4000), 3: (20, 40, 60, 100)}
RATIOS = {2: (0.3, 0.9, 1.1, 3.0), 3: (0.05, 0.3, 0.7, 0.95, 1.5)}


def market(rng: np.random.Generator, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Valuations uniform on [0.5, 5] at least 0.1 apart, prior Dirichlet(2)."""
    while True:
        vals = np.sort(rng.uniform(0.5, 5.0, size=K))
        if np.min(np.diff(vals)) >= 0.1:
            return vals, rng.dirichlet(np.full(K, 2.0))


def threshold(vals: np.ndarray, mu: np.ndarray) -> float:
    """k-bar: the least k at which max_t log sum_i mu_i exp((S_it - S_ip) / k) <= 0.

    S_it is the revenue a type-i buyer pays at price v_t and p the prior's
    best price; the left side falls as k grows, so bisect on log k.
    """
    S = np.where(vals[:, None] >= vals[None, :], vals[None, :], 0.0)
    p = int(np.argmax(mu @ S))
    A = np.delete(S - S[:, p : p + 1], p, axis=1)
    lo, hi = np.log(vals[0] * 1e-9), np.log(vals[-1] * 1e9)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        x = A / np.exp(mid)
        m = x.max(axis=0)
        if np.max(np.log(mu @ np.exp(x - m)) + m) <= 0.0:
            hi = mid
        else:
            lo = mid
    return float(np.exp(hi))


def inputs(seeds: int):
    """(K, grid_n, seed, ratio, vals, mu, k) for every fingerprinted oracle call, in order."""
    for K in (2, 3):
        for grid_n in GRIDS[K]:
            for seed in range(1, seeds + 1):
                vals, mu = market(np.random.default_rng([K, grid_n, seed]), K)
                kbar = threshold(vals, mu)
                for ratio in RATIOS[K]:
                    yield K, grid_n, seed, ratio, tuple(map(float, vals)), tuple(map(float, mu)), ratio * kbar


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", required=True, help="directory holding the segmentix package")
    ap.add_argument("--seeds", type=int, default=3, help="markets per grid size (default 3)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from segmentix import Market, MarketInstance, Valuations, brute_force

    n = 0
    for K, grid_n, seed, ratio, vals, mu, k in inputs(args.seeds):
        res = brute_force(MarketInstance(Valuations(vals), Market(mu), k), grid_n=grid_n)
        digest = hashlib.sha256(repr(res).encode()).hexdigest()
        print(f"K={K} grid={grid_n} seed={seed} ratio={ratio} segments={len(res.segmentation.segments)}"
              f" sha256={digest}", flush=True)
        n += 1
    print(f"# {n} oracle inputs", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
