#!/usr/bin/env python3
"""Time each layer of a sweep row, call by call, on seeded markets.

Imports ``segmentix`` from ``--src`` (default: the ``src`` next to this
script) and, for K = 2, 3 and 12, draws 10 markets from seed 1 and sweeps
each over 200 log-spaced cost scales from 0.01 to 100 times its top
valuation. Every row is timed layer by layer, one call at a time,
in one pass per layer as ``sweep_k`` makes them:

    MarketInstance           building the row's instance
    solve/whole              the closed form, on rows that keep the prior
                             whole (one segment)
    solve/split              the closed form, on rows that split it
    welfare                  the row's own welfare call (a sweep shares one
                             report among the rows that keep the prior whole)
    verify_optimality/whole  the certificate, once per sweep and price, on the
                             first row that keeps the prior whole, as sweep_k
                             pays it (the later such rows share its report)
    verify_optimality/split  the certificate, on rows that split it
    to_csv                   rendering a one-row table

and ``sweep row`` is the whole ``sweep_k`` plus ``to_csv`` of a market
divided by its rows, one figure per market. Each layer prints its call
count and p50, p99 and max in microseconds over all its calls, after the
machine's core count. Compare two source trees with

    python scripts/row_costs.py --src OLD/src
    python scripts/row_costs.py --src NEW/src

``perfbench/run.py --trace 1`` reports solve, welfare, verify_optimality
and to_csv per layer too, but only on the benchmark's markets (seeded
K=2, one fixed K=3), through wrappers whose cost is in every span, and
without ``MarketInstance``. This script adds that layer and seeded K = 3
and 12 markets, times the bare calls, and needs only the standard
library and a source tree.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

KS = (2, 3, 12)
SEED = 1
MARKETS = 10  # per K
ROWS = 200  # cost scales per market
LAYERS = ("MarketInstance", "solve/whole", "solve/split", "welfare",
          "verify_optimality/whole", "verify_optimality/split", "to_csv")


def market(rng: random.Random, K: int) -> tuple[list[float], list[float]]:
    """Valuations uniform on [0.5, 5] at least 0.1 apart, prior Dirichlet(2)."""
    while True:
        vals = sorted(rng.uniform(0.5, 5.0) for _ in range(K))
        if min(b - a for a, b in zip(vals, vals[1:])) >= 0.1:
            break
    g = [rng.gammavariate(2.0, 1.0) for _ in range(K)]
    return vals, [x / sum(g) for x in g]


def quantile(xs: list[float], q: float) -> float:
    """The nearest-rank q-quantile of a sorted list."""
    return xs[min(len(xs) - 1, max(0, round(q * len(xs)) - 1))]


def timed(out: list[float], calls) -> list:
    """Run each (function, *args) in ``calls``, appending its wall time to ``out``; returns the results."""
    clock = time.perf_counter
    results = []
    for fn, *fargs in calls:
        t0 = clock()
        results.append(fn(*fargs))
        out.append(clock() - t0)
    return results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"),
                    help="directory holding the segmentix package")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from segmentix import (
        KGridSpec, Market, MarketInstance, Valuations, solve, sweep_k, to_csv, verify_optimality, welfare,
    )
    from segmentix.sweeps import SweepTable

    clock = time.perf_counter
    print(f"nproc {os.cpu_count()}")
    for K in KS:
        rng = random.Random(f"{SEED}-{K}")
        times: dict[str, list[float]] = {name: [] for name in (*LAYERS, "sweep row")}
        for _ in range(MARKETS):
            v, m = market(rng, K)
            vals, mu = Valuations(v), Market(m)
            spec = KGridSpec(0.01 * v[-1], 100.0 * v[-1], ROWS)
            t0 = clock()
            table = sweep_k(vals, mu, spec)
            to_csv(table)
            times["sweep row"].append((clock() - t0) / ROWS)
            rows = table.rows
            ks = [row.k for row in rows]
            # one pass per layer, as sweep_k makes them, each call timed on its own
            insts = timed(times["MarketInstance"], ((MarketInstance, vals, mu, k) for k in ks))
            solve_t: list[float] = []
            segs = timed(solve_t, ((solve, inst) for inst in insts))
            timed(times["welfare"], ((welfare, seg, vals, k) for seg, k in zip(segs, ks)))
            certified = set()  # the prices whose whole-prior row is certified
            for seg, k, ts in zip(segs, ks, solve_t):
                kind = "whole" if len(seg.segments) == 1 else "split"
                times[f"solve/{kind}"].append(ts)
                if kind == "split" or seg.segments[0].price_index not in certified:
                    timed(times[f"verify_optimality/{kind}"], [(verify_optimality, seg, vals, k)])
                    if kind == "whole":
                        certified.add(seg.segments[0].price_index)
            timed(times["to_csv"], [(to_csv, SweepTable((row,))) for row in rows])
        print(f"K={K} markets={MARKETS} rows={MARKETS * ROWS} seed={SEED}")
        print(f"  {'layer':<26}{'calls':>7}{'p50_us':>10}{'p99_us':>10}{'max_us':>10}")
        for name, xs in times.items():
            xs.sort()
            p50, p99, top = (1e6 * quantile(xs, q) for q in (0.5, 0.99, 1.0))
            print(f"  {name:<26}{len(xs):>7}{p50:>10.2f}{p99:>10.2f}{top:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
