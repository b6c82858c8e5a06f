#!/usr/bin/env python3
"""Solve one two-type instance end to end and print every artifact.

Defaults reproduce the package's reference instance: valuations (1, 2),
prior (0.4, 0.6), cost scale 0.8. The run prints the optimal segmentation,
the welfare accounting, the optimality certificate, and an independent
grid-oracle confirmation of the achieved value.
"""

import argparse
import sys

from segmentix import (
    Market,
    MarketInstance,
    ValidationError,
    Valuations,
    brute_force,
    net_objective,
    segmentation_threshold,
    solve,
    surplus_triangle,
    verify_optimality,
    welfare,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--valuations", type=float, nargs="+", default=[1.0, 2.0])
    ap.add_argument("--mu", type=float, nargs="+", default=[0.4, 0.6])
    ap.add_argument("--k", type=float, default=0.8)
    ap.add_argument("--grid-n", type=int, default=4000, help="oracle resolution")
    args = ap.parse_args()

    vals = Valuations(args.valuations)
    mu_star = Market(args.mu)
    inst = MarketInstance(vals, mu_star, args.k)

    kbar = segmentation_threshold(vals, mu_star)
    print(f"instance: valuations={tuple(vals.values)} prior={tuple(mu_star.weights)} k={args.k}")
    print(f"segmentation threshold k-bar = {kbar:.12g}  (instance {'below' if args.k < kbar else 'above'})")

    seg = solve(inst)
    print(f"\noptimal segmentation ({len(seg.segments)} segment(s)):")
    for s in sorted(seg.segments, key=lambda s: s.price_index):
        mu_txt = ", ".join(f"{w:.10f}" for w in s.market.weights)
        print(f"  weight {s.weight:.10f}  market ({mu_txt})  price {vals[s.price_index]}")

    rep = welfare(seg, vals, args.k)
    tri = surplus_triangle(mu_star, vals)
    print("\nwelfare accounting:")
    print(f"  consumer surplus      {rep.cs:.10f}")
    print(f"  producer surplus      {rep.ps_gross:.10f} gross, {rep.ps_net:.10f} net")
    print(f"  information cost      {rep.info_cost:.10f}")
    print(f"  total surplus         {rep.ts_gross:.10f} gross, {rep.ts_net:.10f} net")
    print(f"  uniform-price profit  {tri.uniform_profit:.10f}")
    print(f"  gain over uniform     {rep.ps_net - tri.uniform_profit:+.10f}")

    cert = verify_optimality(seg, vals, args.k)
    print("\noptimality certificate:")
    print(f"  passed            {cert.passed}")
    print(f"  bayes residual    {cert.bayes_residual:.3e}")
    print(f"  ilr residual      {cert.ilr_residual:.3e}")
    print(f"  max price slack   {cert.slack_excess:.3e}")

    if len(vals) <= 3:
        oracle = brute_force(inst, grid_n=args.grid_n)
        gap = net_objective(seg, vals, args.k) - oracle.value
        print("\ngrid oracle:")
        print(f"  best value        {oracle.value:.10f}  ({oracle.method}, grid_n={args.grid_n})")
        print(f"  solver - oracle   {gap:+.3e}  (resolution bound {oracle.resolution_bound:.3e},"
              f" upper - value {oracle.upper - oracle.value:.3e})")


if __name__ == "__main__":
    try:
        main()
    except ValidationError as exc:
        sys.stderr.write(f"error [{exc.invariant}]: {exc.message}\n")
        sys.exit(2)
