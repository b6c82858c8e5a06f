#!/usr/bin/env python3
"""Trace the (CS, PS) locus across cost scales inside the surplus triangle.

As the information cost scale runs from near zero to past the
segmentation threshold, the realized welfare pair sweeps a curve inside
the triangle spanned by the uniform-price point, the full-extraction
point, and the efficient consumer-optimal point. With --rationalize the
script also picks interior target points and reconstructs, for each, a
convex information cost making that exact point optimal.
"""

import argparse
import sys

import numpy as np

from segmentix import (
    KGridSpec,
    Market,
    RationalizationTarget,
    ValidationError,
    Valuations,
    construct_cost,
    foc_residuals,
    induced_segments,
    surplus_triangle,
    sweep_k,
    verify_rationalization,
)


def trace(vals: Valuations, mu_star: Market, n: int) -> list[tuple[float, float, float]]:
    grid = KGridSpec(lo=1e-3 * vals[0], hi=1e2 * vals[0], n=n)
    table = sweep_k(vals, mu_star, grid)
    return [(row.k, row.report.cs, row.report.ps_gross) for row in table.rows]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--valuations", type=float, nargs=2, default=[1.0, 2.0])
    ap.add_argument("--mu-high", type=float, default=0.4, help="prior high-type share")
    ap.add_argument("--points", type=int, default=120)
    ap.add_argument("--rationalize", type=int, default=0, metavar="N", help="round-trip N interior targets")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None, help="write k,cs,ps rows here")
    args = ap.parse_args()

    vals = Valuations(args.valuations)
    mu_star = Market((1.0 - args.mu_high, args.mu_high))
    tri = surplus_triangle(mu_star, vals)
    print(f"triangle: uniform profit {tri.uniform_profit:g}, full surplus {tri.full_surplus:g}, max CS {tri.max_cs:g}")

    rows = trace(vals, mu_star, args.points)
    inside = sum(1 for _, cs, ps in rows if tri.contains(cs, ps))
    span = max(cs for _, cs, _ in rows) - min(cs for _, cs, _ in rows)
    print(f"locus: {len(rows)} points, {inside} inside the triangle, CS span {span:.6f}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("k,cs,ps_gross\n")
            for k, cs, ps in rows:
                fh.write(f"{k!r},{cs!r},{ps!r}\n".replace("'", ""))
        print(f"wrote {args.csv}")

    if args.rationalize > 0:
        if mu_star[1] * vals[1] > vals[0]:
            raise SystemExit("rationalization needs a prior that prices low; lower --mu-high")
        rng = np.random.default_rng(args.seed)
        done = 0
        while done < args.rationalize:
            cs = rng.uniform(0.01, tri.max_cs - 0.01)
            ps = rng.uniform(tri.uniform_profit, tri.full_surplus - cs)
            try:
                target = RationalizationTarget(cs=cs, ps=ps, vals=vals, mu_star=mu_star)
                seg = induced_segments(target)
                cost = construct_cost(seg.mu1, seg.mu2, seg.tau1, vals, mu_star)
            except ValidationError:
                continue
            done += 1
            report = verify_rationalization(cost, target, grid_n=4000)
            r1, r2 = foc_residuals(cost, seg, vals)
            status = "ok" if report.passed else "FAILED"
            print(
                f"  target ({cs:.4f}, {ps:.4f}) -> segments ({seg.mu1:.4f}, {seg.mu2:.4f}) "
                f"weight {seg.tau1:.4f}  foc ({r1:.1e}, {r2:.1e})  {status}"
            )


if __name__ == "__main__":
    try:
        main()
    except ValidationError as exc:
        sys.stderr.write(f"error [{exc.invariant}]: {exc.message}\n")
        sys.exit(2)
