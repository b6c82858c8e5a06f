#!/usr/bin/env python3
"""Sweep the information cost scale and chart the welfare curves.

Writes the sweep table as CSV and, optionally, an SVG chart of the
consumer surplus, producer surplus, and total surplus series. Also prints
each series' monotonicity class, which is where the interesting
comparative statics show up: consumer surplus is monotone only when the
prior prices low, and gross total surplus is monotone only when it
prices high.
"""

import argparse
import sys

from segmentix import (
    Market,
    ValidationError,
    Valuations,
    classify_monotonicity,
    default_k_grid,
    segmentation_threshold,
    sweep_k,
    to_csv,
    to_svg,
)
from segmentix.cli import parse_k_grid


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--valuations", type=float, nargs="+", default=[1.0, 2.0])
    ap.add_argument("--mu", type=float, nargs="+", default=[0.4, 0.6])
    ap.add_argument("--k-grid", default=None, metavar="MIN:MAX:N", help="log grid (default spans the threshold)")
    ap.add_argument("--csv", default=None, help="write the sweep table here")
    ap.add_argument("--svg", default=None, help="write the chart here")
    args = ap.parse_args()

    vals = Valuations(args.valuations)
    mu_star = Market(args.mu)
    grid = parse_k_grid(args.k_grid) if args.k_grid else default_k_grid(vals)

    kbar = segmentation_threshold(vals, mu_star)
    table = sweep_k(vals, mu_star, grid)

    print(f"swept {len(table.rows)} cost scales in [{grid.lo:g}, {grid.hi:g}], threshold k-bar={kbar:.6g}")
    for field in ("cs", "ps_net", "ts_gross", "info_cost"):
        series = [v for _, v in table.series(field)]
        print(f"  {field:<10} {classify_monotonicity(series):<14} range [{min(series):.6f}, {max(series):.6f}]")

    n_split = sum(1 for row in table.rows if row.n_segments > 1)
    print(f"  segmentation chosen on {n_split}/{len(table.rows)} grid points")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write(to_csv(table))
        print(f"wrote {args.csv}")
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(to_svg(table))
        print(f"wrote {args.svg}")
    if not args.csv and not args.svg:
        sys.stdout.write(to_csv(table))


if __name__ == "__main__":
    try:
        main()
    except ValidationError as exc:
        sys.stderr.write(f"error [{exc.invariant}]: {exc.message}\n")
        sys.exit(2)
