"""Command-line surface: solve instances, sweep cost scales, verify
segmentations, rationalize welfare targets, and run grid oracles.

Exit codes: 0 success, 2 validation failure (the violated invariant is
named on stderr), 3 a ``SolverError``, which no solver raises. Outputs
are deterministic: identical inputs produce byte-identical artifacts.

argparse checks flag names, types and choices. Every other argument check
lives in ``_check_args``, which runs before any file is read and reports
the first failure in this order: ``--k-grid``, the format each command
allows, distinct paths, then the ranges of ``verify``'s ``--tol`` and of
``--grid-n`` (from 2000 for ``rationalize``, which verifies on that grid).
The handlers read the checked namespace.

Each handler imports the modules it runs when it runs, so a process loads
only what its subcommand needs: ``solve`` and ``verify`` load ``binary``
and ``solver``, ``sweep`` those and ``sweeps``, ``rationalize`` ``oracle``
and ``rationalize``, ``oracle`` only ``oracle``; a structural ``verify``
(no ``--instance``) loads nothing beyond ``files`` and ``market``. The
library names the handlers call stay attributes of this module, loaded
on first access (PEP 562) as the package's are.

numpy loads only in code that computes on arrays. ``solve``, ``verify``
and ``sweep`` load neither it nor ``inspect``, at any number of types:
both solvers are closed forms on Python floats. ``rationalize`` and
``oracle`` load both. No subcommand loads the standard data-class module.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from collections.abc import Callable
from typing import TYPE_CHECKING

from . import files
from .market import Segment, Segmentation, SolverError, ValidationError

if TYPE_CHECKING:
    from .sweeps import KGridSpec

# library name -> the submodule that defines it, for ``__getattr__``
_LAZY = {
    "solve": "solver", "verify_optimality": "solver", "sweep_k": "sweeps", "to_csv": "sweeps",
    "brute_force": "oracle", "induced_segments": "rationalize", "construct_cost": "rationalize",
    "verify_rationalization": "rationalize",
}  # fmt: skip


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


def _check_args(ns: argparse.Namespace) -> None:
    """Complete ``ns`` in place: parsed --k-grid and output format.

    Paths must be pairwise distinct so no command can clobber its own input.
    """
    ns.k_grid = parse_k_grid(ns.k_grid) if ns.k_grid else None
    ns.format = ns.format or ns.formats[0]
    if ns.format not in ns.formats:
        raise ValidationError(
            "output_format", f"format {ns.format!r} is not valid for {ns.command} (choose from {ns.formats})"
        )
    paths = [p for p in (ns.input, ns.instance, ns.output) if p is not None]
    if len(set(map(os.path.abspath, paths))) != len(paths):
        raise ValidationError("distinct_paths", f"input/instance/output paths must differ, got {paths}")
    if ns.tol is not None and not ns.tol > 0.0:
        raise ValidationError("tolerance", f"--tol must be > 0, got {ns.tol}")
    grid_min = 4
    if ns.command == "rationalize":
        from .rationalize import MIN_VERIFY_GRID_N as grid_min
    if ns.grid_n is not None and ns.grid_n < grid_min:
        raise ValidationError("grid_size", f"--grid-n must be >= {grid_min}, got {ns.grid_n}")


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.output is None:
        sys.stdout.write(text)
    else:
        with open(ns.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_solve(ns: argparse.Namespace) -> None:
    from .solver import solve

    inst = files.load_market_instance(ns.input)
    seg = solve(inst)
    _emit(ns, files.dump_json(files.segmentation_to_dict(seg, inst.vals)))


def _run_sweep(ns: argparse.Namespace) -> None:
    from .sweeps import default_k_grid, sweep_k, to_csv, to_svg

    vals, mu = files.load_sweep_instance(ns.input)
    grid = ns.k_grid if ns.k_grid is not None else default_k_grid(vals)
    table = sweep_k(vals, mu, grid)
    _emit(ns, to_csv(table) if ns.format == "csv" else to_svg(table))


def _run_verify(ns: argparse.Namespace) -> None:
    if ns.instance is None:
        prior, triples = files.parse_segmentation_structure(files.read_json(ns.input), ns.input)
        # price indices are unknown without the valuation ladder; index 0 is a
        # placeholder so the construction-time weight and Bayes checks run
        seg = Segmentation(prior, [Segment(m, w, 0) for m, w, _ in triples])
        payload = {
            "passed": True,
            "bayes_residual": seg.bayes_residual,
            "checks": ["segment_weights", "bayes_plausibility"],
            "note": "structural checks only; pass --instance for the optimality certificate",
        }
        _emit(ns, files.dump_json(payload))
        return
    from .solver import VERIFY_TOL, verify_optimality

    inst = files.load_market_instance(ns.instance)
    seg = files.load_segmentation(ns.input, inst.vals)
    tol = ns.tol if ns.tol is not None else VERIFY_TOL
    report = verify_optimality(seg, inst.vals, inst.k, tol=tol)
    payload = {
        "passed": report.passed,
        "bayes_residual": report.bayes_residual,
        "ilr_residual": report.ilr_residual,
        "slack_excess": report.slack_excess,
        "failures": list(report.failures),
        "tolerance": tol,
    }
    _emit(ns, files.dump_json(payload))
    if not report.passed:
        raise ValidationError(report.failures[0], f"optimality certificate failed at tolerance {tol}")


def _run_rationalize(ns: argparse.Namespace) -> None:
    from .rationalize import construct_cost, induced_segments, verify_rationalization

    target = files.load_rationalization_target(ns.input)
    seg = induced_segments(target)
    cost = construct_cost(seg.mu1, seg.mu2, seg.tau1, target.vals, target.mu_star)
    report = verify_rationalization(cost, target, grid_n=4000 if ns.grid_n is None else ns.grid_n)
    if not report.passed:
        raise ValidationError("rationalization_verification", "; ".join(report.messages))
    _emit(ns, files.dump_json(files.cost_spec_to_dict(cost)))


def _run_oracle(ns: argparse.Namespace) -> None:
    from .oracle import brute_force

    inst = files.load_market_instance(ns.input)
    result = brute_force(inst, grid_n=ns.grid_n)
    payload = {
        "value": result.value,
        "upper": result.upper,
        "grid_value": result.grid_value,
        "grid_step": result.grid_step,
        "resolution_bound": result.resolution_bound,
        "method": result.method,
        "segmentation": files.segmentation_to_dict(result.segmentation, inst.vals),
    }
    _emit(ns, files.dump_json(payload))


def parse_k_grid(text: str) -> KGridSpec:
    from .sweeps import KGridSpec

    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("k_grid", f"--k-grid wants MIN:MAX:N, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError("k_grid", f"--k-grid wants numeric MIN:MAX:N, got {text!r}") from exc
    return KGridSpec(lo=lo, hi=hi, n=n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segmentix",
        description="Optimal market segmentation under entropy information costs.",
    )
    parser.set_defaults(instance=None, tol=None, k_grid=None, grid_n=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler: Callable[[argparse.Namespace], None],
            formats: tuple[str, ...] = ("json",)) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, formats=formats)
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        p.add_argument("--format", default=None, choices=("json", "csv", "svg"))
        return p

    add("solve", "solve one instance; writes the optimal segmentation", _run_solve)

    p = add("sweep", "solve across a grid of cost scales; writes CSV or SVG curves", _run_sweep, ("csv", "svg"))
    p.add_argument("--k-grid", default=None, metavar="MIN:MAX:N", help="log-spaced cost grid")

    p = add("verify", "check a segmentation file against the optimality certificate", _run_verify)
    p.add_argument("--instance", default=None, help="market instance the segmentation solves")
    p.add_argument("--tol", type=float, default=None, help="certificate tolerance (default 1e-8)")

    p = add("rationalize", "build a convex cost making a (CS, PS) target optimal", _run_rationalize)
    p.add_argument("--grid-n", type=int, default=None, help="verification grid resolution")

    p = add("oracle", "exhaustive grid search; writes the certified best value", _run_oracle)
    p.add_argument("--grid-n", type=int, default=None, help="search grid resolution")

    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        _check_args(ns)
        ns.handler(ns)
    except ValidationError as exc:
        sys.stderr.write(f"error [{exc.invariant}]: {exc.message}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"error [no_convergence]: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
