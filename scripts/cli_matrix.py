#!/usr/bin/env python3
"""Fingerprint the ``segmentix`` command line over a fixed set of invocations.

Writes fixed input files into ``--work``, then runs ``python -m
segmentix.cli`` from that directory, with ``--src`` as the only
``PYTHONPATH`` entry, over every invocation in ``invocations()``: all five
subcommands on two- and three-type inputs (among them two-type priors with
a share below 2**-53), every argument and file error, and several errors at
once (to pin which one is reported first). Each invocation prints one line:

    <argv>  exit=<code>  out=<sha256>  err=<sha256>  file=<sha256 or ->

Paths are relative to ``--work``, so two runs print the same lines unless
the command line behaves differently. Compare two source trees with

    python scripts/cli_matrix.py --src OLD/src --work /tmp/m > old.txt
    python scripts/cli_matrix.py --src NEW/src --work /tmp/m > new.txt
    diff old.txt new.txt

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys

INPUTS = {
    "inst2.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 0.8},
    "inst2b.json": {"valuations": [1.0, 3.0], "mu": [0.7, 0.3], "k": 0.3},
    "inst2_pool.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 5.0},
    "inst2_zero.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 0.0},
    "inst2_offgrid.json": {"valuations": [1.0, 2.5], "mu": [0.61234, 0.38766], "k": 0.4},
    "inst3.json": {"valuations": [1.0, 2.0, 3.0], "mu": [0.3, 0.4, 0.3], "k": 3.0},
    "inst3_slow.json": {"valuations": [1.0, 2.0, 3.0], "mu": [0.3, 0.4, 0.3], "k": 0.5},
    "inst3_near.json": {"valuations": [1.0, 2.0, 3.0], "mu": [0.3, 0.4, 0.3], "k": 1.4425},
    "inst4_smallk.json": {
        "valuations": [1.1850924593921786, 3.8020827553407517, 4.048053720371515, 4.689562813494701],
        "mu": [0.0286410808980551, 4.340621750876239e-11, 0.47790271474479623, 0.4934562043137425],
        "k": 0.00016120592382723196,
    },
    # the high share, then the low share, below half an ulp of the other
    "inst2_tinyhi.json": {"valuations": [5665.424133780135, 23150.253488507526], "mu": [1.0, 1.5063967719774e-114],
                          "k": 0.8853969049295498},
    "inst2_tinylo.json": {"valuations": [6.58810979414354, 27.141280667075595], "mu": [9.341843475483123e-25, 1.0],
                          "k": 0.002461952748699573},
    # dividing this prior by its fsum once leaves an fsum other than 1; the
    # sweep's grid is the benchmark's for this market, holding the solve's k
    "inst2_renorm.json": {"valuations": [2.2580222068777105, 3.3759214995278573],
                          "mu": [0.8172438280513341, 0.18275617194866606], "k": 0.03703337939781618},
    # v/k near 5e9 and 2.6e9: exact optima whose absolute-form certificate terms cancel
    "inst2_scale.json": {"valuations": [4.413445638302532e-05, 787429.3722137071],
                         "mu": [0.9104628401207199, 0.08953715987928008], "k": 0.00015404285238829974},
    "inst3_scale.json": {"valuations": [0.0009495858196874592, 0.2893408819795903, 1658541.1634981295],
                         "mu": [0.5488995310487239, 0.22743785531034033, 0.2236626136409358],
                         "k": 0.0006312048587303156},
    "sweep2.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]},
    "sweep2k.json": {"valuations": [1.0, 4.0], "mu": [0.5, 0.5], "k": 0.1},
    "sweep3.json": {"valuations": [1.0, 2.0, 3.0], "mu": [0.3, 0.4, 0.3]},
    "target.json": {"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]},
    "target_b.json": {"cs": 0.1, "ps": 1.2, "valuations": [1.0, 1.5], "mu": [0.5, 0.5]},
    "target_ongrid.json": {"cs": 0.1, "ps": 1.1, "valuations": [1, 2], "mu": [0.75, 0.25]},
    # w2/w1 = 8.61: the default grid is too coarse to place the argmax, 8000 is fine enough
    "target_coarse.json": {"cs": 0.817354, "ps": 1.014113, "valuations": [1.0, 8.61], "mu": [0.8907, 0.1093]},
    "target_edge.json": {"cs": 0.0, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]},
    "target_len.json": {"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [0.2, 0.3, 0.5]},
    "target_nocs.json": {"ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]},
    "target_badmu.json": {"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [-0.6, 1.6]},
    "target_badps.json": {"cs": 0.2, "ps": "x", "valuations": [1, 2], "mu": [0.6, 0.4]},
    "bad_missing_k.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6]},
    "bad_unknown.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 0.8, "x": 1},
    "bad_bool.json": {"valuations": [1.0, True], "mu": [0.4, 0.6], "k": 0.8},
    "bad_string.json": {"valuations": [1.0, 2.0], "mu": [0.4, "a"], "k": 0.8},
    "bad_len.json": {"valuations": [1.0, 2.0], "mu": [0.2, 0.3, 0.5], "k": 0.8},
    "bad_negk.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": -1.0},
    "bad_nank.json": {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 1e400},
    "bad_mu.json": {"valuations": [1.0, 2.0], "mu": [0.4, -0.6], "k": 0.8},
    "bad_vals.json": {"valuations": [2.0, 1.0], "mu": [0.4, 0.6], "k": 0.8},
    "bad_emptyvals.json": {"valuations": [], "mu": [0.4, 0.6], "k": 0.8},
    "bad_list.json": [1, 2, 3],
    "seg_pool.json": {"prior": [0.4, 0.6], "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 2.0}]},
    "seg_bayes.json": {
        "prior": [0.4, 0.6],
        "segments": [
            {"mu": [0.8, 0.2], "weight": 0.5, "price": 1.0},
            {"mu": [0.2, 0.8], "weight": 0.5, "price": 2.0},
        ],
    },
    "seg_weights.json": {
        "prior": [0.4, 0.6],
        "segments": [
            {"mu": [0.8, 0.2], "weight": 0.7, "price": 1.0},
            {"mu": [0.0, 1.0], "weight": 0.6, "price": 2.0},
        ],
    },
    "seg_price.json": {"prior": [0.4, 0.6], "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 1.5}]},
    "seg_prior3_empty.json": {"prior": [0.2, 0.3, 0.5], "segments": []},
    "seg_prior3.json": {"prior": [0.2, 0.3, 0.5], "segments": [{"mu": [0.2, 0.3, 0.5], "weight": 1.0, "price": 2.0}]},
    "seg_mulen.json": {"prior": [0.4, 0.6], "segments": [{"mu": [0.2, 0.3, 0.5], "weight": 1.0, "price": 2.0}]},
    "seg_badmu.json": {"prior": [0.4, 0.6], "segments": [{"mu": [1.4, -0.4], "weight": 1.0, "price": 2.0}]},
    "seg_badprior.json": {"prior": [0.4, -0.6], "segments": []},
    "seg_noweight.json": {"prior": [0.4, 0.6], "segments": [{"mu": [0.4, 0.6], "price": 2.0}]},
    "seg_segtype.json": {"prior": [0.4, 0.6], "segments": [[0.4, 0.6]]},
    "seg_second_bad.json": {
        "prior": [0.4, 0.6],
        "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 2.0}, {"mu": [0.4, 0.6]}],
    },
    "seg_notlist.json": {"prior": [0.4, 0.6], "segments": {"mu": [0.4, 0.6]}},
}
RAW_INPUTS = {
    "bad_syntax.json": '{"valuations": [1.0, 2.0],\n "mu": [0.4, 0.6] "k": 0.8}\n',
    "bad_empty.json": "",
}


def invocations() -> list[tuple[list[str], str | None]]:
    """(argv, output file) for every run, in order."""
    runs: list[tuple[list[str], str | None]] = []

    def add(*argv: str, out: str | None = None) -> None:
        runs.append((list(argv) + (["--output", out] if out else []), out))

    # solutions first: later verify runs read them
    add("solve", "--input", "inst2.json", out="seg2.json")
    add("solve", "--input", "inst2b.json", out="seg2b.json")
    add("solve", "--input", "inst3.json", out="seg3.json")
    add("solve", "--input", "inst2_pool.json", out="seg2_pool.json")
    add("solve", "--input", "inst2_zero.json", out="seg2_zero.json")
    add("solve", "--input", "inst2_tinyhi.json", out="seg2_tinyhi.json")
    add("solve", "--input", "inst2_tinylo.json", out="seg2_tinylo.json")
    add("solve", "--input", "inst2_renorm.json", out="seg2_renorm.json")
    add("solve", "--input", "inst2_scale.json", out="seg2_scale.json")
    add("solve", "--input", "inst3_scale.json", out="seg3_scale.json")

    # every subcommand
    add("solve", "--input", "inst2.json")
    add("solve", "--input", "inst3.json", "--format", "json")
    add("sweep", "--input", "sweep2.json", "--k-grid", "0.05:20:30", "--format", "csv")
    add("sweep", "--input", "sweep3.json", "--k-grid", "2:10:6", out="sweep3.svg")
    add("verify", "--input", "seg2.json", "--instance", "inst2.json")
    add("verify", "--input", "seg2.json")
    add("rationalize", "--input", "target.json")
    add("oracle", "--input", "inst2.json", "--grid-n", "400")
    add("sweep", "--input", "sweep2.json", "--k-grid", "0.1:x:5", "--format", "json")

    # solve
    for inst in ("inst2.json", "inst2b.json", "inst2_pool.json", "inst2_zero.json", "inst3.json"):
        add("solve", "--input", inst, out="solve_out.json")
    add("solve", "--input", "inst2.json", "--tol", "1e-12", "--max-iters", "50000")
    add("solve", "--input", "inst3.json", "--tol", "1e-6")
    add("solve", "--input", "inst3.json", "--max-iters", "100000")
    add("solve", "--input", "inst3_slow.json", "--max-iters", "2")
    add("solve", "--input", "inst3_slow.json", "--max-iters", "5", "--tol", "1e-3")
    add("solve", "--input", "inst2.json", "--tol", "inf")
    add("solve", "--input", "inst3_near.json")
    add("solve", "--input", "inst4_smallk.json")

    # sweep
    add("sweep", "--input", "sweep2.json", out="sweep_default.csv")
    add("sweep", "--input", "sweep2.json", "--k-grid", "", out="sweep_empty.csv")
    add("sweep", "--input", "sweep2.json", "--k-grid", "", "--format", "svg")
    add("sweep", "--input", "sweep2.json", "--format", "svg", out="sweep_default.svg")
    add("sweep", "--input", "sweep2k.json", "--k-grid", "0.01:10:25")
    add("sweep", "--input", "sweep2k.json", "--k-grid", "0.01:10:25", "--format", "svg")
    add("sweep", "--input", "inst2.json", "--k-grid", "0.1:10:2")
    add("sweep", "--input", "sweep3.json", "--k-grid", "1.5:10:8", "--format", "csv")
    add("sweep", "--input", "sweep3.json", "--k-grid", "2:10:5", "--max-iters", "3")
    add("sweep", "--input", "sweep3.json", "--k-grid", "0.5:2:9")
    add("sweep", "--input", "sweep2.json", "--k-grid", "0.1:10:12", "--tol", "1e-9", "--max-iters", "1000")
    add("sweep", "--input", "inst2_tinyhi.json", "--k-grid", "0.001:1:25")
    add("sweep", "--input", "inst2_tinylo.json", "--k-grid", "0.001:1:25")
    add("sweep", "--input", "inst2_renorm.json", "--k-grid", "0.03375921499527857:337.59214995278575:200")
    for grid in ("1:2", "1:2:3:4", "a:b:c", "0.1:10:x", "0.1:10:2.5", "0:1:5", "-1:1:5",
                 "5:1:5", "0.1:inf:5", "0.1:10:1", "0.1:10:0", ":::", "nan:1:5"):
        add("sweep", "--input", "sweep2.json", f"--k-grid={grid}")

    # verify
    add("verify", "--input", "seg2.json", "--instance", "inst2.json", out="report2.json")
    add("verify", "--input", "seg2b.json", "--instance", "inst2b.json")
    add("verify", "--input", "seg3.json", "--instance", "inst3.json")
    add("verify", "--input", "seg3.json")
    add("verify", "--input", "seg2_pool.json", "--instance", "inst2_pool.json")
    add("verify", "--input", "seg2_zero.json", "--instance", "inst2_zero.json")
    add("verify", "--input", "seg2_tinyhi.json", "--instance", "inst2_tinyhi.json")
    add("verify", "--input", "seg2_tinylo.json", "--instance", "inst2_tinylo.json")
    add("verify", "--input", "seg2_renorm.json", "--instance", "inst2_renorm.json")
    add("verify", "--input", "seg2_scale.json", "--instance", "inst2_scale.json")
    add("verify", "--input", "seg3_scale.json", "--instance", "inst3_scale.json")
    add("verify", "--input", "seg2.json", "--instance", "inst2.json", "--tol", "1e-14")
    add("verify", "--input", "seg2.json", "--instance", "inst2.json", "--tol", "0.5")
    add("verify", "--input", "seg2.json", "--instance", "inst2b.json")
    add("verify", "--input", "seg2.json", "--instance", "inst3.json")
    add("verify", "--input", "seg_pool.json", "--instance", "inst2.json", out="report_pool.json")
    add("verify", "--input", "seg_pool.json")
    for seg in ("seg_bayes.json", "seg_weights.json", "seg_price.json", "seg_prior3_empty.json",
                "seg_prior3.json", "seg_mulen.json", "seg_badmu.json", "seg_badprior.json",
                "seg_noweight.json", "seg_segtype.json", "seg_second_bad.json", "seg_notlist.json",
                "inst2.json", "bad_syntax.json", "bad_empty.json", "missing.json"):
        add("verify", "--input", seg, "--instance", "inst2.json")
        add("verify", "--input", seg)
    add("verify", "--input", "seg2.json", "--instance", "missing.json")
    add("verify", "--input", "seg2.json", "--instance", "bad_len.json")
    add("verify", "--input", "seg2.json", "--instance", "bad_missing_k.json")

    # rationalize
    add("rationalize", "--input", "target.json", out="cost.json")
    add("rationalize", "--input", "target_b.json")
    add("rationalize", "--input", "target_ongrid.json")  # prior 0.25 is a point of the 4000 and 8000 grids
    add("rationalize", "--input", "target.json", "--grid-n", "8000")
    add("rationalize", "--input", "target_coarse.json")  # exit 2: the message quotes the argmax pair's welfare
    add("rationalize", "--input", "target_coarse.json", "--grid-n", "8000")
    add("rationalize", "--input", "target.json", "--grid-n", "50")
    add("rationalize", "--input", "target.json", "--grid-n", "0")
    for target in ("target_edge.json", "target_len.json", "target_nocs.json", "target_badmu.json",
                   "target_badps.json", "inst2.json", "bad_list.json", "missing.json"):
        add("rationalize", "--input", target)

    # oracle
    add("oracle", "--input", "inst2.json", out="oracle2.json")
    add("oracle", "--input", "inst2b.json", "--grid-n", "1000")
    add("oracle", "--input", "inst2_pool.json", "--grid-n", "300")
    add("oracle", "--input", "inst2_zero.json")
    add("oracle", "--input", "inst2_offgrid.json")
    add("oracle", "--input", "inst3.json", "--grid-n", "20")
    add("oracle", "--input", "inst3_slow.json")
    add("oracle", "--input", "inst2.json", "--grid-n", "4")
    add("oracle", "--input", "inst2.json", "--grid-n", "3")
    add("oracle", "--input", "inst3.json", "--grid-n", "-1")

    # instance files, through solve and oracle
    for bad in ("bad_missing_k.json", "bad_unknown.json", "bad_bool.json", "bad_string.json",
                "bad_len.json", "bad_negk.json", "bad_nank.json", "bad_mu.json", "bad_vals.json",
                "bad_emptyvals.json", "bad_list.json", "bad_syntax.json", "bad_empty.json",
                "missing.json", "target.json"):
        add("solve", "--input", bad)
    for bad in ("bad_len.json", "bad_mu.json", "bad_syntax.json", "bad_vals.json"):
        add("oracle", "--input", bad)
        add("sweep", "--input", bad)

    # argument checks, one at a time
    add("solve", "--input", "inst2.json", "--format", "csv")
    add("solve", "--input", "inst2.json", "--format", "svg")
    add("sweep", "--input", "sweep2.json", "--format", "json")
    add("verify", "--input", "seg2.json", "--format", "svg")
    add("rationalize", "--input", "target.json", "--format", "csv")
    add("oracle", "--input", "inst2.json", "--format", "svg")
    add("solve", "--input", "inst2.json", "--output", "inst2.json")
    add("solve", "--input", "inst2.json", "--output", "./inst2.json")
    add("verify", "--input", "seg2.json", "--instance", "seg2.json")
    add("verify", "--input", "seg2.json", "--instance", "inst2.json", "--output", "inst2.json")
    add("sweep", "--input", "sweep2.json", "--output", "sweep2.json")
    add("rationalize", "--input", "target.json", "--output", "target.json")
    add("oracle", "--input", "inst2.json", "--output", "inst2.json")
    for tol in ("0", "-1", "nan", "-inf", "0.0"):
        add("solve", "--input", "inst2.json", f"--tol={tol}")
    add("sweep", "--input", "sweep2.json", "--tol", "0")
    add("verify", "--input", "seg2.json", "--instance", "inst2.json", "--tol", "0")
    add("verify", "--input", "seg2.json", "--tol", "-1")
    for iters in ("0", "-5"):
        add("solve", "--input", "inst2.json", "--max-iters", iters)
        add("sweep", "--input", "sweep2.json", "--max-iters", iters)

    # several errors at once: the first in check order is reported
    add("sweep", "--input", "sweep2.json", "--output", "sweep2.json", "--format", "json",
        "--k-grid", "1:2", "--tol", "0", "--max-iters", "0")
    add("sweep", "--input", "sweep2.json", "--output", "sweep2.json", "--format", "json",
        "--k-grid", "0.1:10:5", "--tol", "0", "--max-iters", "0")
    add("sweep", "--input", "sweep2.json", "--output", "sweep2.json", "--format", "csv",
        "--k-grid", "0.1:10:5", "--tol", "0", "--max-iters", "0")
    add("sweep", "--input", "sweep2.json", "--format", "csv", "--k-grid", "0.1:10:5",
        "--tol", "0", "--max-iters", "0")
    add("sweep", "--input", "sweep2.json", "--format", "csv", "--k-grid", "", "--max-iters", "0")
    add("solve", "--input", "inst2.json", "--output", "inst2.json", "--format", "csv", "--tol", "0")
    add("solve", "--input", "inst2.json", "--output", "inst2.json", "--tol", "0", "--max-iters", "0")
    add("solve", "--input", "inst2.json", "--tol", "0", "--max-iters", "0")
    add("solve", "--input", "missing.json", "--tol", "0")
    add("solve", "--input", "missing.json", "--format", "svg")
    add("verify", "--input", "seg2.json", "--instance", "seg2.json", "--format", "csv", "--tol", "0")
    add("verify", "--input", "seg2.json", "--instance", "seg2.json", "--tol", "0")
    add("oracle", "--input", "inst2.json", "--output", "inst2.json", "--grid-n", "2")
    add("oracle", "--input", "missing.json", "--format", "csv", "--grid-n", "2")
    add("rationalize", "--input", "target.json", "--format", "svg", "--grid-n", "2")
    add("rationalize", "--input", "missing.json", "--grid-n", "2")

    # argparse's own errors
    add("frobnicate", "--input", "inst2.json")
    add("solve")
    add("solve", "--input", "inst2.json", "--tol", "abc")
    add("solve", "--input", "inst2.json", "--format", "xml")
    add("verify", "--input", "seg2.json", "--max-iters", "5")
    add("oracle", "--input", "inst2.json", "--k-grid", "1:2:3")
    for command in ("solve", "sweep", "verify", "rationalize", "oracle"):
        add(command, "--help")
    add("--help")
    return runs


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", required=True, help="directory holding the segmentix package")
    ap.add_argument("--work", required=True, help="directory for inputs and outputs")
    args = ap.parse_args()
    work = os.path.abspath(args.work)
    os.makedirs(work, exist_ok=True)
    for name, obj in INPUTS.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    for name, text in RAW_INPUTS.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    if os.path.exists(os.path.join(work, "missing.json")):
        os.remove(os.path.join(work, "missing.json"))

    # argparse wraps --help output to the terminal width
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src), COLUMNS="80")
    runs = invocations()
    for argv, out in runs:
        out_path = os.path.join(work, out) if out else None
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        proc = subprocess.run([sys.executable, "-m", "segmentix.cli", *argv], cwd=work, env=env, capture_output=True)
        written = None
        if out_path and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                written = fh.read()
        print(f"{shlex.join(argv)}\texit={proc.returncode}\tout={_digest(proc.stdout)}"
              f"\terr={_digest(proc.stderr)}\tfile={_digest(written)}", flush=True)
    print(f"# {len(runs)} invocations", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
