#!/usr/bin/env python3
"""segmentix benchmark: end-to-end figures per workload, and per-layer
figures from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S          # every workload, both modes

Run from the root of a source checkout; segmentix is loaded from ./src.
Workloads: cli-oneshot, sweep, inverse, sweep-k3 and solve-tail. Each is
a closed loop with one client; see workloads.py for what an op is and how
its output is checked. The inputs come from --seed alone. The last two are
left out of BENCHMARK.json. In solve-tail a few solves that never converge
(3-5 s each, 1-3 % of draws with the current solver) take most of the
time, so its throughput and tail swing by more than any bound from one
seed to the next.
sweep-k3 fits only 12-18 ops of 1.3-2 s, on both cores, into a 25 s run
(a run goes on to MIN_OPS), and its figures spread by close to the largest
bound allowed.

With --trace 0 the run prints, per workload, setup_s, op_p50_s,
op_tail_s, ops_per_s, fail_frac and peak_rss_mb; fail_frac reaches the
last line as ``failed`` / ``attempted``. op_p50_s, op_tail_s and ops_per_s
are op times adjusted for the host's speed, read from reference work run
after every op (pace.py), and so is setup_s; the wall-time figures are
printed beside them. With --trace 1 it runs ops
untraced for half the time, replays exactly those ops under span wrappers
(the ratio of the two is trace.overhead_frac), probes the import and every
layer once more, and prints the per-layer figures. Each run writes its
full record (versions, nproc, commit, artifact SHA-256, every failure) to
perfbench/out/, and a traced run also its spans. The last line of
standard output is one JSON object for the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gen
import pace
import tracing
from workloads import K_LO, WORKLOADS, Context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = 5
SETUP_REF_REPS = 2
IMPORT_REPS = 3
# an untraced run goes on past its time until it has this many ops, so
# that its tail (tracing.tail) always has ten ops beyond the median at least
MIN_OPS = 20
IMPORT_SNIPPET = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); import segmentix; "
    "print(time.perf_counter() - t, len(sys.modules) - n)"
)


def run_ops(stream, seconds: float, workload, ctx, min_ops: int = 0):
    """Closed loop over ``stream`` until ``seconds`` of wall time pass and
    ``min_ops`` ops are done, at a cycle boundary when the workload runs whole
    cycles. Each op is followed
    by the workload's reference work, which reads the host's speed (see
    pace.py). Returns per-op records
    (kind, wall seconds, raised, wrong, adjusted seconds), the ops run, and
    the SHA-256 of cycle 0's artifacts."""
    records, executed, refs = [], [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    for cycle, last, op in stream:
        if ctx.recorder is not None:
            ctx.recorder.op = len(records)
        raised = wrong = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a counted failure, not the end of the run
            raised = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        refs.append(workload.reference.after_op(dt))
        art = b"raised"
        if raised is None:
            wrong, art = op.check(out)
        if cycle == 0:
            digest.update(op.kind.encode() + b"\0" + art + b"\0")
        records.append((op.kind, dt, raised, wrong))
        executed.append(op)
        if (time.perf_counter() - start >= seconds and len(records) >= min_ops
                and (last or not workload.whole_cycles)):
            break
    adjusted = workload.reference.adjust([r[1] for r in records], refs)
    return [(*r, a) for r, a in zip(records, adjusted)], executed, digest.hexdigest()


def cycle_stream(cycles):
    c = 0
    while True:
        cyc = cycles[c % len(cycles)]
        for i, op in enumerate(cyc):
            yield c, i == len(cyc) - 1, op
        c += 1


def timed_setup(workload, seed: int, env: dict):
    """Set-up time: a fresh-interpreter ``import segmentix`` plus generating
    the inputs, SETUP_REPS times. It is mostly a process start and imports,
    so each rep is adjusted for the host's speed by the process reference
    (pace.py): one reading before the first rep and one after every rep, so
    that each rep lies between two. Returns (median adjusted seconds,
    median wall seconds, inputs)."""
    ref = pace.PROCESS
    wall, adjusted = [], []
    before = ref.sample(SETUP_REF_REPS)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import segmentix"], cwd=ROOT, env=env, check=True)
        data = workload.generate(seed)
        dt = time.perf_counter() - t0
        after = ref.sample(SETUP_REF_REPS)
        wall.append(dt)
        adjusted.append(dt * ref.nominal_s / statistics.median([before, after]))
        before = after
    return statistics.median(adjusted), statistics.median(wall), data


def peak_rss_mb() -> float:
    """This process's peak resident set plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def import_probe(env: dict) -> dict:
    """import.* figures from fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, check=True).stdout.split()
        runs.append((float(out[0]), int(out[1])))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import segmentix"], cwd=ROOT, env=env,
                          capture_output=True, check=True)
    scipy_optimize = 0.0  # not imported at all
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            scipy_optimize = int(parts[1]) / 1e6
    return {
        "import.segmentix_s": (statistics.median(r[0] for r in runs), "s"),
        "import.scipy_optimize_s": (scipy_optimize, "s"),
        "import.modules_n": (runs[0][1], "count"),
    }


def layer_probe(ctx, seed: int) -> None:
    """Reach every layer once more under the recorder: ``cli.main`` for all
    five subcommands in one fresh process, then ``solve_ri`` on one instance
    per K and k/k-bar class, and a small pooled sweep. Every traced run does
    this, so each per-layer figure exists for every workload."""
    import segmentix.solver as solver
    import segmentix.sweeps as sweeps
    from segmentix.market import Market, MarketInstance, Valuations

    rng = np.random.default_rng([seed, 9])
    d = os.path.join(ctx.work, "probe")
    os.makedirs(d, exist_ok=True)
    vals, mu, k, _ = gen.instances(rng, 2, np.array([0.5]))[0]
    inputs = {
        "instance.json": {"valuations": list(vals), "mu": list(mu), "k": k},
        "target.json": gen.rationalization_targets(rng, 1)[0],
    }
    for name, obj in inputs.items():
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    inst, seg, target = (os.path.join(d, n) for n in ("instance.json", "seg.json", "target.json"))
    calls = [
        ["solve", "--input", inst, "--output", seg],
        ["verify", "--input", seg, "--instance", inst, "--output", os.path.join(d, "verify.json")],
        ["sweep", "--input", inst, "--k-grid", f"{K_LO * vals[-1]!r}:{10 * vals[-1]!r}:50", "--format", "csv",
         "--output", os.path.join(d, "sweep.csv")],
        ["rationalize", "--input", target, "--output", os.path.join(d, "cost.json")],
        ["oracle", "--input", inst, "--output", os.path.join(d, "oracle.json")],
    ]
    spans_path = os.path.join(d, "spans.json")
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "cli_child.py"), spans_path, json.dumps(calls)],
                   cwd=ROOT, env=ctx.env, check=True, capture_output=True)
    with open(spans_path, encoding="utf-8") as fh:
        ctx.recorder.merge(json.load(fh)["spans"], "probe-cli")

    ctx.recorder.op = "probe-solver"
    restore = ctx.recorder.install()
    try:
        for K in (2, 3, 5):
            for v, m, kk, _ in gen.instances(rng, K, np.array([0.5, 0.95, 0.995, 1.2])):
                try:
                    solver.solve_ri(MarketInstance(Valuations(v), Market(m), kk))
                except solver.SolverError:
                    pass  # counted as fail_n by the span
        sweeps.sweep_k(Valuations(vals), Market(mu), sweeps.KGridSpec(K_LO * vals[-1], 10.0 * vals[-1], 40), max_workers=ctx.nproc)
    finally:
        restore()


def run_record(args, ctx) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True)
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "segmentix")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": ctx.nproc,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git.stdout.decode().strip() if git.returncode == 0 else None,
        "src_sha256": src.hexdigest(),
    }


def timing(times: list[float]) -> dict:
    value, pct, beyond = tracing.tail(times)
    return {"op_p50_s": statistics.median(times), "op_tail_s": value, "tail_percentile": pct,
            "tail_beyond": beyond, "ops_per_s": len(times) / sum(times)}


def summarize(records) -> dict:
    """Timing figures from the adjusted op times, wall-time figures under
    ``wall``, and the failures."""
    by_kind = {}
    for kind, dt, raised, wrong, adj in records:
        k = by_kind.setdefault(kind, {"n": 0, "failed": 0, "times": [], "wall": []})
        k["n"] += 1
        k["failed"] += bool(raised or wrong)
        k["times"].append(adj)
        k["wall"].append(dt)
    return {
        **timing([r[4] for r in records]),
        "wall": timing([r[1] for r in records]),
        "ops": len(records),
        "failed": sum(1 for r in records if r[2] or r[3]),
        "wrong": sum(1 for r in records if r[3]),
        "kinds": {k: {"n": v["n"], "failed": v["failed"], "p50_s": statistics.median(v["times"]),
                      "wall_p50_s": statistics.median(v["wall"])}
                  for k, v in sorted(by_kind.items())},
        "failures": [f"{r[0]}: {r[2] or r[3]}" for r in records if r[2] or r[3]][:50],
    }


def run_one(args) -> int:
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    ctx = Context(ROOT, work, max(2, len(os.sched_getaffinity(0))))
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ctx)
        setup_s, setup_wall_s, data = timed_setup(workload, args.seed, ctx.env)
        cycles = workload.build(data)
        for op in workload.warmup(cycles):
            try:
                op.check(op.run())
            except Exception:  # warm-up only; the timed ops count failures
                pass
        workload.reference.sample(2)
        stream = cycle_stream(cycles)
        record = run_record(args, ctx)
        if not args.trace:
            records, _, digest = run_ops(stream, args.seconds, workload, ctx, MIN_OPS)
            s = summarize(records)
            metrics = {"setup_s": (setup_s, "s"), "op_p50_s": (s["op_p50_s"], "s"),
                       "op_tail_s": (s["op_tail_s"], "s"), "ops_per_s": (s["ops_per_s"], "1/s"),
                       "peak_rss_mb": (peak_rss_mb(), "MB")}
        else:
            plain, executed, digest = run_ops(stream, args.seconds / 2.0, workload, ctx)
            rec = tracing.Recorder()
            ctx.recorder = rec
            restore = rec.install()
            try:
                replay = ((0, True, op) for op in executed)
                traced, _, _ = run_ops(replay, math.inf, workload, ctx)
            finally:
                restore()
            layer_probe(ctx, args.seed)
            metrics = import_probe(ctx.env)
            metrics.update(tracing.layer_metrics(rec.spans))
            metrics["trace.overhead_frac"] = (sum(r[4] for r in traced) / sum(r[4] for r in plain) - 1.0, "frac")
            records = plain + traced
            s = summarize(records)
            rec.dump(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
        if bad:
            print(f"error: no measurement for {bad}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {record['nproc']}  "
          f"ops {s['ops']}  artifacts sha256 {digest[:16]}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{s['tail_percentile']:.1f}, {s['tail_beyond']} of {s['ops']} ops beyond)"
        print(f"  {name:<44} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<44} {s['failed'] / s['ops']:.6g} ratio  ({s['failed']} of {s['ops']} ops failed)")
    if not args.trace:
        w = s["wall"]
        print(f"  wall time, not adjusted for the host's speed: setup_s {setup_wall_s:.6g} s  "
              f"op_p50_s {w['op_p50_s']:.6g} s  op_tail_s {w['op_tail_s']:.6g} s  ops_per_s {w['ops_per_s']:.6g} 1/s")
    for kind, k in s["kinds"].items():
        print(f"    op {kind:<16} n {k['n']:<5} failed {k['failed']:<4} p50 {k['p50_s']:.6g} s  "
              f"wall p50 {k['wall_p50_s']:.6g} s")
    for line in s["failures"][:5]:
        print(f"    failure: {line[:200]}")

    result = {
        "correct": s["wrong"] == 0,
        "attempted": s["ops"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "record": record, "summary": s, "fail_frac": s["failed"] / s["ops"],
                   "reference": [workload.reference.name, workload.reference.nominal_s],
                   "setup_wall_s": setup_wall_s,
                   "artifacts_sha256": digest}, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            if not trace:
                for k, v in res["metrics"].items():
                    combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "segmentix", "__init__.py")):
        print(f"error: no segmentix source under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
