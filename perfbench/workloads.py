"""The benchmark's workloads: seeded inputs, the ops that use them, and
the checks every op's output must pass.

Each workload splits into ``generate(seed)``, which makes the inputs with
numpy alone and is what set-up time measures, and ``build(data)``, which
turns them into cycles of ops. An op's ``run`` is the timed part; its
``check`` runs afterwards, untimed, and returns (failure message or None,
artifact bytes). Ops reach segmentix through module attributes, so a
traced run sees them through the wrappers in ``tracing``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np

import gen
import pace

SWEEP_CSV_HEADER = "k,cs,ps_gross,info_cost,ps_net,ts_gross,ts_net,n_segments,prices"
SANDWICH_TOL = 1e-6  # oracle may not beat the solver by more than this
CERT_TOL = 1e-8
# sweeps start at this multiple of the top valuation: below k of about
# (w_K - w_1) / 700 the current closed form's tangency posteriors
# underflow and fail their own certificate, whatever the code's speed
K_LO = 0.01


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Context:
    """What ops share: paths, core count, and the recorder of a traced run."""

    def __init__(self, root: str, work: str, nproc: int):
        self.root = root
        self.work = work
        self.nproc = nproc
        self.recorder = None
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        self.env.pop("SEGMENTIX_THREADS", None)  # CLI sweeps stay serial whatever the caller set


def _entropy(p) -> float:
    return -math.fsum(x * math.log(x) for x in p if x > 0.0)


def net_value(seg: dict, vals, k: float) -> float:
    """Net objective of a serialized segmentation: revenue plus k times the
    entropy credit of each segment, minus k times the prior's entropy."""
    v = np.asarray(vals)
    total = 0.0
    for s in seg["segments"]:
        post = np.asarray(s["mu"])
        revenue = s["price"] * float(post[v >= s["price"] * (1.0 - 1e-12)].sum())
        total += s["weight"] * (revenue + k * _entropy(s["mu"]))
    return total - k * _entropy(seg["prior"])


def check_segmentation(seg: dict, vals, mu) -> str | None:
    """Structure and Bayes plausibility of a serialized segmentation."""
    if not np.allclose(seg["prior"], mu, rtol=0.0, atol=1e-12):
        return "prior differs from the instance"
    weights = np.array([s["weight"] for s in seg["segments"]])
    posts = np.array([s["mu"] for s in seg["segments"]])
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > 1e-9:
        return f"segment weights {weights.tolist()} are not a distribution"
    if np.max(np.abs(weights @ posts - np.asarray(mu))) > 1e-9:
        return "segments do not average back to the prior"
    if any(min(abs(s["price"] - x) for x in vals) > 1e-9 * max(vals) for s in seg["segments"]):
        return "a price is not a valuation"
    return None


def check_sweep_csv(text: str, n: int) -> str | None:
    lines = text.split("\n")
    if lines[0] != SWEEP_CSV_HEADER or lines[-1] != "" or len(lines) != n + 2:
        return f"sweep CSV has {len(lines) - 2} rows or a wrong header, expected {n} rows"
    ks = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 9 or "nan" in fields[:7] or int(fields[7]) < 1:
            return f"bad sweep row {line!r}"
        ks.append(float(fields[0]))
    if any(b <= a for a, b in zip(ks, ks[1:])):
        return "sweep rows are not increasing in k"
    return None


def check_table(table) -> str | None:
    bad = [r.k for r in table.rows if r.error is not None or not r.verify.passed]
    return f"{len(bad)} rows failed (first k={bad[0]!r})" if bad else None


def _inst(lib, vals, mu, k):
    return lib.market.MarketInstance(lib.market.Valuations(vals), lib.market.Market(mu), k)


def _lib():
    """The segmentix modules, imported only by the in-process workloads so
    that cli-oneshot's own process does not load the library."""
    import types

    from segmentix import market, oracle, rationalize, solver, sweeps

    return types.SimpleNamespace(market=market, oracle=oracle, rationalize=rationalize, solver=solver, sweeps=sweeps)


# ---------------------------------------------------------------- cli-oneshot


class CliOneshot:
    """Each op is a fresh ``python -m segmentix.cli`` process. A cycle runs
    solve, verify (on that solve's output), sweep, rationalize and oracle on
    one instance, alternating K=2 and K=3 instances between cycles."""

    name = "cli-oneshot"
    whole_cycles = True
    reference = pace.PROCESS
    n_cycles = 12
    sweep_points = 50

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        n = self.n_cycles
        # K=2 below k-bar is solved in closed form; K=3 sits above k-bar,
        # where the certificate accepts the unsegmented prior
        k2 = gen.instances(rng, 2, rng.uniform(0.2, 0.8, n))
        k3 = gen.instances(rng, 3, rng.uniform(1.2, 2.0, n))
        sweep_vals, sweep_mu = gen.markets(rng, n, 2)
        targets = gen.rationalization_targets(rng, n)
        data = []
        for c in range(n):
            vals, mu, k, _ = (k2 if c % 2 == 0 else k3)[c]
            d = os.path.join(self.ctx.work, f"c{c}")
            os.makedirs(d, exist_ok=True)
            files = {
                "instance": {"valuations": list(vals), "mu": list(mu), "k": k},
                "market": {"valuations": sweep_vals[c].tolist(), "mu": sweep_mu[c].tolist()},
                "target": targets[c],
            }
            for stem, obj in files.items():
                with open(os.path.join(d, stem + ".json"), "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            data.append((d, vals, mu, k, float(sweep_vals[c][-1])))
        return data

    def _cli(self, argv: list[str], out: str):
        def run():
            if os.path.exists(out):
                os.remove(out)
            rec = self.ctx.recorder
            if rec is None:
                cmd = [sys.executable, "-m", "segmentix.cli", *argv]
                proc = subprocess.run(cmd, cwd=self.ctx.root, env=self.ctx.env, capture_output=True)
                rc = proc.returncode
            else:
                spans_path = out + ".spans.json"
                cmd = [sys.executable, os.path.join(self.ctx.root, "perfbench", "cli_child.py"),
                       spans_path, json.dumps([argv])]
                proc = subprocess.run(cmd, cwd=self.ctx.root, env=self.ctx.env, capture_output=True)
                rc = proc.returncode
                if rc == 0:
                    with open(spans_path, encoding="utf-8") as fh:
                        traced = json.load(fh)
                    rec.merge(traced["spans"], rec.op)
                    rc = traced["codes"][0]
            if rc == 3:  # the CLI's exit code for solver non-convergence
                raise RuntimeError(f"exit 3: {proc.stderr.decode(errors='replace').strip()[-300:]}")
            return rc, proc.stderr

        return run

    @staticmethod
    def _read(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def build(self, data):
        return [self._cycle(*x) for x in data]

    def _cycle(self, d, vals, mu, k, top):
        p = {name: os.path.join(d, name) for name in
             ("instance.json", "market.json", "target.json", "seg.json", "verify.json",
              "sweep.csv", "cost.json", "oracle.json")}
        n = self.sweep_points
        state = {}  # the solver's net value, for the oracle sandwich

        def checked(rc_err, path, parse):
            rc, err = rc_err
            if rc != 0:
                return f"exit {rc}: {err.decode(errors='replace').strip()[-300:]}", b""
            raw = self._read(path)
            try:
                return parse(raw), raw
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                return f"output does not parse: {exc!r}", raw

        def check_solve(res):
            def parse(raw):
                seg = json.loads(raw)
                state["value"] = net_value(seg, vals, k)
                return check_segmentation(seg, vals, mu)

            state.pop("value", None)
            return checked(res, p["seg.json"], parse)

        def check_verify(res):
            def parse(raw):
                report = json.loads(raw)
                return None if report["passed"] is True else f"certificate failed: {report['failures']}"

            return checked(res, p["verify.json"], parse)

        def check_sweep(res):
            return checked(res, p["sweep.csv"], lambda raw: check_sweep_csv(raw.decode(), n))

        def check_rationalize(res):
            def parse(raw):
                cost = json.loads(raw)
                knots, quads = cost["knots"], cost["quadratics"]
                if knots[0] != 0.0 or knots[-1] != 1.0 or len(quads) != len(knots) - 1:
                    return "cost knots do not span [0, 1] piecewise"
                return None if all(q[0] > 0.0 for q in quads) else "cost is not strictly convex"

            return checked(res, p["cost.json"], parse)

        def check_oracle(res):
            def parse(raw):
                got = json.loads(raw)
                if "value" not in state:
                    return "no solver value to sandwich (solve failed)"
                v = state["value"]
                if got["value"] > v + SANDWICH_TOL or got["value"] < v - got["resolution_bound"]:
                    return f"oracle {got['value']!r} outside the sandwich around solver {v!r}"
                return None

            return checked(res, p["oracle.json"], parse)

        grid = f"{K_LO * top!r}:{10.0 * top!r}:{n}"
        return [
            Op("solve", self._cli(["solve", "--input", p["instance.json"], "--output", p["seg.json"]],
                                  p["seg.json"]), check_solve),
            Op("verify", self._cli(["verify", "--input", p["seg.json"], "--instance", p["instance.json"],
                                    "--output", p["verify.json"]], p["verify.json"]), check_verify),
            Op("sweep", self._cli(["sweep", "--input", p["market.json"], "--k-grid", grid,
                                   "--format", "csv", "--output", p["sweep.csv"]], p["sweep.csv"]), check_sweep),
            Op("rationalize", self._cli(["rationalize", "--input", p["target.json"], "--output", p["cost.json"]],
                                        p["cost.json"]), check_rationalize),
            Op("oracle", self._cli(["oracle", "--input", p["instance.json"], "--output", p["oracle.json"]],
                                   p["oracle.json"]), check_oracle),
        ]

    def warmup(self, cycles):
        return cycles[0][:1]


# ------------------------------------------------------------------ solve-tail


class SolveTail:
    """Each op is ``solve_ri`` then ``verify_optimality`` on an independent
    instance, K cycling through 2, 3 and 5 (K=2 forced through the
    iterative solver). Most instances have k = r * k-bar with r ~ U(0.05, 1.5);
    every twentieth cycle sits on a rung r in {0.999, 0.99, 0.9}, in turn."""

    name = "solve-tail"
    reference = pace.LOOP
    whole_cycles = False
    n_cycles = 600
    rungs = (0.999, 0.99, 0.9)

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        n = self.n_cycles
        ratios = rng.uniform(0.05, 1.5, n)
        rung = np.arange(n) % 20 == 19
        ratios[rung] = np.resize(self.rungs, int(rung.sum()))
        per_k = {K: gen.instances(rng, K, ratios) for K in (2, 3, 5)}
        warm = [x for K in (2, 3, 5) for x in gen.instances(rng, K, np.array([0.3, 1.2]))]
        return [[per_k[K][c] for K in (2, 3, 5)] for c in range(n)], warm

    def _op(self, lib, vals, mu, k, r):
        inst = _inst(lib, vals, mu, k)
        solver = lib.solver
        kind = f"K{len(vals)}"

        def run():
            seg = solver.solve_ri(inst)
            return seg, solver.verify_optimality(seg, inst.vals, inst.k, tol=CERT_TOL)

        def check(out):
            seg, report = out
            art = repr([(s.weight, s.market.weights, s.price_index) for s in seg.segments]).encode()
            return (None if report.passed else f"certificate failed at r={r!r}: {report.failures}"), art

        return Op(kind, run, check)

    def build(self, data):
        lib = _lib()
        cycles, warm = data
        self._warm = [self._op(lib, *x) for x in warm]
        return [[self._op(lib, *x) for x in cyc] for cyc in cycles]

    def warmup(self, cycles):
        return self._warm


# ----------------------------------------------------------------------- sweep


class Sweep:
    """Each op is one serial ``sweep_k`` plus ``to_csv`` of a seeded K=2
    market over 200 log-spaced k; the closed form makes the certificate and
    welfare accounting the work."""

    name = "sweep"
    reference = pace.LOOP
    whole_cycles = True
    n_cycles = 100
    per_cycle = 4

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        vals, mu = gen.markets(rng, self.n_cycles * self.per_cycle, 2)
        return [(tuple(map(float, v)), tuple(map(float, m))) for v, m in zip(vals, mu)]

    def build(self, data):
        lib = _lib()
        ops = [_sweep_op(lib, "K2", v, m, (K_LO * v[-1], 1e2 * v[-1], 200), 1, {}) for v, m in data]
        return [ops[c : c + self.per_cycle] for c in range(0, len(ops), self.per_cycle)]

    def warmup(self, cycles):
        return cycles[0][:1]


class SweepK3:
    """Each op is one ``sweep_k`` plus ``to_csv`` of the reference K=3 market
    over 400 log-spaced k; a cycle runs it once serial and twice on a pool
    of nproc workers, and every CSV must be byte-identical. Two pooled runs
    to one serial keep the median and the tail on the pooled path whatever
    the run length, so losing the pool shows in both."""

    name = "sweep-k3"
    reference = pace.LOOP
    whole_cycles = True
    # the three-type market of the CLI tests, the same for every seed: on
    # seeded K=3 markets a grid point lands next to a support change at
    # random, and a sweep then costs anywhere from 1 s to over 60 s and
    # holds SolverError rows with the current iterative solver
    vals, mu, grid = (1.0, 2.0, 3.0), (0.3, 0.4, 0.3), (0.01, 10.0, 400)

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self, seed: int):
        return None

    def build(self, data):
        lib = _lib()
        state = {}
        return [[_sweep_op(lib, kind, self.vals, self.mu, self.grid, workers, state)
                 for kind, workers in (("serial", 1), ("pool", self.ctx.nproc), ("pool", self.ctx.nproc))]]

    def warmup(self, cycles):
        return []


def _sweep_op(lib, kind, vals, mu, grid, workers, state):
    """``state`` holds the first CSV of ops that must agree byte for byte."""
    sweeps = lib.sweeps
    valuations, prior = lib.market.Valuations(vals), lib.market.Market(mu)
    spec = sweeps.KGridSpec(*grid)

    def run():
        table = sweeps.sweep_k(valuations, prior, spec, max_workers=workers)
        return table, sweeps.to_csv(table)

    def check(out):
        table, text = out
        err = check_table(table) or check_sweep_csv(text, spec.n)
        if state.setdefault("csv", text) != text:
            err = err or f"{kind} CSV differs from the first CSV of the run"
        return err, text.encode()

    return Op(kind, run, check)


# --------------------------------------------------------------------- inverse


class Inverse:
    """A cycle runs three rationalization round trips on seeded interior
    targets (grid_n 4000 twice, 8000 once) and two oracle sandwiches:
    ``solve`` then ``brute_force`` on a K=2 instance (grid 4000) and a K=3
    instance (grid 100). The second 4000 round trip puts the median inside
    one op kind instead of on the boundary between two. K=3 instances sit
    above k-bar so the solver's iteration stays out of a workload about the
    pair scans and the LP."""

    name = "inverse"
    reference = pace.ARRAYS
    whole_cycles = True
    n_cycles = 80

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def generate(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        n = self.n_cycles
        return (gen.rationalization_targets(rng, 3 * n),
                gen.instances(rng, 2, rng.uniform(0.1, 1.5, n)),
                gen.instances(rng, 3, rng.uniform(1.2, 2.0, n)))

    @staticmethod
    def _round_trip(lib, t, grid_n):
        rz = lib.rationalize
        target = rz.RationalizationTarget(cs=t["cs"], ps=t["ps"], vals=lib.market.Valuations(t["valuations"]),
                                          mu_star=lib.market.Market(t["mu"]))

        def run():
            seg = rz.induced_segments(target)
            cost = rz.construct_cost(seg.mu1, seg.mu2, seg.tau1, target.vals, target.mu_star)
            return cost, rz.verify_rationalization(cost, target, grid_n=grid_n)

        def check(out):
            cost, report = out
            art = repr((cost.knots, cost.quadratics)).encode()
            return (None if report.passed else "; ".join(report.messages)), art

        return Op(f"rationalize-{grid_n}", run, check)

    @staticmethod
    def _sandwich(lib, x, grid_n):
        vals, mu, k, _ = x
        inst = _inst(lib, vals, mu, k)

        def run():
            seg = lib.solver.solve(inst)
            return lib.market.net_objective(seg, inst.vals, inst.k), lib.oracle.brute_force(inst, grid_n=grid_n)

        def check(out):
            value, got = out
            err = None
            if got.value > value + SANDWICH_TOL or got.value < value - got.resolution_bound:
                err = f"oracle {got.value!r} outside the sandwich around solver {value!r}"
            return err, repr((value, got.value, got.grid_value)).encode()

        return Op(f"sandwich-K{len(vals)}", run, check)

    def build(self, data):
        lib = _lib()
        targets, k2, k3 = data
        return [
            [self._round_trip(lib, targets[3 * c], 4000), self._round_trip(lib, targets[3 * c + 1], 8000),
             self._sandwich(lib, k2[c], 4000), self._round_trip(lib, targets[3 * c + 2], 4000),
             self._sandwich(lib, k3[c], 100)]
            for c in range(self.n_cycles)
        ]

    def warmup(self, cycles):
        return cycles[0]


WORKLOADS = {w.name: w for w in (CliOneshot, SolveTail, Sweep, SweepK3, Inverse)}
