"""Exhaustive-search oracle tests (pair grid and simplex LP)."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from segmentix import (
    Market,
    MarketInstance,
    ValidationError,
    Valuations,
    brute_force,
    brute_force_binary,
    brute_force_small,
    net_objective,
    segmentation_threshold,
    solve_binary,
    solve_ri,
    tangency_posteriors,
    welfare,
)
from segmentix import oracle
from segmentix.market import binary_entropy, entropy

ROOT = Path(__file__).resolve().parents[1]
V12 = Valuations((1.0, 2.0))
V123 = Valuations((1.0, 2.0, 3.0))
MU46 = Market((0.4, 0.6))


def test_binary_oracle_worked_instance():
    inst = MarketInstance(V12, MU46, 0.8)
    res = brute_force_binary(inst, grid_n=2000)
    assert res.method == "binary_grid"
    assert res.value == pytest.approx(1.2631339314688932, abs=1e-9)
    lo, hi = tangency_posteriors(V12, 0.8)
    seg_lo, seg_hi = res.segmentation.segments
    assert seg_lo.market[1] == pytest.approx(lo, abs=1.0 / 2000)
    assert seg_hi.market[1] == pytest.approx(hi, abs=1.0 / 2000)


def test_binary_oracle_expensive_information_prefers_pooling():
    res = brute_force_binary(MarketInstance(V12, MU46, 5.0), grid_n=1000)
    assert len(res.segmentation.segments) == 1
    assert res.value == pytest.approx(1.2, abs=1e-12)


def test_binary_oracle_zero_cost_full_discrimination():
    res = brute_force_binary(MarketInstance(V12, MU46, 0.0), grid_n=1000)
    assert res.value == pytest.approx(1.6, abs=1e-9)


def test_binary_oracle_sandwiches_solver():
    for share, k in ((0.3, 0.2), (0.6, 0.8), (0.8, 1.5), (0.45, 0.05)):
        mu = Market((1.0 - share, share))
        inst = MarketInstance(V12, mu, k)
        solver_value = net_objective(solve_binary(inst), V12, k)
        res = brute_force_binary(inst, grid_n=1500)
        assert res.value <= solver_value + 1e-6
        assert res.value >= solver_value - res.resolution_bound
        assert res.grid_value <= res.value + 1e-12


def test_pair_scan_matches_exhaustive_scan(exhaustive_pair_scan):
    rng = np.random.default_rng(20261020)
    cases = 0
    for grid_n in (4, 5, 7, 100, 999, 4000):
        x, tails, H = oracle._pair_grid(grid_n)
        shares = [0.5, 0.25, 3 / grid_n, 0.0, 1.0, float(np.nextafter(x[1], 1.0))]
        shares += [float(s) for s in rng.uniform(0.01, 0.99, size=4)]
        for n, share in enumerate(shares):
            w1 = float(rng.uniform(0.5, 3.0))
            vals = Valuations((w1, w1 * float(rng.uniform(1.1, 8.0))))
            mu = Market((1.0 - share, share))
            kbar = segmentation_threshold(vals, mu)
            kbar = kbar if 0.0 < kbar < math.inf else vals[1]
            k = 0.0 if n % 5 == 0 else kbar * 10.0 ** float(rng.uniform(-4.0, 4.0))
            g = oracle._net_value_points(vals.as_array(), k, tails, H)
            value, pair = oracle.pair_scan(x, g, mu[1])
            ref_value, ref_pair = exhaustive_pair_scan(x, g, mu[1])
            assert (pair is None) == (ref_pair is None) == (share in (0.0, 1.0)), (grid_n, share)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes(), (grid_n, share, k)
            if pair is not None:
                assert np.array(pair).tobytes() == np.array(ref_pair).tobytes(), (grid_n, share, k)
            cases += 1
    assert cases == 60


class _CountedArray(np.ndarray):
    """An array that counts the ``argmax`` and ``argmin`` calls on the 1-D arrays made from it.

    In ``pair_scan`` those are the tangent searches and the two nearest
    points; the blocks' pair values are 2-D.
    """

    searches = 0

    def argmax(self, *args, **kwargs):
        _CountedArray.searches += self.ndim == 1
        return super().argmax(*args, **kwargs)

    def argmin(self, *args, **kwargs):
        _CountedArray.searches += self.ndim == 1
        return super().argmin(*args, **kwargs)


def test_pair_scan_stops_on_flat_curves(exhaustive_pair_scan):
    # float ties everywhere: the oracle's curve at k = 0 with the prior at
    # the kink (flat at w1 to its left), and a constant curve. The tangent
    # search stops once an end repeats, far short of its 64 rounds (128
    # searches): at a repeated j it skips the search for the i it came from,
    # so three searches at most here, and the two nearest points take two more.
    for grid_n in (4, 5, 40, 4000):
        x, tails, H = oracle._pair_grid(grid_n)
        for w1, w2 in ((1.0, 2.0), (1.0, 3.0), (0.7, 2.9)):
            kinked = oracle._net_value_points(np.array([w1, w2]), 0.0, tails, H)
            for g, mu in ((kinked, w1 / w2), (np.full(grid_n + 1, w1), w1 / w2), (np.full(grid_n + 1, -w2), 0.5)):
                _CountedArray.searches = 0
                value, pair = oracle.pair_scan(x.view(_CountedArray), np.array(g).view(_CountedArray), mu)
                assert _CountedArray.searches <= 5, (grid_n, w1, w2, mu)
                ref_value, ref_pair = exhaustive_pair_scan(x, np.array(g), mu)
                assert np.float64(value).tobytes() == np.float64(ref_value).tobytes(), (grid_n, w1, w2, mu)
                assert np.array(pair).tobytes() == np.array(ref_pair).tobytes(), (grid_n, w1, w2, mu)


def test_binary_oracle_at_a_degenerate_prior_pools():
    for share in (0.0, 1.0):
        res = brute_force_binary(MarketInstance(V12, Market((1.0 - share, share)), 0.5), grid_n=100)
        assert len(res.segmentation.segments) == 1
        assert res.value == 1.0 + share


def test_pair_scan_is_not_quadratic_in_the_grid():
    # all ~1e10 pairs of this grid would take minutes to score
    inst = MarketInstance(Valuations((1.0, 2.5)), Market((0.55, 0.45)), 0.4)
    value = net_objective(solve_binary(inst), inst.vals, inst.k)
    res = brute_force(inst, grid_n=200_000)
    assert res.method == "binary_grid" and len(res.segmentation.segments) == 2
    assert value - res.resolution_bound <= res.value <= value + 1e-6
    assert res.grid_value >= value - res.resolution_bound


def test_binary_oracle_output_is_well_formed():
    res = brute_force_binary(MarketInstance(V12, MU46, 0.4), grid_n=800)
    assert res.segmentation.bayes_residual < 1e-9
    welfare(res.segmentation, V12, 0.4)  # raises if prices are not optimal


def test_simplex_oracle_agrees_with_iterative_solver():
    inst = MarketInstance(V123, Market((1 / 3, 1 / 3, 1 / 3)), 0.5)
    solver_value = net_objective(solve_ri(inst), V123, 0.5)
    res = brute_force_small(inst, grid_n=60)
    assert res.method == "simplex_lp"
    assert res.value == pytest.approx(solver_value, abs=1e-3)
    assert res.value <= solver_value + 1e-6


def test_simplex_oracle_degenerate_prior_zero_cost():
    inst = MarketInstance(V123, Market((0.0, 0.0, 1.0)), 0.0)
    res = brute_force_small(inst, grid_n=40)
    assert res.value == pytest.approx(3.0, abs=1e-9)


def test_simplex_oracle_heavy_cost_pools():
    inst = MarketInstance(V123, Market((0.2, 0.3, 0.5)), 100.0)
    res = brute_force_small(inst, grid_n=40)
    assert len(res.segmentation.segments) == 1
    # uniform revenue: prices earn (1.0, 1.6, 1.5); the middle price wins
    assert res.value == pytest.approx(1.6, abs=1e-9)


def test_dispatcher_selects_by_type_count():
    assert brute_force(MarketInstance(V12, MU46, 0.8), grid_n=500).method == "binary_grid"
    inst3 = MarketInstance(V123, Market((0.2, 0.3, 0.5)), 0.8)
    assert brute_force(inst3, grid_n=30).method == "simplex_lp"
    with pytest.raises(ValidationError) as err:
        brute_force(MarketInstance(Valuations((1, 2, 3, 4)), Market((0.25,) * 4), 0.5))
    assert err.value.invariant == "oracle_size"


def test_dispatcher_rejects_a_zero_grid():
    for inst in (MarketInstance(V12, MU46, 0.8), MarketInstance(V123, Market((0.2, 0.3, 0.5)), 0.8)):
        with pytest.raises(ValidationError) as err:
            brute_force(inst, grid_n=0)
        assert err.value.invariant == "grid_size"


def test_refine_improves_on_grid():
    inst = MarketInstance(V12, MU46, 0.8)
    result = brute_force_binary(inst, grid_n=200)
    assert result.value >= result.grid_value - 1e-15
    assert result.value == pytest.approx(1.2631339314688932, abs=1e-7)


def test_cached_grid_arrays_are_read_only():
    from segmentix import rationalize

    for arrays in (oracle._pair_grid(100), oracle._simplex_grid(20), (rationalize._verify_grid(2000),)):
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.5


def test_oracle_results_do_not_depend_on_the_grid_cache():
    a2 = MarketInstance(V12, MU46, 0.8)
    b2 = MarketInstance(Valuations((1.0, 3.0)), Market((0.7, 0.3)), 0.3)
    a3 = MarketInstance(V123, Market((0.3, 0.4, 0.3)), 0.5)
    b3 = MarketInstance(V123, Market((0.2, 0.3, 0.5)), 1.0)
    for a, b, grid_n in ((a2, b2, 1000), (a3, b3, 40)):
        first = [repr(brute_force(inst, grid_n=grid_n)) for inst in (a, b, a)]
        assert first[0] == first[2]
        oracle._pair_grid.cache_clear()
        oracle._simplex_grid.cache_clear()
        assert [repr(brute_force(inst, grid_n=grid_n)) for inst in (a, b)] == first[:2]


# float.hex pins of four results, taken with numpy 2.4 on x86-64 with
# AVX-512. Their last bits follow numpy's SIMD log and libm's log, which
# differ on about 0.4 % of draws there; on a host whose logs round
# otherwise they can move with correct code. scripts/oracle_fingerprint.py,
# run on two source trees on one host, is the comparison that holds anywhere.
@pytest.mark.parametrize("inst,grid_n,segments,value,grid_value", [
    # column generation moves the grid pair
    (MarketInstance(V12, MU46, 0.8), 4000, 2, "0x1.435cbece20760p+0", "0x1.435cbeb5744eep+0"),
    # column generation from a two-atom and a three-atom grid optimum
    (MarketInstance(V123, Market((0.2, 0.3, 0.5)), 1.0), 100, 2, "0x1.bd7df745e9bd4p+0", "0x1.bd7c7db2751f8p+0"),
    (MarketInstance(V123, Market((0.3, 0.4, 0.3)), 0.5), 100, 3, "0x1.8cccdbaadc272p+0", "0x1.8cc23efdb2900p+0"),
    # above k-bar (1.4427): the one-atom certificate holds
    (MarketInstance(V123, Market((0.3, 0.4, 0.3)), 3.0), 100, 1, "0x1.6666666666664p+0", "0x1.6666666666664p+0"),
])
def test_oracle_values_keep_their_bits(inst, grid_n, segments, value, grid_value):
    res = brute_force(inst, grid_n=grid_n)
    assert (res.value.hex(), res.grid_value.hex()) == (value, grid_value)
    assert len(res.segmentation.segments) == segments


# -------------------- certified bounds --------------------

def _fingerprint_inputs(seeds=3):
    """(K, grid_n, ratio, instance) for each input of scripts/oracle_fingerprint.py at ``seeds`` seeds (its default 3)."""
    spec = importlib.util.spec_from_file_location("oracle_fingerprint", ROOT / "scripts" / "oracle_fingerprint.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return [(K, grid_n, ratio, MarketInstance(Valuations(vals), Market(mu), k))
            for K, grid_n, seed, ratio, vals, mu, k in script.inputs(seeds)]


def _criterion_04_draws():
    """The 50 two-type instances of acceptance criterion 4, drawn the same way."""
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        w1 = float(rng.uniform(0.5, 3.0))
        w2 = w1 * float(rng.uniform(1.1, 8.0))
        m2 = float(rng.uniform(0.05, 0.95))
        k = float(rng.uniform(0.02, 5.0)) * w1
        yield MarketInstance(Valuations((w1, w2)), Market((1.0 - m2, m2)), k)


def _inverse_inputs(seed, K):
    """The benchmark's ``inverse`` sandwich instances with K = 2 or 3 types for one seed."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [MarketInstance(Valuations(vals), Market(mu), k)
            for vals, mu, k, _ in workloads.Inverse(None).generate(seed)[K - 1]]


def _rounding_scale(res, inst):
    # the stop tolerance is 32 ulp of max(w2, k, |V|, |s|), V the value
    # before the prior's entropy credit and s the line's slope; on these
    # inputs |s| is within a few times the rest
    w2, k = inst.vals[-1], inst.k
    return 128 * math.ulp(max(w2, k, abs(res.value + k * binary_entropy(inst.mu_star[1]))))


@pytest.mark.parametrize("grid_n", [4, 100, 4000])
def test_binary_oracle_is_certified_against_the_solver(grid_n):
    cases = list(_criterion_04_draws()) + [inst for seed in (1, 2, 3) for inst in _inverse_inputs(seed, 2)]
    assert len(cases) == 290
    for inst in cases:
        seg = solve_binary(inst)
        value = net_objective(seg, inst.vals, inst.k)
        res = brute_force_binary(inst, grid_n=grid_n)
        assert res.value - 1e-9 <= value <= res.upper + 1e-9, inst
        assert 0.0 <= res.upper - res.value <= _rounding_scale(res, inst), inst
        assert len(res.segmentation.segments) == len(seg.segments), inst


def test_binary_oracle_reports_one_segment_above_k_bar():
    # the one-atom certificate: above k-bar no pair beats staying put, and the
    # result says so even where a pair ties it to rounding
    rng = np.random.default_rng(20261024)
    cases = []
    for _ in range(400):
        w1 = float(rng.uniform(0.5, 3.0))
        vals = Valuations((w1, w1 * float(rng.uniform(1.1, 8.0))))
        m2 = float(rng.uniform(0.05, 0.95))
        mu = Market((1.0 - m2, m2))
        cases.append((4000, MarketInstance(vals, mu, (3.0 - float(rng.uniform(0.0, 2.0))) * segmentation_threshold(vals, mu))))
    cases += [(grid_n, inst) for K, grid_n, ratio, inst in _fingerprint_inputs() if K == 2 and ratio > 1.0]
    assert len(cases) == 424
    for grid_n, inst in cases:
        res = brute_force_binary(inst, grid_n=grid_n)
        assert len(res.segmentation.segments) == 1, (grid_n, inst)
        assert 0.0 <= res.upper - res.value <= _rounding_scale(res, inst), (grid_n, inst)


def test_binary_oracle_bounds_at_the_edges():
    # k = 0 prices the ends of [0, 1]; a prior on the kink w2 mu = w1 or at a
    # degenerate share has no one-atom certificate to run
    for inst, value in ((MarketInstance(V12, MU46, 0.0), 1.6), (MarketInstance(V12, Market((0.5, 0.5)), 0.0), 1.5),
                        (MarketInstance(V12, Market((1.0, 0.0)), 0.5), 1.0),
                        (MarketInstance(V12, Market((0.0, 1.0)), 0.5), 2.0)):
        res = brute_force_binary(inst, grid_n=100)
        assert res.value == pytest.approx(value, abs=1e-12)
        assert res.upper == res.value
    inst = MarketInstance(V12, Market((0.5, 0.5)), 0.3)
    seg = solve_binary(inst)
    res = brute_force_binary(inst, grid_n=100)
    assert res.value - 1e-12 <= net_objective(seg, V12, 0.3) <= res.upper + 1e-12
    assert len(res.segmentation.segments) == len(seg.segments) == 2
    assert (oracle._logistic(-1000.0), oracle._logistic(0.0), oracle._logistic(1000.0)) == (1.0, 0.5, 0.0)


def test_binary_oracle_bound_holds_when_rounds_run_out(monkeypatch):
    # one round from a four-point grid leaves the value short of the optimum;
    # upper still bounds it
    monkeypatch.setattr(oracle, "_CG_ROUNDS", 1)
    widths = []
    for inst in _criterion_04_draws():
        value = net_objective(solve_binary(inst), inst.vals, inst.k)
        res = brute_force_binary(inst, grid_n=4)
        assert res.value - 1e-9 <= value <= res.upper + 1e-9, inst
        widths.append(res.upper - res.value)
    assert max(widths) > 1e-6


def test_binary_column_generation_takes_few_rounds(monkeypatch):
    # two draws just below k-bar where the best pair ties a better one to
    # rounding; a line through the best pair stays tilted there until the cap
    priced = []
    logistic = oracle._logistic
    monkeypatch.setattr(oracle, "_logistic", lambda z: priced.append(z) or logistic(z))
    cases = list(_criterion_04_draws()) + _inverse_inputs(1, 2) + [
        MarketInstance(Valuations((2.336420917609065, 10.49734008487171)),
                       Market((0.07662567420719002, 0.92337432579281)), 0.9083552405620476),
        MarketInstance(Valuations((0.8048566092958069, 2.5593500919054195)),
                       Market((0.6712883400510292, 0.3287116599489708)), 19.473754077543816),
    ]
    rounds = []
    for inst in cases:
        priced.clear()
        brute_force_binary(inst, grid_n=4000)
        rounds.append(len(priced) // 2)  # two tangent points a round, the certificate's included
    assert max(rounds) <= 5, rounds


def test_dual_bound_is_the_greatest_rise_of_a_price_piece():
    # against the best of a fine simplex grid, for seeded planes y, on the
    # face of mu's support; each rising piece peaks where it rises most
    m = 300
    r = np.arange(m + 1)
    i, j = np.nonzero(np.add.outer(r, r) <= m)
    P = np.column_stack([i, j, m - i - j]) / m
    with np.errstate(divide="ignore", invalid="ignore"):
        H = -np.where(P > 0.0, P * np.log(P), 0.0).sum(axis=1)
    tails = np.cumsum(P[:, ::-1], axis=1)[:, ::-1]
    rng = np.random.default_rng(20261025)
    for n in range(30):
        vals = np.sort(rng.uniform(0.5, 5.0, size=3))
        k = 0.0 if n % 5 == 0 else float(rng.uniform(0.05, 3.0))
        y = rng.uniform(0.0, 5.0, size=3)
        mu = rng.dirichlet((2.0, 2.0, 2.0))
        if n % 3 == 2:
            mu[0] = 0.0  # on the face p_0 = 0
            mu /= mu.sum()
        on_face = P[:, 0] == 0.0 if n % 3 == 2 else np.ones(len(P), dtype=bool)
        rises = ((tails * vals).max(axis=1) + k * H - P @ y)[on_face]
        rise, peaks = oracle._gibbs_rise(tuple(vals), k, y.tolist(), mu)
        assert float(np.max(rises)) - 1e-12 <= rise <= float(np.max(rises)) + 2e-3 * max(1.0, k), (n, k)
        assert bool(peaks) == (rise > 0.0), (n, k)
        if peaks:
            X = np.array(peaks)
            assert np.all(np.abs(X.sum(axis=1) - 1.0) <= 1e-15) and np.all(X[:, mu == 0.0] == 0.0), (n, k)
            peak_rises = oracle._net_value_points(vals, k, *oracle._grid_terms(X)) - X @ y
            assert abs(float(np.max(peak_rises)) - rise) <= 1e-12, (n, k)


def _certified_width(res, inst):
    # column generation stops once U - L <= 1e-11 max(1, |L|), L the value
    # before the prior's entropy credit; the credit's subtraction adds rounding
    gross = abs(res.value) + inst.k * entropy(inst.mu_star)
    return 1e-11 * max(1.0, gross) + 8 * math.ulp(gross)


def test_simplex_oracle_upper_bounds_its_value():
    # the certified width: the solver's value lies between value and upper,
    # and the segment counts agree
    cases = [(grid_n, inst) for K, grid_n, ratio, inst in _fingerprint_inputs() if K == 3]
    assert len(cases) == 60
    for grid_n, inst in cases:
        res = brute_force_small(inst, grid_n=grid_n)
        seg = solve_ri(inst)
        value = net_objective(seg, inst.vals, inst.k)
        assert 0.0 <= res.upper - res.value <= _certified_width(res, inst), (grid_n, inst)
        assert res.value - 1e-9 <= value <= res.upper + 1e-9, (grid_n, inst)
        assert len(res.segmentation.segments) == len(seg.segments), (grid_n, inst)


def _count_grid_lps(monkeypatch):
    calls = []
    grid_lp = oracle._grid_lp
    monkeypatch.setattr(oracle, "_grid_lp", lambda *args: calls.append(1) or grid_lp(*args))
    return calls


def test_simplex_oracle_reports_one_segment_above_k_bar(monkeypatch):
    # the one-atom certificate settles every input, so no column is
    # generated: the grid LP is the only LP solved
    cases = [(100, inst) for seed in range(1, 11) for inst in _inverse_inputs(seed, 3)]
    cases += [(grid_n, inst) for K, grid_n, ratio, inst in _fingerprint_inputs(10) if K == 3 and ratio > 1.0]
    assert len(cases) == 840
    calls = _count_grid_lps(monkeypatch)
    for grid_n, inst in cases:
        calls.clear()
        res = brute_force_small(inst, grid_n=grid_n)
        assert len(res.segmentation.segments) == 1, (grid_n, inst)
        assert 0.0 <= res.upper - res.value <= _certified_width(res, inst), (grid_n, inst)
        assert len(calls) == 1, (grid_n, inst)


@pytest.mark.parametrize("inst", [
    # k/k-bar = 0.05, gen.instances(default_rng(1515), 3, full(60, 0.05))[45]
    # in perfbench/gen.py: a three-atom Nelder-Mead polish ran to its cap
    # here, for 2.5 s, and ended 1.0e-4 below the solver
    MarketInstance(Valuations((0.8888923905120165, 1.540994278796436, 3.6391244118054957)),
                   Market((0.14105393867621882, 0.5794435429343348, 0.27950251838944656)), 0.21867909591036427),
    # a two-atom polish stalled 2.7e-4 below the solver from starts a few ulps
    # off the LP's weights
    MarketInstance(Valuations((0.8877375075526407, 1.0204716817389037, 4.6068747561639265)),
                   Market((0.3081368649043833, 0.2673185937101704, 0.42454454138544634)), 0.5450048384336619),
    # far above k-bar, at a flat optimum of |objective| ~ 770, where the polish
    # once ran to its cap and then reported two segments
    MarketInstance(Valuations((0.7214253068258829, 2.6806231442982362, 3.659868529815904)),
                   Market((0.08770050957841785, 0.24459192789326636, 0.6677075625283158)), 926.4137973813238),
], ids=["three_atoms_at_0.05_k_bar", "two_atoms_near_a_wall", "flat_far_above_k_bar"])
def test_simplex_oracle_is_certified_where_the_polish_was_not(inst, monkeypatch):
    calls = _count_grid_lps(monkeypatch)
    res = brute_force_small(inst)
    assert len(calls) <= oracle._LP_ROUNDS  # the grid LP, then rounds that stopped short of the cap
    seg = solve_ri(inst)
    value = net_objective(seg, inst.vals, inst.k)
    assert res.value - 1e-9 <= value <= res.upper + 1e-9
    assert 0.0 <= res.upper - res.value <= _certified_width(res, inst)
    assert len(res.segmentation.segments) == len(seg.segments)


def test_simplex_oracle_bounds_at_the_edges():
    # at k = 0 the peaks are vertices; a prior on a face has no one-atom
    # certificate, and its columns stay on the face
    for mu, k in (((0.3, 0.4, 0.3), 0.0), ((0.0, 0.35, 0.65), 0.0), ((0.0, 0.35, 0.65), 0.5),
                  ((0.5, 0.5, 0.0), 0.3), ((0.2, 0.0, 0.8), 1.0), ((0.0, 0.0, 1.0), 0.7), ((0.0, 0.35, 0.65), 50.0)):
        inst = MarketInstance(V123, Market(mu), k)
        res = brute_force_small(inst, grid_n=100)
        seg = solve_ri(inst)
        value = net_objective(seg, V123, k)
        assert res.value - 1e-12 <= value <= res.upper + 1e-12, (mu, k)
        assert 0.0 <= res.upper - res.value <= _certified_width(res, inst), (mu, k)
        assert len(res.segmentation.segments) == len(seg.segments), (mu, k)
        if k == 0.0:
            assert res.value == pytest.approx(float(np.dot(mu, V123.values)), abs=1e-12)


def test_simplex_oracle_bound_holds_when_rounds_run_out(monkeypatch):
    # one round leaves the value short of the optimum; upper still bounds it
    monkeypatch.setattr(oracle, "_LP_ROUNDS", 1)
    widths = []
    for K, grid_n, ratio, inst in _fingerprint_inputs():
        if K == 3 and ratio < 1.0:
            value = net_objective(solve_ri(inst), inst.vals, inst.k)
            res = brute_force_small(inst, grid_n=grid_n)
            assert res.value - 1e-9 <= value <= res.upper + 1e-9, inst
            widths.append(res.upper - res.value)
    assert max(widths) > 1e-6


# -------------------- the oracle's own numerical methods --------------------

def test_simplex_grid_lists_points_row_major():
    for m in (4, 20, 60, 100, 137):
        pts = [(i, j, m - i - j) for i in range(m + 1) for j in range(m + 1 - i)]
        assert oracle._simplex_grid(m)[0].tobytes() == (np.asarray(pts, dtype=float) / m).tobytes()


def _lp_cases():
    rng = np.random.default_rng(20261019)
    cases = []
    for n, grid_n in enumerate((4, 5, 7, 10, 20, 33, 60, 100, 150) * 2):
        vals = np.sort(rng.uniform(0.5, 5.0, size=3))
        k = 0.0 if n % 4 == 0 else float(rng.uniform(0.01, 3.0))
        mu = rng.dirichlet((2.0, 2.0, 2.0))
        if n % 6 == 1:
            mu = np.array([0.0, 0.35, 0.65])  # on a face
        elif n % 6 == 3:
            mu = np.array([0.0, 0.0, 1.0])  # on a vertex
        cases.append((grid_n, vals, k, mu))
    return cases


def _degenerate_lp_cases():
    # priors on grid points and on cell edges, where several bases hold mu
    rng = np.random.default_rng(20261020)
    cases = []
    for grid_n in (4, 20, 100, 137):
        for n in range(12):
            vals = np.sort(rng.uniform(0.5, 5.0, size=3))
            k = 0.0 if n % 4 == 0 else float(rng.uniform(0.01, 3.0))
            i = int(rng.integers(0, grid_n))
            j = int(rng.integers(0, grid_n - i))
            s = float(rng.uniform()) if n % 2 else 0.0  # 0.0: on the grid point (i, j)
            di, dj = ((1, 0), (0, 1), (1, -1) if j else (1, 0))[n % 3]
            a, b = i + s * di, j + s * dj
            cases.append((grid_n, vals, k, np.array([a, b, grid_n - a - b]) / grid_n))
    return cases


def _corner_rows(P):
    return [int(np.flatnonzero(P[:, i] == 1.0)[0]) for i in range(3)]


def test_grid_lp_matches_highs():
    from scipy.optimize import linprog

    for grid_n, vals, k, mu in _lp_cases() + _degenerate_lp_cases():
        P, tails, H = oracle._simplex_grid(grid_n)
        g = oracle._net_value_points(vals, k, tails, H)
        lam, y, basis = oracle._grid_lp(P, g, mu, oracle._prior_cell(grid_n, mu))
        ref = linprog(-g, A_eq=P.T, b_eq=mu, bounds=(0.0, None), method="highs-ds")
        assert ref.success
        assert abs(g @ lam + ref.fun) <= 1e-12 * abs(ref.fun), (grid_n, k, mu)
        assert lam.min() >= 0.0
        assert np.max(np.abs(P.T @ lam - mu)) <= 1e-12
        # the dual: a plane on or above every grid point, worth the LP's value at mu
        assert np.max(g - P @ y) <= 1e-12 * max(1.0, np.max(np.abs(g))), (grid_n, k, mu)
        assert abs(y @ mu + ref.fun) <= 1e-12 * abs(ref.fun), (grid_n, k, mu)


def test_prior_cell_holds_the_prior():
    from fractions import Fraction

    rng = np.random.default_rng(20261022)
    for m in (4, 20, 100, 137):
        P = oracle._simplex_grid(m)[0]
        priors = [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),  # corners
            (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5),  # edge midpoints
            (0.3, 0.4, 0.3), (0.0, 0.35, 0.65), (0.2, 0.0, 0.8), (0.85, 0.15, 0.0), (0.7, 0.3, 0.0),
        ]
        for i, j in ((1, 1), (m // 3, m // 2), (m - 1, 0), (0, m - 1), (m // 2, m // 2)):
            # a grid point, then the same with m mu_0 and m mu_1 an ulp off an integer
            priors.append((i / m, j / m, (m - i - j) / m))
            for up in (0.0, 1.0):
                a, b = np.nextafter(i / m, up), np.nextafter(j / m, 1.0 - up)
                priors.append((a, b, max(0.0, 1.0 - a - b)))
        for t in rng.uniform(size=5):  # on the face mu_2 = 0, where m mu_0 + m mu_1 can round past m
            priors.append((t, 1.0 - t, 0.0))
        priors += [tuple(p) for p in rng.dirichlet((2.0, 2.0, 2.0), size=20)]
        priors += [tuple(p) for p in rng.dirichlet((0.2, 0.2, 0.2), size=20)]
        for mu in priors:
            cell = oracle._prior_cell(m, np.array(mu))
            assert len(set(cell)) == 3 and all(0 <= r < len(P) for r in cell), (m, mu)
            pts = [(round(m * P[r, 0]), round(m * P[r, 1])) for r in cell]
            i, j = min(p[0] for p in pts), min(p[1] for p in pts)
            assert set(pts) in ({(i, j), (i + 1, j), (i, j + 1)}, {(i + 1, j), (i, j + 1), (i + 1, j + 1)}), (m, mu)
            # mu's exact barycentric weights in grid units; only a prior whose
            # shares sum past 1 by rounding can leave the cell, by an ulp of m
            (x1, y1), (x2, y2), (x3, y3) = pts
            qx, qy = m * Fraction(mu[0]), m * Fraction(mu[1])
            det = (y2 - y3) * (x1 - x3) + (x3 - x2) * (y1 - y3)
            w1 = Fraction((y2 - y3) * (qx - x3) + (x3 - x2) * (qy - y3), det)
            w2 = Fraction((y3 - y1) * (qx - x3) + (x1 - x3) * (qy - y3), det)
            assert min(w1, w2, 1 - w1 - w2) >= -2 * math.ulp(m), (m, mu)


def test_grid_lp_result_does_not_depend_on_its_start():
    # lam is solved on the optimal basis in row order, and on the support
    # alone where mu sits on a grid edge or point, so the start and the
    # pivots' path leave no trace in its bits. An LP with two optimal
    # vertices of exactly equal value (symmetric entropies at one price;
    # 2 of 3,000 random draws on grids 4 and 5) can end on either.
    # The optimal basis it returns is a start that needs no pivot.
    for grid_n, vals, k, mu in _lp_cases() + _degenerate_lp_cases():
        P, tails, H = oracle._simplex_grid(grid_n)
        g = oracle._net_value_points(vals, k, tails, H)
        from_corners = oracle._grid_lp(P, g, mu, _corner_rows(P))[0]
        from_cell, _, basis = oracle._grid_lp(P, g, mu, oracle._prior_cell(grid_n, mu))
        assert from_corners.tobytes() == from_cell.tobytes(), (grid_n, k, mu)
        again = oracle._grid_lp(P, g, mu, basis)
        assert again[0].tobytes() == from_cell.tobytes() and again[2] == basis, (grid_n, k, mu)


def test_grid_lp_starts_in_the_prior_cell(monkeypatch):
    # above k-bar the prior's own cell is optimal, or a pivot away where it
    # straddles a price boundary; from the corners such LPs took 15 pivots
    # on average
    monkeypatch.setattr(oracle, "_LP_MAX_PIVOTS", 1)
    rng = np.random.default_rng(20261023)
    for _ in range(40):
        vals = Valuations(tuple(np.sort(rng.choice(np.arange(5, 51), size=3, replace=False)) / 10.0))
        mu = Market(tuple(rng.dirichlet((2.0, 2.0, 2.0))))
        k = float(rng.uniform(1.2, 2.0)) * segmentation_threshold(vals, mu)
        inst = MarketInstance(vals, mu, k)
        result = brute_force_small(inst, grid_n=100)
        solver_value = net_objective(solve_ri(inst), inst.vals, inst.k)
        assert solver_value - result.resolution_bound <= result.value <= solver_value + 1e-6


def test_grid_lp_pivot_cap_is_an_oracle_lp_error(monkeypatch):
    # this LP takes 6 pivots from the prior's cell
    monkeypatch.setattr(oracle, "_LP_MAX_PIVOTS", 1)
    with pytest.raises(ValidationError) as err:
        brute_force_small(MarketInstance(V123, Market((0.3, 0.4, 0.3)), 0.5))
    assert err.value.invariant == "oracle_lp"
