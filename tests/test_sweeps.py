"""Cost-scale sweeps, monotonicity classification, surplus geometry."""

import math
from decimal import Decimal, localcontext

import sys
from pathlib import Path

import numpy as np
import pytest

from segmentix import (
    KGridSpec,
    Market,
    MarketInstance,
    ValidationError,
    Valuations,
    boundary_always_segments,
    classify_monotonicity,
    default_k_grid,
    no_segmentation,
    optimal_price,
    segmentation_threshold,
    solve,
    surplus_triangle,
    sweep_k,
    to_csv,
    to_svg,
    verify_optimality,
    welfare,
)
from segmentix.market import WelfareReport
from segmentix.sweeps import CSV_HEADER, SweepTable

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

V12 = Valuations((1.0, 2.0))
MU46 = Market((0.4, 0.6))


# -------------------- grid spec --------------------

def test_grid_spec_validates():
    # the fourth spec's points repeat in double precision: it fails as an explicit grid would;
    # a count that is not an integer (a numpy integer is one) fails by name too
    for lo, hi, n in ((0.0, 1.0, 10), (1.0, 0.5, 10), (0.1, 1.0, 1), (1.0, 1.0000000000001, 3000),
                      (0.1, 10.0, 2.5), (0.1, 10.0, 5.0), (0.1, 10.0, "5"), (0.1, 10.0, None), (0.1, 10.0, True)):
        with pytest.raises(ValidationError) as exc:
            KGridSpec(lo=lo, hi=hi, n=n)
        assert exc.value.invariant == "k_grid"
    assert KGridSpec(0.1, 10.0, np.int64(5)) == KGridSpec(0.1, 10.0, 5)


def test_grid_spec_log_spacing():
    for lo, hi, n in ((0.01, 10.0, 200), (1e-3, 1e3, 600), (2e-6, 3e4, 500), (0.5, 2.0, 9)):
        ks = KGridSpec(lo=lo, hi=hi, n=n).points()
        assert type(ks) is tuple and len(ks) == n
        assert all(type(k) is float for k in ks)
        assert ks[0] == lo and ks[-1] == hi
        assert all(b > a for a, b in zip(ks, ks[1:]))
        # the exponent i*step + log10(lo) is off by about ulp(|log10 lo| + |log10 hi|),
        # which 10 ** scales by ln 10; one more ulp for the power's own rounding
        ulps = 1.0 + 2.0 * math.log(10.0) * (abs(math.log10(lo)) + abs(math.log10(hi)))
        with localcontext() as ctx:
            ctx.prec = 40
            ratio = Decimal(hi) / Decimal(lo)
            for i, k in enumerate(ks):
                want = Decimal(lo) * ratio ** (Decimal(i) / (n - 1))
                assert abs(Decimal(k) - want) <= Decimal(ulps * math.ulp(k)), (lo, hi, n, i, k)


def test_default_grid_scales_with_low_valuation():
    g = default_k_grid(Valuations((2.0, 5.0)))
    assert g.lo == pytest.approx(2e-3)
    assert g.hi == pytest.approx(200.0)
    assert g.n == 200


# -------------------- sweeping --------------------

def test_sweep_rows_follow_grid_and_account():
    table = sweep_k(V12, MU46, KGridSpec(lo=0.05, hi=5.0, n=25))
    assert len(table.rows) == 25
    for row in table.rows:
        assert row.error is None
        rep = row.report
        assert rep.ts_gross == pytest.approx(rep.cs + rep.ps_gross, abs=1e-12)
        assert row.n_segments in (1, 2)
        assert row.verify is not None and row.verify.passed


def test_sweep_rows_stay_inside_surplus_triangle():
    tri = surplus_triangle(MU46, V12)
    table = sweep_k(V12, MU46, KGridSpec(lo=1e-3, hi=100.0, n=60))
    for row in table.rows:
        assert tri.contains(row.report.cs, row.report.ps_gross)


def test_sweep_limits_match_uniform_and_efficient_endpoints():
    kbar = segmentation_threshold(V12, MU46)
    table = sweep_k(V12, MU46, [1e-4, 1e-3, 10.0 * kbar, 20.0 * kbar])
    lo_row = table.rows[0].report
    assert lo_row.ts_gross == pytest.approx(1.6, abs=1e-9)
    assert lo_row.cs == pytest.approx(0.0, abs=1e-9)
    uni = welfare(no_segmentation(MU46, V12), V12, 0.0)
    for row in table.rows[2:]:
        assert row.report.cs == uni.cs
        assert row.report.ps_gross == uni.ps_gross
        assert row.report.info_cost == 0.0


def test_sweep_parallel_matches_serial():
    grid = KGridSpec(lo=0.1, hi=2.0, n=12)
    serial = sweep_k(V12, MU46, grid, max_workers=1)
    parallel = sweep_k(V12, MU46, grid, max_workers=3)
    assert to_csv(serial) == to_csv(parallel)


@pytest.mark.parametrize("K", [2, 3, 5, 12, 30, 100])
def test_every_row_is_optimal_against_every_other_rows_k(K):
    # V(k) is a maximum over segmentations of ps_gross - k I, each affine in k,
    # so row i's segmentation, priced at row j's k, cannot beat row j's ps_net
    # (the envelope theorem; Milgrom & Segal 2002). The check reads only the
    # rows, and shares nothing with the solver or the certificate.
    rng = np.random.default_rng([K, 2002])
    for _ in range(2):
        vals = Valuations(tuple(np.cumsum(rng.uniform(0.2, 2.0, K))))
        prior = Market(tuple(rng.dirichlet(np.ones(K))))
        kbar = segmentation_threshold(vals, prior)
        table = sweep_k(vals, prior, KGridSpec(1e-3 * kbar, 2.0 * kbar, 80))
        rows = [r.report for r in table.rows]
        ks = np.array([r.k for r in table.rows])
        gross = np.array([r.ps_gross for r in rows])
        info = np.array([r.info_cost for r in rows]) / ks
        net = np.array([r.ps_net for r in rows])
        excess = gross[:, None] - ks[None, :] * info[:, None] - net[None, :]
        assert np.all(excess <= 1e-9 * np.maximum(1.0, np.abs(net))[None, :]), excess.max()
        assert sum(r.segmented for r in rows) > 10  # the grid reaches below k-bar


@pytest.mark.parametrize("K", [2, 3, 12])
def test_rows_that_keep_the_prior_whole_share_the_report_of_their_own_welfare_call(K):
    # sweep_k accounts the rows that keep the prior whole once and reuses
    # that report; each row must still carry the bits its own welfare call
    # gives, so reports are compared by repr, which tells 0.0 from -0.0
    rng = np.random.default_rng([K, 28])
    for _ in range(3):
        vals = Valuations(tuple(np.cumsum(rng.uniform(0.2, 2.0, K))))
        prior = Market(tuple(rng.dirichlet(np.ones(K))))
        kbar = segmentation_threshold(vals, prior)
        # the first grid is mostly above k-bar, the second mostly below it
        ks = (*KGridSpec(1e-3 * kbar, 1e300, 120).points(), *KGridSpec(1e-3 * kbar, 10.0 * kbar, 80).points())
        table = sweep_k(vals, prior, sorted(set(ks)))
        whole = [r.report for r in table.rows if r.n_segments == 1]
        assert len(whole) > 100 and len(table.rows) - len(whole) > 50
        assert all(rep is whole[0] for rep in whole)
        for row in table.rows:
            own = welfare(solve(MarketInstance(vals, prior, row.k)), vals, row.k)
            assert repr(row.report) == repr(own), row.k
        # the CSV formats a shared report once; distinct equal reports must read the same
        copies = SweepTable(tuple(r._replace(report=WelfareReport(*r.report)) for r in table.rows))
        assert copies.rows[-1].report is not copies.rows[-2].report
        assert to_csv(copies) == to_csv(table)


@pytest.mark.parametrize("K", [2, 3])
def test_whole_prior_rows_are_no_segmentation_and_pass_their_certificate(K):
    rng = np.random.default_rng([K, 29])
    for _ in range(3):
        vals = Valuations(tuple(np.cumsum(rng.uniform(0.2, 2.0, K))))
        prior = Market(tuple(rng.dirichlet(np.ones(K))))
        kbar = segmentation_threshold(vals, prior)
        table = sweep_k(vals, prior, KGridSpec(1e-2 * kbar, 1e2 * kbar, 200))
        whole = no_segmentation(prior, vals)
        kept = [row for row in table.rows if row.n_segments == 1]
        assert 50 < len(kept) < len(table.rows)
        for row in kept:
            seg = solve(MarketInstance(vals, prior, row.k))
            assert seg == whole and seg is whole, row.k  # one shared object
            assert row.verify.passed and verify_optimality(seg, vals, row.k).passed, row.k
        # an equal but distinct prior or ladder gets a segmentation of its own objects
        twin = Market(prior.weights)
        assert twin == prior and twin is not prior
        got = no_segmentation(twin, vals)
        assert got == whole and got.prior is twin and got.segments[0].market is twin
        ladder = Valuations(vals.values)
        assert no_segmentation(prior, ladder) == whole and no_segmentation(prior, ladder) is not whole
        # another ladder with the same prior: priced for that ladder
        other = Valuations(tuple(v * (1.0 + 3.0 * i) for i, v in enumerate(vals.values)))
        got = no_segmentation(prior, other)
        assert got is not whole and got.segments[0].price_index == optimal_price(prior, other)
        assert no_segmentation(prior, vals) == whole


def _shared_passes_where_own_fails(vals, prior, ks, own):
    """The ks of an all-whole-prior sweep's rows whose shared certificate passes where their own fails.

    ``own`` is each row's own certificate. A sweep that raises on a failing
    certificate shares none, and must fail its first row's own.
    """
    try:
        table = sweep_k(vals, prior, ks)
    except ValidationError as e:
        assert e.invariant == "certificate" and f"k={ks[0]!r}" in e.message and not own[0].passed
        return []
    assert all(r.verify is table.rows[0].verify for r in table.rows) and table.rows[0].verify.passed
    return [r.k for r, o in zip(table.rows, own, strict=True) if r.verify.passed and not o.passed]


@pytest.mark.parametrize("K", [2, 3, 5])
def test_a_whole_prior_row_passes_its_own_certificate_wherever_the_shared_one_passes(K, monkeypatch):
    # sweep_k certifies the first row that keeps the prior whole and gives its
    # report to the later ones. That is sound if, in floats too, the prior's
    # certificate passes at every k above one where it passes (the convexity
    # argument in sweep_k's docstring). The workload's markets and its
    # 0.01 w_K to 100 w_K grid, and a grid from 1e-3 w_1, are checked twice:
    # on the sweep as it solves, and with every row forced to keep the prior
    # whole, from each grid point on, so that the first whole row can fail
    import segmentix.sweeps as sweeps

    rng = np.random.default_rng([1, 3] if K == 2 else [K, 31])  # K = 2: the sweep workload's seed-1 draws
    vs, mus = gen.markets(rng, 400 if K == 2 else 6, K)
    for v, m in list(zip(vs, mus))[:6]:
        vals, prior = Valuations(tuple(map(float, v))), Market(tuple(map(float, m)))
        whole = no_segmentation(prior, vals)
        for grid in (KGridSpec(0.01 * vals[-1], 100.0 * vals[-1], 200), KGridSpec(1e-3 * vals[0], 100.0 * vals[-1], 200)):
            ks = grid.points()
            own = [verify_optimality(whole, vals, k) for k in ks]
            passed = [o.passed for o in own]
            assert passed == sorted(passed) and passed[-1] and not passed[0], passed  # fail, then pass for good
            for row in sweep_k(vals, prior, grid).rows:
                assert row.verify.passed
                if row.n_segments == 1:
                    assert verify_optimality(solve(MarketInstance(vals, prior, row.k)), vals, row.k).passed, row.k
            first = passed.index(True)
            starts = sorted({0, first - 1, first, *range(0, len(ks), 25)})
            with monkeypatch.context() as mp:
                mp.setattr(sweeps, "solve", lambda inst: no_segmentation(inst.mu_star, inst.vals))
                for c in starts:
                    assert _shared_passes_where_own_fails(vals, prior, ks[c:], own[c:]) == [], ks[c]
                # a mutant sharing the report of the largest whole-prior k is caught
                mp.setattr(sweeps, "verify_optimality", lambda seg, vals, k, ks=ks: verify_optimality(seg, vals, ks[-1]))
                assert _shared_passes_where_own_fails(vals, prior, ks, own) == list(ks[:first])


@pytest.mark.parametrize(
    "grid",
    [[], [2.0, math.nan, 1.0], [0.5, math.nan], [1.0, math.inf], [-math.inf, 1.0], [0.0, 1.0], [1.0, 0.5],
     [0.5, 0.5]],
    ids=["empty", "nan-decreasing", "nan", "inf", "minus-inf", "zero", "decreasing", "repeated"],
)
def test_sweep_rejects_bad_explicit_grid_before_any_solve(grid, monkeypatch):
    import segmentix.sweeps as sweeps

    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran on a grid that should have been rejected")

    monkeypatch.setattr(sweeps, "solve", no_solve)
    with pytest.raises(ValidationError) as exc:
        sweep_k(V12, MU46, grid)
    assert exc.value.invariant == "k_grid"


def test_sweep_series_extraction():
    table = sweep_k(V12, MU46, KGridSpec(lo=0.1, hi=1.0, n=5))
    cs = table.series("cs")
    assert len(cs) == 5
    assert all(k > 0 and v >= 0 for k, v in cs)


# -------------------- monotonicity classes --------------------

def test_classify_monotone_series():
    assert classify_monotonicity([1.0, 2.0, 3.0]) == "nondecreasing"
    assert classify_monotonicity([3.0, 2.0, 1.0]) == "nonincreasing"
    assert classify_monotonicity([1.0, 3.0, 2.0]) == "nonmonotone"
    assert classify_monotonicity([2.0, 2.0, 2.0]) == "nondecreasing"


def test_classify_needs_three_points():
    with pytest.raises(ValidationError) as err:
        classify_monotonicity([1.0, 2.0])
    assert err.value.invariant == "series_size"


def test_classify_absorbs_float_noise():
    assert classify_monotonicity([1.0, 1.0 - 1e-12, 2.0]) == "nondecreasing"


# -------------------- boundary market property --------------------

def test_boundary_market_always_segments():
    ks = np.geomspace(1e-3, 1e3, 120)
    rep = boundary_always_segments(V12, ks)
    assert rep.always_segments
    assert rep.min_gain > 0.0
    assert rep.min_straddle_slack > 0.0


def test_boundary_gain_shrinks_but_stays_positive_at_heavy_cost():
    rep = boundary_always_segments(V12, [1e3])
    assert 0.0 < rep.min_gain < 1e-3


def test_nonboundary_prior_stops_segmenting():
    # contrast case: an off-boundary prior has a finite threshold
    mu = Market((0.3, 0.7))
    kbar = segmentation_threshold(V12, mu)
    assert kbar < 10.0
    from segmentix import MarketInstance, solve_binary

    seg = solve_binary(MarketInstance(V12, mu, 10.0))
    assert len(seg.segments) == 1


# -------------------- surplus triangle --------------------

def test_triangle_low_prior_vertices():
    tri = surplus_triangle(Market((0.6, 0.4)), V12)
    (c0, p0), (c1, p1), (c2, p2) = tri.vertices
    assert (c0, p0) == (0.0, 1.0)
    assert c1 == pytest.approx(0.4) and p1 == 1.0
    assert c2 == 0.0 and p2 == pytest.approx(1.4)


def test_triangle_high_prior_vertices():
    tri = surplus_triangle(MU46, V12)
    assert tri.uniform_profit == pytest.approx(1.2)
    assert tri.full_surplus == pytest.approx(1.6)
    assert tri.max_cs == pytest.approx(0.4)


def test_triangle_degenerate_prior():
    tri = surplus_triangle(Market((1.0, 0.0)), V12)
    assert tri.vertices == ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def test_triangle_membership():
    tri = surplus_triangle(MU46, V12)
    assert tri.contains(0.1, 1.25)
    assert not tri.contains(-0.01, 1.3)
    assert not tri.contains(0.1, 1.19)
    assert not tri.contains(0.3, 1.5)


# -------------------- serialization --------------------

def test_csv_header_and_shape():
    table = sweep_k(V12, MU46, KGridSpec(lo=0.1, hi=1.0, n=4))
    text = to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert len(first) == 9
    assert first[8] == "1.0;2.0"


def test_svg_renders_series():
    table = sweep_k(V12, MU46, KGridSpec(lo=0.1, hi=1.0, n=8))
    svg = to_svg(table)
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 4
    assert svg.rstrip().endswith("</svg>")
