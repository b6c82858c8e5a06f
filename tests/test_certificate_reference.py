"""The certificate and the entropy against a high-precision reference; welfare and sweeps against reference kernels.

``verify_optimality`` forms its terms as payoff differences on Python floats.
``_reference_verify_optimality`` computes the same certificate with the
standard library's decimal module at 40 significant digits. On thousands of
seeded segmentations, passing and failing, the verdicts, the failure lists
and the Bayes residuals must be equal, and the likelihood-ratio residual and
each price slack must agree within ``CERT_ULPS`` times the error scale the
difference form claims (see ``_assert_matches_reference``).

``welfare`` computes on Python floats and the math module. The
``_reference_*`` welfare functions below are the earlier numpy versions,
kept with the helpers they used, with the entropy written out as the plain
math-module sum, and their reports and exceptions must match byte for byte.
``entropy`` itself is checked against a 40-digit entropy within
``ENTROPY_ULPS`` ulps of the result.
"""

import functools
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from segmentix import market, sweeps
from segmentix import (
    KGridSpec,
    Market,
    MarketInstance,
    OptimalityReport,
    Segment,
    Segmentation,
    SolverError,
    SweepRow,
    SweepTable,
    ValidationError,
    Valuations,
    WelfareReport,
    all_revenues,
    buyer_payoff,
    entropy,
    no_segmentation,
    perfect_discrimination,
    revenue,
    solve,
    sweep_k,
    to_csv,
    verify_optimality,
    welfare,
)
from segmentix.market import BAYES_TOL, EXP_OVERFLOW, PRICE_OPT_TOL
from segmentix.solver import _LOG_ZERO_MASS_TOL, VERIFY_TOL
from segmentix.sweeps import SWEEP_PRICE_TOL

# -------------------- the references --------------------


def _reference_bayes_residual(seg):
    mixed = np.zeros(len(seg.prior))
    for s in seg.segments:
        mixed += s.weight * s.market.as_array()
    return float(np.max(np.abs(mixed - seg.prior.as_array())))


# The float certificate's error in ilr_residual and in each price slack, in
# ulps of max(1, |value|), is at most this many times the field's error scale
# 1 + M + |L|: M is the largest |log posterior| of a served type and L the
# slack's log-sum-exp (0 for ilr_residual). The seeded cases below reach 1.71;
# the absolute-form certificate, whose error grows with v/k, reached 6,017.
CERT_ULPS = 4.0

# exp(-100) is below 1e-43: nothing at 40 digits next to a term of size 1
_NEGLIGIBLE = Decimal(-100)


@functools.lru_cache(maxsize=1 << 16)
def _ln(x):
    """ln(x) of a positive float at 40 digits; the seeded variants share most posteriors."""
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(x).ln()


def _reference_verify_optimality(seg, vals, k, tol=VERIFY_TOL):
    """The certificate at 40 significant digits, and the error scale of each residual.

    Returns the report, each float rounded from its 40-digit value, and the
    scales of ``ilr_residual`` and of each price slack (empty at k = 0).
    Terms are payoff differences from each served type's peak segment, as
    in ``verify_optimality``, here without rounding error to speak of.
    """
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError("cost_scale", f"k must be finite and >= 0, got {k}")
    failures = []
    bayes = _reference_bayes_residual(seg)
    if bayes > BAYES_TOL:
        failures.append("bayes_plausibility")

    if k == 0.0:
        for j, s in enumerate(seg.segments):
            w = s.market.weights
            if max(w) < 1.0 - 1e-12 or w[s.price_index] < 1.0 - 1e-12:
                failures.append(f"discrimination_limit_segment_{j}")
        report = OptimalityReport(
            ilr_residual=0.0,
            slack_excess=0.0,
            bayes_residual=bayes,
            passed=not failures,
            failures=tuple(failures),
        )
        return report, ()

    K = len(vals)
    price_idx = seg.price_indices()
    posts = [s.market.weights for s in seg.segments]
    with localcontext() as ctx:
        ctx.prec = 40
        kd = Decimal(k)
        S = [[Decimal(p) if v >= p else Decimal(0) for p in vals.values] for v in vals.values]
        ilr = Decimal(0)
        terms = []
        M = 0.0
        for i, (mass, S_i) in enumerate(zip(seg.prior.weights, S, strict=True)):
            if mass <= 0.0:
                continue
            held = [(_ln(w[i]), p) for w, p in zip(posts, price_idx) if w[i] > 0.0]
            if not held:
                failures.append(f"type_{i}_unserved")
                continue
            M = max(M, *(abs(float(lp)) for lp, _ in held))
            top, p_star = max(held, key=lambda h: h[0] - S_i[h[1]] / kd)
            term = [top + (pay - S_i[p_star]) / kd for pay in S_i]
            spread = min(lp - term[p] for lp, p in held)
            if spread < 0:
                ilr = max(ilr, 1 - spread.exp() if spread > _NEGLIGIBLE else Decimal(1))
            for j, (w, p) in enumerate(zip(posts, price_idx)):
                if w[i] == 0.0 and term[p] >= Decimal(_LOG_ZERO_MASS_TOL):
                    failures.append(f"zero_mass_type_{i}_segment_{j}")
            terms.append(term)
        if ilr > tol:
            failures.append("likelihood_ratio_invariance")
        price_slacks = [-1.0] * K
        scales = [1.0 + M]
        for t, col in enumerate(zip(*terms)):
            top = max(col)
            total = sum(((x - top).exp() for x in col if _NEGLIGIBLE < x - top < 0), Decimal(col.count(top)))
            lse = min(float(top) + math.log(float(total)), EXP_OVERFLOW)  # a scale needs no more digits
            price_slacks[t] = math.expm1(lse) if lse == EXP_OVERFLOW else float(top.exp() * total - 1)
            scales.append(1.0 + M + abs(lse))
        if not terms:
            scales.extend([1.0] * K)
    slack_excess = max(price_slacks)
    if slack_excess > tol:
        failures.append("price_slack")

    report = OptimalityReport(
        ilr_residual=float(ilr),
        slack_excess=slack_excess,
        bayes_residual=bayes,
        passed=not failures,
        failures=tuple(failures),
        price_slacks=tuple(price_slacks),
    )
    return report, tuple(scales)


def _assert_matches_reference(got, seg, vals, k):
    """``got`` is the float certificate of ``seg``; check it against the 40-digit one."""
    want, scales = _reference_verify_optimality(seg, vals, k)
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr((got.passed, got.failures, got.bayes_residual)) == repr(
        (want.passed, want.failures, want.bayes_residual)
    ), (seg, vals, k)
    if not scales:
        assert repr(got) == repr(want), (seg, vals, k)
        return
    assert got.slack_excess == max(got.price_slacks)
    assert len(got.price_slacks) == len(want.price_slacks)
    fields = [(got.ilr_residual, want.ilr_residual), *zip(got.price_slacks, want.price_slacks)]
    for (g, w), scale in zip(fields, scales):
        assert abs(g - w) <= CERT_ULPS * scale * math.ulp(max(1.0, abs(w))), (g, w, scale, seg, vals, k)


def _reference_all_revenues(m, vals):
    w = m.as_array()
    v = vals.as_array()
    tails = np.cumsum(w[::-1])[::-1]
    return v * tails


def _reference_entropy(m):
    return -math.fsum(x * math.log(x) for x in m.weights if x > 0.0)


def _reference_welfare(seg, vals, k, price_tol=PRICE_OPT_TOL):
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError("cost_scale", f"k must be finite and >= 0, got {k}")
    bayes = _reference_bayes_residual(seg)
    if bayes > BAYES_TOL:
        raise ValidationError("bayes_plausibility", f"residual {bayes:.3e} exceeds {BAYES_TOL}")
    for idx, s in enumerate(seg.segments):
        rev = _reference_all_revenues(s.market, vals)
        if rev[s.price_index] < float(np.max(rev)) - price_tol:
            raise ValidationError(
                "segment_price_optimality",
                f"segment {idx} charges index {s.price_index} but better prices exist (gap {float(np.max(rev)) - rev[s.price_index]:.3e})",
            )
    cs = 0.0
    ps_gross = 0.0
    avg_entropy = 0.0
    for s in seg.segments:
        p = vals[s.price_index]
        cs += s.weight * math.fsum(w * buyer_payoff(p, v) for w, v in zip(s.market.weights, vals.values))
        ps_gross += s.weight * revenue(s.market, vals, s.price_index)
        avg_entropy += s.weight * _reference_entropy(s.market)
    info_cost = k * (_reference_entropy(seg.prior) - avg_entropy)
    ps_net = ps_gross - info_cost
    return WelfareReport(
        cs=cs,
        ps_gross=ps_gross,
        info_cost=info_cost,
        ps_net=ps_net,
        ts_gross=cs + ps_gross,
        ts_net=cs + ps_net,
        segmented=len(seg.segments) > 1,
    )


# -------------------- seeded segmentations --------------------

FAILURE_NAMES = (
    "bayes_plausibility",
    "type_i_unserved",
    "zero_mass_type_i_segment_j",
    "likelihood_ratio_invariance",
    "price_slack",
)


def _segmentation(prior, joint, prices):
    """Segments from a joint mass table joint[i][j] = weight_j * posterior_j[i]."""
    segs = []
    for j, p in enumerate(prices):
        col = [row[j] for row in joint]
        w = math.fsum(col)
        segs.append(Segment(Market([x / w for x in col]), w, p))
    return Segmentation(prior, segs)


def _joint(seg):
    return [[s.weight * s.market[i] for s in seg.segments] for i in range(len(seg.prior))]


def _variants(seg, rng):
    """The segmentation itself and perturbed copies aimed at each failure."""
    prior = seg.prior
    K, J = len(prior), len(seg.segments)
    prices = list(seg.price_indices())
    out = [seg]
    joint = _joint(seg)
    served = [i for i in range(K) if prior[i] > 0.0]
    i = int(rng.choice(served))
    if J >= 2:
        a, b = (int(x) for x in rng.choice(J, size=2, replace=False))
        # likelihood ratios: move part of type i's mass between two segments
        moved = [row[:] for row in joint]
        d = moved[i][a] * rng.uniform(0.05, 0.5)
        moved[i][a] -= d
        moved[i][b] += d
        out.append(_segmentation(prior, moved, prices))
        # a zero entry whose implied mass is not negligible
        zeroed = [row[:] for row in joint]
        zeroed[i][b] += zeroed[i][a]
        zeroed[i][a] = 0.0
        if all(math.fsum(row[j] for row in zeroed) > 0.0 for j in range(J)):
            out.append(_segmentation(prior, zeroed, prices))
    # Bayes plausibility: part of type i's mass in one segment handed to another type
    j = int(rng.integers(J))
    post = list(seg.segments[j].market.weights)
    d = post[i] * rng.uniform(1e-6, 0.1)
    post[i] -= d
    post[(i + 1) % K] += d
    missed = list(seg.segments)
    missed[j] = Segment(Market(post), missed[j].weight, missed[j].price_index)
    if seg.segments[j].weight * d > BAYES_TOL:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(market, "BAYES_TOL", 1.0)
            out.append(Segmentation(prior, missed))
    # an unserved type: its prior mass below the Bayes tolerance, no segment holds it
    if len(served) < K:
        i0 = next(t for t in range(K) if prior[t] <= 0.0)
        tiny = Market([1e-13 if t == i0 else x for t, x in enumerate(prior.weights)])
        out.append(Segmentation(tiny, seg.segments))
    # a segment charged another price
    j = int(rng.integers(J))
    repriced = list(seg.segments)
    repriced[j] = Segment(repriced[j].market, repriced[j].weight, int(rng.integers(K)))
    out.append(Segmentation(prior, repriced))
    # a random joint table over random prices: wrong marginal, wrong ratios
    n_seg = int(rng.integers(1, K + 1))
    rand = [[x * prior[t] for x in rng.dirichlet(np.ones(n_seg))] for t in range(K)]
    if all(math.fsum(row[j] for row in rand) > 0.0 for j in range(n_seg)):
        out.append(_segmentation(prior, rand, [int(p) for p in rng.integers(K, size=n_seg)]))
    return out


def _seeded_cases(n_instances, seed):
    """(segmentation, vals, k) triples from seeded instances with K from 2 to 10."""
    rng = np.random.default_rng(seed)
    cases = []
    for c in range(n_instances):
        K = 2 + c % 9
        vals = Valuations(np.cumsum(rng.uniform(0.05, 3.0, K)))
        mu = rng.dirichlet(np.full(K, rng.choice([0.3, 1.0, 5.0])))
        if K >= 3 and rng.random() < 0.25:
            mu[rng.integers(K)] = 0.0
            mu = mu / math.fsum(mu)
        prior = Market(mu)
        k = 0.0 if c % 40 == 39 else float(10.0 ** rng.uniform(-4.0, 2.0))
        seg = solve(MarketInstance(vals, prior, k))
        variants = _variants(seg, rng)
        if k > 0.0:
            variants.append(no_segmentation(prior, vals))
        else:
            variants.append(perfect_discrimination(prior, vals))
        cases.extend((s, vals, k) for s in variants)
    return cases


def _outcome(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except ValidationError as e:
        return ("ValidationError", e.invariant, str(e))


def _failure_kind(name):
    """zero_mass_type_2_segment_1 -> zero_mass_type_i_segment_j."""
    return re.sub(r"segment_\d+", "segment_j", re.sub(r"type_\d+", "type_i", name))


def test_certificate_and_welfare_match_reference_on_seeded_segmentations():
    cases = _seeded_cases(450, seed=20261018)
    assert len(cases) >= 2000
    kinds = set()
    welfare_errors = set()
    for seg, vals, k in cases:
        assert repr(seg.bayes_residual) == repr(_reference_bayes_residual(seg))
        for m in (seg.prior, *(s.market for s in seg.segments)):
            assert repr(all_revenues(m, vals).tolist()) == repr(_reference_all_revenues(m, vals).tolist())
            assert repr(entropy(m)) == repr(_reference_entropy(m))
        got = verify_optimality(seg, vals, k)
        _assert_matches_reference(got, seg, vals, k)
        kinds.update(_failure_kind(f) for f in got.failures)
        for tol in (PRICE_OPT_TOL, SWEEP_PRICE_TOL):
            w_got = _outcome(welfare, seg, vals, k, price_tol=tol)
            assert w_got == _outcome(_reference_welfare, seg, vals, k, price_tol=tol), (seg, vals, k)
            if isinstance(w_got, tuple):
                welfare_errors.add(w_got[1])
    assert set(FAILURE_NAMES) | {"discrimination_limit_segment_j"} <= kinds
    assert {"bayes_plausibility", "segment_price_optimality"} <= welfare_errors
    assert any(k == 0.0 for _, _, k in cases)
    assert {len(vals) for _, vals, _ in cases} == set(range(2, 11))


def test_certificate_matches_reference_on_subnormal_flushed_posteriors():
    # at tiny k the closed form's posteriors underflow and are flushed to 0.0
    flushed = 0
    for w2 in (1.5, 2.0, 6.0, 12.0):
        vals = Valuations((1.0, w2))
        for mu1 in (0.2, 0.5, 0.8):
            prior = Market((1.0 - mu1, mu1))
            for k in np.geomspace(1e-4, 0.05, 40):
                seg = solve(MarketInstance(vals, prior, float(k)))
                flushed += any(x == 0.0 for s in seg.segments for x in s.market.weights)
                got = verify_optimality(seg, vals, float(k))
                assert got.passed, got.failures
                _assert_matches_reference(got, seg, vals, float(k))
                assert _outcome(welfare, seg, vals, float(k)) == _outcome(_reference_welfare, seg, vals, float(k))
    assert flushed > 0


def test_certificate_matches_reference_on_wide_supports():
    # K >= 8 with every entry positive: numpy's sums of eight or more terms
    # were pairwise, not left to right, in the code these checks replaced
    rng = np.random.default_rng(8)
    wide = 0
    for _ in range(60):
        K = int(rng.integers(8, 11))
        vals = Valuations(np.cumsum(rng.uniform(0.05, 1.0, K)))
        prior = Market(rng.dirichlet(np.ones(K)))
        n_seg = int(rng.integers(1, K + 1))
        joint = [[x * prior[t] for x in rng.dirichlet(np.ones(n_seg))] for t in range(K)]
        seg = _segmentation(prior, joint, [int(p) for p in rng.integers(K, size=n_seg)])
        wide += all(x > 0.0 for s in seg.segments for x in s.market.weights)
        for k in (1e-4, 0.03, 1.0, 100.0):
            _assert_matches_reference(verify_optimality(seg, vals, k), seg, vals, k)
            assert _outcome(welfare, seg, vals, k, price_tol=10.0) == _outcome(
                _reference_welfare, seg, vals, k, price_tol=10.0
            )
    assert wide >= 50


# -------------------- entropy --------------------

# ``entropy``'s error against the 40-digit entropy, in ulps of the result, is
# at most this. The seeded vectors below reach 1.35, and 80,000 other draws
# 1.70. The numpy form this replaced, np.log summed in numpy's order, reaches
# 2.17 on these vectors (3 of them above 2) and 2.53 on the other draws.
ENTROPY_ULPS = 2.0


def _entropy_vectors(n, seed):
    """Dirichlet weight vectors, K from 2 to 12, some with a zero; then some with one share from 1 down to 1e-323."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        K = int(rng.integers(2, 13))
        w = rng.dirichlet(np.full(K, rng.choice([0.05, 0.3, 1.0, 5.0, 50.0])))
        if rng.random() < 0.2:
            w[rng.integers(K)] = 0.0
        out.append(w.tolist())
    for _ in range(n // 10):
        w = rng.dirichlet(np.ones(int(rng.integers(2, 6)))).tolist()
        tiny = float(10.0 ** -rng.uniform(0.0, 323.0))
        rest = math.fsum(w[1:])
        out.append([tiny, *(x * (1.0 - tiny) / rest for x in w[1:])])
    return out


def test_entropy_matches_40_digit_reference():
    worst = 0.0
    for w in _entropy_vectors(4000, seed=20261020):
        got = entropy(w)
        with localcontext() as ctx:
            ctx.prec = 40
            want = -sum((Decimal(x) * _ln(x) for x in w if x > 0.0), Decimal(0))
        err = float(abs(Decimal(got) - want)) / math.ulp(float(want))
        worst = max(worst, err)
        assert err <= ENTROPY_ULPS, (w, got, want)
    assert worst > 1.0  # the vectors reach the bound's scale


# -------------------- sweeps --------------------


def _sweep_bytes(vals, prior, grid, max_workers=1):
    table = sweep_k(vals, prior, grid, max_workers=max_workers)
    return to_csv(table), [repr(r.verify) for r in table.rows]


def _seeded_markets(K, n, seed):
    rng = np.random.default_rng(seed)
    return [
        (Valuations(np.cumsum(rng.uniform(0.2, 2.0, K))), Market(rng.dirichlet(np.ones(K))))
        for _ in range(n)
    ]


def _reference_sweep_rows(vals, prior, grid):
    """The rows of a sweep, each from ``solve`` on the prior and the all-numpy welfare, and their segmentations.

    Rows carry no certificate (``verify=None``); each solved row's
    segmentation is returned beside it for the 40-digit reference.
    """
    rows, segs = [], []
    for k in grid.points():
        try:
            seg = solve(MarketInstance(vals, prior, k))
        except SolverError as e:
            rows.append(SweepRow(k=k, report=None, n_segments=0, prices=(), verify=None, error=str(e)))
            segs.append(None)
            continue
        rep = _reference_welfare(seg, vals, k, price_tol=SWEEP_PRICE_TOL)
        prices = tuple(vals[i] for i in seg.price_indices())
        rows.append(SweepRow(k, rep, len(seg.segments), prices, None))
        segs.append(seg)
    return SweepTable(rows=tuple(rows)), segs


# the ids are the ones these cases had when they also carried solver options
@pytest.mark.parametrize("K,n_points", [(2, 200), (3, 30)], ids=["2-200-None", "3-30-options1"])
def test_sweep_bytes_match_reference_kernels(K, n_points):
    for vals, prior in _seeded_markets(K, 4, seed=40 + K):
        grid = KGridSpec(1e-3 * vals[0], 1e2 * vals[-1], n_points)
        got = sweep_k(vals, prior, grid)
        want, segs = _reference_sweep_rows(vals, prior, grid)
        assert to_csv(got) == to_csv(want)
        # every field byte for byte but the certificate, which is checked against the 40-digit one
        assert [repr(r._replace(verify=None)) for r in got.rows] == [repr(r) for r in want.rows]
        for row, seg in zip(got.rows, segs, strict=True):
            if seg is not None:
                _assert_matches_reference(row.verify, seg, vals, row.k)


def test_pooled_sweep_matches_serial():
    # max_workers is accepted and ignored: the bytes are those of the serial sweep
    for vals, prior in _seeded_markets(2, 2, seed=7) + _seeded_markets(3, 1, seed=8):
        grid = KGridSpec(1e-2 * vals[0], 10.0 * vals[-1], 24)
        assert _sweep_bytes(vals, prior, grid, max_workers=2) == _sweep_bytes(vals, prior, grid)


def test_length_mismatch_is_rejected():
    # the all-numpy code failed to broadcast here; the float loops must not truncate instead
    seg = no_segmentation(Market((0.2, 0.3, 0.5)), Valuations((1.0, 2.0, 3.0)))
    short = Valuations((1.0, 2.0))
    for fn in (_reference_verify_optimality, _reference_welfare):
        with pytest.raises(ValueError):
            fn(seg, short, 0.5)
    for k in (0.5, 0.0):  # the certificate once skipped the shape check at k = 0
        for fn in (verify_optimality, welfare):
            with pytest.raises(ValidationError, match="instance_shape"):
                fn(seg, short, k)
    with pytest.raises(ValidationError, match="instance_shape"):
        all_revenues(seg.prior, short)


def test_sweep_rows_solve_the_prior_passed():
    # dividing this prior by its fsum once leaves an fsum other than 1, so a
    # second normalization could move it; every row must be solve on the prior passed
    vals = Valuations((2.2580222068777105, 3.3759214995278573))
    prior = Market((0.8172438280513341, 0.18275617194866606))
    grid = [0.03703337939781618, 0.03878768383436372, 0.042549538299436994]
    for row, k in zip(sweep_k(vals, prior, grid).rows, grid):
        seg = solve(MarketInstance(vals, prior, k))
        prices = tuple(vals[i] for i in seg.price_indices())
        want = SweepRow(k, welfare(seg, vals, k, price_tol=SWEEP_PRICE_TOL), len(seg.segments), prices,
                        verify_optimality(seg, vals, k))
        assert repr(row) == repr(want)


def test_cost_scale_must_be_finite_and_nonnegative():
    # a NaN k once passed the certificate with slack_excess nan, and welfare
    # reported a nan or inf info_cost; both reject it as MarketInstance does
    vals, prior = Valuations((1.0, 2.0, 3.0)), Market((0.3, 0.4, 0.3))
    seg = perfect_discrimination(prior, vals)
    for k in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValidationError) as want:
            MarketInstance(vals, prior, k)
        assert want.value.invariant == "cost_scale"
        for fn in (verify_optimality, welfare, _reference_verify_optimality, _reference_welfare):
            assert _outcome(fn, seg, vals, k) == ("ValidationError", "cost_scale", str(want.value)), fn


def test_row_that_serves_no_type():
    # every type the prior holds is missing from every segment: no type is
    # served, so every slack is -1; the reference agrees on it and on a
    # segmentation that serves every type
    vals = Valuations((1.0, 2.0, 3.0))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(market, "BAYES_TOL", 1.0)
        nobody = Segmentation(Market((0.5, 0.5, 0.0)), [Segment(Market((0.0, 0.0, 1.0)), 1.0, 2)])
    assert verify_optimality(nobody, vals, 0.5).price_slacks == (-1.0, -1.0, -1.0)
    fine = no_segmentation(Market((0.2, 0.3, 0.5)), vals)
    for s, k in [(fine, 0.5), (nobody, 0.5), (fine, 2.0), (nobody, 0.0), (fine, 0.0)]:
        _assert_matches_reference(verify_optimality(s, vals, k), s, vals, k)


@pytest.mark.parametrize(
    "K,n_points",
    [(2, 200), *((K, 30) for K in (3, 4, 5))],
    ids=["2-200-None", "3-30-options1", "4-30-options2", "5-30-options3"],  # as for the test above
)
def test_sweep_rows_equal_their_one_row_calls(K, n_points):
    # a sweep accounts and certifies its solved rows in passes after the
    # solves; each row must have the bytes of welfare and
    # verify_optimality called on its solve at its k
    solved = 0
    for vals, prior in _seeded_markets(K, 3, seed=160 + K):
        grid = KGridSpec(1e-3 * vals[0], 1e2 * vals[-1], n_points)
        for row in sweep_k(vals, prior, grid).rows:
            if row.error is not None:
                continue
            solved += 1
            seg = solve(MarketInstance(vals, prior, row.k))
            assert repr(row.report) == repr(welfare(seg, vals, row.k, price_tol=SWEEP_PRICE_TOL))
            assert repr(row.verify) == repr(verify_optimality(seg, vals, row.k))
    assert solved >= 2 * n_points


def test_sweep_raises_the_first_failing_row_in_grid_order(monkeypatch):
    vals, prior = Valuations((1.0, 2.0)), Market((0.4, 0.6))
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]

    def mispriced(inst):
        if inst.k == 0.1:
            raise SolverError("no convergence")
        if inst.k == 0.3:  # price 1 where price 2 earns 0.2 more
            return Segmentation(inst.mu_star, [Segment(inst.mu_star, 1.0, 0)])
        if inst.k == 0.5:  # the second segment is the mispriced one
            return Segmentation(inst.mu_star, [Segment(inst.mu_star, 0.5, 1), Segment(inst.mu_star, 0.5, 0)])
        return solve(inst)

    monkeypatch.setattr(sweeps, "solve", mispriced)
    want = _outcome(welfare, mispriced(MarketInstance(vals, prior, 0.3)), vals, 0.3, price_tol=SWEEP_PRICE_TOL)
    assert want[1] == "segment_price_optimality" and "segment 0 " in want[2]
    assert _outcome(sweep_k, vals, prior, grid) == want
    # without the failing rows the SolverError row is recorded and the sweep goes on
    table = sweep_k(vals, prior, [0.1, 0.2, 0.4])
    assert [r.error for r in table.rows] == ["no convergence", None, None]
