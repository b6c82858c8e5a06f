"""Core market types and welfare accounting.

A market is a distribution over a finite ladder of buyer valuations. The
seller posts one price per segment; a buyer purchases whenever her valuation
weakly exceeds the posted price. Everything downstream (solvers, sweeps,
rationalization) is built on the primitives defined here.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

# Tolerances used by the constructors. These are part of the contract:
# inputs inside the tolerance are normalized, inputs outside are rejected.
WEIGHT_SUM_TOL = 1e-12
SEGMENT_WEIGHT_SUM_TOL = 1e-10
BAYES_TOL = 1e-9
PRICE_OPT_TOL = 1e-10

# exp() overflows just above 709; payoff/cost ratios past this point are
# indistinguishable from the zero-cost limit in double precision.
EXP_OVERFLOW = 700.0


class ValidationError(ValueError):
    """Raised when a constructor or checker rejects its input.

    ``invariant`` carries a stable machine-readable name for the violated
    condition (e.g. ``"bayes_plausibility"``); the CLI surfaces it verbatim.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant
        self.message = message


class SolverError(RuntimeError):
    """A solver's failure. No solver raises it (both are closed forms); the CLI maps it to exit code 3.

    It lives here, not in ``solver``, so a caller can catch it without
    loading the solver; ``segmentix.solver`` re-exports it.
    """


_set = object.__setattr__  # how a constructor sets its read-only fields


class _Frozen:
    """Read-only ``_fields``, set once in ``__init__``; ``==`` (within a class), ``hash``, ``repr`` and pickling read them."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self._fields])})"

    def __reduce__(self):
        return type(self), self._values()


class Valuations(_Frozen):
    """Strictly increasing positive valuation ladder ``values``: a tuple of floats, one per buyer type."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: Sequence[float]):
        vals = tuple(map(float, values))
        if len(vals) < 2:
            raise ValidationError("valuations_size", "need at least two types")
        if vals[0] <= 0.0:
            raise ValidationError("valuations_positive", f"lowest valuation must be > 0, got {vals[0]}")
        if not all(map(math.isfinite, vals)):
            raise ValidationError("valuations_finite", "valuations must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("valuations_increasing", f"valuations must be strictly increasing, got {vals}")
        _set(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.values, dtype=float)


class Market(_Frozen):
    """Probability vector over buyer types, in a normal form: its weights ``fsum`` to exactly 1.

    Weights must be nonnegative and sum to one within ``WEIGHT_SUM_TOL``;
    anything else is rejected. Inputs inside the tolerance whose ``fsum``
    is not 1 are divided by it. If the quotients still do not ``fsum`` to
    1, their first largest weight is replaced by ``fsum([1, -others])``,
    which rounds by at most 2⁻⁵⁴, so the new ``fsum`` rounds to 1. So
    ``Market(m.weights) == m`` for every market ``m``.
    """

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: Sequence[float]):
        w = tuple(map(float, weights))
        if len(w) < 2:
            raise ValidationError("market_size", "need at least two type weights")
        if not all(map(math.isfinite, w)):
            raise ValidationError("market_finite", "weights must be finite")
        if min(w) < 0.0:  # with NaN out, the least weight is negative iff any is
            raise ValidationError("market_nonnegative", f"weights must be >= 0, got {w}")
        total = math.fsum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError("market_weight_sum", f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        if total != 1.0:
            w = [x / total for x in w]
            if math.fsum(w) != 1.0:
                top = w.index(max(w))
                w[top] = 0.0
                w[top] = math.fsum([1.0, *[-x for x in w]])
            w = tuple(w)
        _set(self, "weights", w)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> float:
        return self.weights[i]

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.weights, dtype=float)


class Segment(_Frozen):
    """One cell of a segmentation: a market, its mass, and the price charged.

    ``price_index`` indexes into the valuation ladder. Whether that price is
    revenue-maximal on ``market`` can only be checked against a concrete
    ladder; see :func:`check_segment_prices`.
    """

    __slots__ = _fields = ("market", "weight", "price_index")

    def __init__(self, market: Market, weight: float, price_index: int):
        if type(weight) is bool or not (weight > 0.0 and weight <= 1.0 + SEGMENT_WEIGHT_SUM_TOL):
            raise ValidationError("segment_weight", f"segment weight must lie in (0, 1], got {weight}")
        if price_index < 0 or price_index >= len(market.weights):
            raise ValidationError("segment_price_index", f"price index {price_index} out of range")
        _set(self, "market", market)
        _set(self, "weight", weight)
        _set(self, "price_index", price_index)


class Segmentation(_Frozen):
    """Bayes-plausible split of a prior market into priced segments.

    Invariants enforced at construction: segment weights sum to one within
    ``SEGMENT_WEIGHT_SUM_TOL``, the weighted segment markets average back to
    the prior within ``BAYES_TOL`` per coordinate, and there are at most as
    many segments as buyer types. ``bayes_residual``, the largest coordinate
    gap between the weighted segments and the prior, is computed once, at
    construction, and stored, outside ``==``, ``hash`` and ``repr``.
    """

    _fields = ("prior", "segments")
    __slots__ = (*_fields, "bayes_residual")

    def __init__(self, prior: Market, segments: Sequence[Segment]):
        segs = tuple(segments)
        if not segs:
            raise ValidationError("segmentation_empty", "need at least one segment")
        k = len(prior.weights)
        for s in segs:
            if len(s.market.weights) != k:
                raise ValidationError("segmentation_shape", "all segment markets must match the prior's length")
        if len(segs) > k:
            raise ValidationError("segmentation_support", f"{len(segs)} segments exceed {k} types")
        total = math.fsum([s.weight for s in segs])
        if abs(total - 1.0) > SEGMENT_WEIGHT_SUM_TOL:
            raise ValidationError("segmentation_weight_sum", f"segment weights sum to {total!r}")
        mixed = [0.0] * k
        for s in segs:
            c = s.weight
            mixed = [m + c * x for m, x in zip(mixed, s.market.weights)]
        resid = max([abs(m - x) for m, x in zip(mixed, prior.weights)])
        if resid > BAYES_TOL:
            raise ValidationError("bayes_plausibility", f"weighted segments miss the prior by {resid:.3e}")
        _set(self, "prior", prior)
        _set(self, "segments", segs)
        _set(self, "bayes_residual", resid)

    def price_indices(self) -> tuple[int, ...]:
        return tuple(s.price_index for s in self.segments)


class WelfareReport(NamedTuple):
    """Surplus split of a priced segmentation.

    ``ps_gross`` is seller revenue before information costs, ``ps_net``
    after. ``ts_gross``/``ts_net`` pair consumer surplus with each.
    """

    cs: float
    ps_gross: float
    info_cost: float
    ps_net: float
    ts_gross: float
    ts_net: float
    segmented: bool


class MarketInstance(_Frozen):
    """A prior market, its valuation ladder, and the information cost scale."""

    __slots__ = _fields = ("vals", "mu_star", "k")

    def __init__(self, vals: Valuations, mu_star: Market, k: float):
        if len(vals.values) != len(mu_star.weights):
            raise ValidationError("instance_shape", "valuations and weights must have equal length")
        if type(k) is bool or not (math.isfinite(k) and k >= 0.0):
            raise ValidationError("cost_scale", f"k must be finite and >= 0, got {k}")
        _set(self, "vals", vals)
        _set(self, "mu_star", mu_star)
        _set(self, "k", k)


def seller_payoff(price: float, valuation: float) -> float:
    """Revenue from one buyer: the price if she buys, zero otherwise."""
    return price if valuation >= price else 0.0


def buyer_payoff(price: float, valuation: float) -> float:
    """Surplus for one buyer: valuation minus price if she buys, zero otherwise."""
    return valuation - price if valuation >= price else 0.0


def revenue(market: Market, vals: Valuations, price_index: int) -> float:
    """Expected revenue on ``market`` when charging ``vals[price_index]``.

    Buyers with valuation at or above the price purchase, so revenue is the
    price times the upper tail mass.
    """
    if price_index < 0 or price_index >= len(vals):
        raise ValidationError("price_index", f"price index {price_index} out of range")
    if len(market) != len(vals):
        raise ValidationError("instance_shape", f"{len(market)} weights against {len(vals)} valuations")
    return vals[price_index] * _tail_mass(market.weights, price_index)


def _tail_mass(weights: Sequence[float], j: int) -> float:
    """The mass of the buyers at price index j: the types from j up, as valuations strictly increase."""
    return math.fsum(weights[j:])


def _tail_revenues(weights: Sequence[float], values: Sequence[float]) -> list[float]:
    """values[j] times the mass at or above it, tails summed from the top down as np.cumsum sums them."""
    if len(weights) != len(values):
        raise ValidationError("instance_shape", f"{len(weights)} weights against {len(values)} valuations")
    tail = -0.0  # the additive identity, so the first tail is the top weight itself
    rev = [0.0] * len(values)
    for j in reversed(range(len(values))):
        tail += weights[j]
        rev[j] = values[j] * tail
    return rev


def all_revenues(market: Market, vals: Valuations) -> np.ndarray:
    """Revenue at every candidate price (running tail sums)."""
    import numpy as np

    return np.array(_tail_revenues(market.weights, vals.values))


def optimal_price(market: Market, vals: Valuations) -> int:
    """Index of the revenue-maximizing price, lowest index on ties."""
    rev = _tail_revenues(market.weights, vals.values)
    return rev.index(max(rev))  # the first maximizer, as np.argmax finds it


def price_region(market: Market, vals: Valuations) -> tuple[int, ...]:
    """All price indices whose revenue is within ``PRICE_OPT_TOL`` of the maximum."""
    rev = _tail_revenues(market.weights, vals.values)
    best = max(rev)
    return tuple(i for i, r in enumerate(rev) if r >= best - PRICE_OPT_TOL)


def check_segment_prices(seg: Segmentation, vals: Valuations, tol: float = PRICE_OPT_TOL) -> None:
    """Reject any segment whose assigned price is not revenue-maximal within ``tol``."""
    for idx, s in enumerate(seg.segments):
        rev = _tail_revenues(s.market.weights, vals.values)
        best = max(rev)
        if rev[s.price_index] < best - tol:
            raise ValidationError(
                "segment_price_optimality",
                f"segment {idx} charges index {s.price_index} but better prices exist (gap {best - rev[s.price_index]:.3e})",
            )


def binary_entropy(x: float) -> float:
    """Entropy in nats of a two-type market whose second share is ``x``; 0 at and beyond the ends."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log1p(-x))


def entropy(market: Market | Sequence[float]) -> float:
    """Shannon entropy of a weight vector in nats: ``-fsum(x * log(x))`` over its positive weights."""
    w = market.weights if isinstance(market, Market) else market
    return -math.fsum([x * math.log(x) for x in w if x > 0.0])


def net_segment_value(market: Market, vals: Valuations, k: float) -> float:
    """Maximal revenue on the market plus its entropy credit ``k * H``.

    This is the quantity whose expectation the seller maximizes over
    Bayes-plausible splits; the entropy credit is what makes information
    about nearly-degenerate segments expensive to produce.
    """
    return max(_tail_revenues(market.weights, vals.values)) + k * entropy(market)


def net_objective(seg: Segmentation, vals: Valuations, k: float) -> float:
    """Expected revenue minus information cost at the assigned prices.

    Unlike :func:`welfare` this does not insist the assigned prices are
    revenue-maximal, so it can score arbitrary candidate segmentations.
    """
    total = 0.0
    for s in seg.segments:
        total += s.weight * (revenue(s.market, vals, s.price_index) + k * entropy(s.market))
    return total - k * entropy(seg.prior)


_last_whole: tuple = (None, None, None)  # no_segmentation's latest (mu_star, vals, result)


def no_segmentation(mu_star: Market, vals: Valuations) -> Segmentation:
    """The degenerate segmentation: the prior itself at its best uniform price.

    A call with the very objects of the previous call (``is``, not ``==``)
    returns the previous result, so the rows of a sweep that keep the prior
    whole share one object. That is safe because a ``Segmentation`` cannot
    change, and exact because the memo holds its ``mu_star`` and ``vals``, so
    no other object can take their identities.
    """
    global _last_whole
    last_mu, last_vals, seg = _last_whole
    if last_mu is mu_star and last_vals is vals:
        return seg
    seg = Segmentation(mu_star, [Segment(mu_star, 1.0, optimal_price(mu_star, vals))])
    _last_whole = (mu_star, vals, seg)
    return seg


def perfect_discrimination(mu_star: Market, vals: Valuations) -> Segmentation:
    """Fully revealing segmentation: one degenerate segment per supported type.

    Each buyer type is isolated and charged exactly its valuation, which is
    the zero-information-cost limit of the seller's problem.
    """
    k = len(mu_star)
    segments = []
    for i, w in enumerate(mu_star.weights):
        if w <= 0.0:
            continue
        point = [0.0] * k
        point[i] = 1.0
        segments.append(Segment(Market(point), w, i))
    return Segmentation(mu_star, segments)


def uniform_report(mu_star: Market, vals: Valuations) -> WelfareReport:
    """Welfare when the seller does not segment and charges the single best price."""
    return welfare(no_segmentation(mu_star, vals), vals, 0.0)


class SurplusTriangle(NamedTuple):
    """Feasible (CS, PS) region: CS ≥ 0, PS ≥ uniform profit, CS + PS ≤ full surplus."""

    uniform_profit: float
    full_surplus: float
    max_cs: float

    @property
    def vertices(self) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float]]:
        return (
            (0.0, self.uniform_profit),
            (self.max_cs, self.uniform_profit),
            (0.0, self.full_surplus),
        )

    def contains(self, cs: float, ps: float) -> bool:
        """Membership with float slack: 1e-12 on CS, 1e-9 on PS and on CS + PS."""
        return cs >= -1e-12 and ps >= self.uniform_profit - 1e-9 and cs + ps <= self.full_surplus + 1e-9


def surplus_triangle(mu_star: Market, vals: Valuations) -> SurplusTriangle:
    """Bounds on (CS, gross PS) under any segmentation of the prior."""
    uniform = max(_tail_revenues(mu_star.weights, vals.values))
    full = math.fsum(w * v for w, v in zip(mu_star.weights, vals.values))
    return SurplusTriangle(uniform_profit=uniform, full_surplus=full, max_cs=full - uniform)


def welfare(seg: Segmentation, vals: Valuations, k: float, price_tol: float = PRICE_OPT_TOL) -> WelfareReport:
    """Split total surplus of a priced segmentation into its welfare accounts.

    Consumer surplus and gross seller revenue are expectations over segments
    at each segment's own price. The information cost is ``k`` times the
    expected entropy reduction relative to the prior; it is subtracted from
    gross revenue to obtain the seller's net payoff. ``k`` must be finite
    and >= 0.

    ``price_tol`` bounds how far each segment's assigned price may fall short
    of revenue-maximal. It must be >= 0: a NaN or negative one raises
    ``ValidationError("tolerance")``, as a NaN would pass every price.
    """
    if not (math.isfinite(k) and k >= 0.0):
        raise ValidationError("cost_scale", f"k must be finite and >= 0, got {k}")
    if not price_tol >= 0.0:
        raise ValidationError("tolerance", f"price_tol must be >= 0, got {price_tol}")
    if seg.bayes_residual > BAYES_TOL:
        raise ValidationError("bayes_plausibility", f"residual {seg.bayes_residual:.3e} exceeds {BAYES_TOL}")
    check_segment_prices(seg, vals, price_tol)
    values = vals.values
    cs = 0.0
    ps_gross = 0.0
    avg_entropy = 0.0
    for c in seg.segments:
        # the buyers are the types from the price index up (see _tail_mass); a
        # type below it adds a signed zero, which no fsum reads
        j = c.price_index
        w = c.market.weights
        p = values[j]
        cs += c.weight * math.fsum([x * (v - p) for x, v in zip(w[j:], values[j:])])
        ps_gross += c.weight * (p * _tail_mass(w, j))
        avg_entropy += c.weight * entropy(w)
    info_cost = k * (entropy(seg.prior.weights) - avg_entropy)
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
