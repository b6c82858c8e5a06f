"""JSON schemas for instances, segmentations, targets, and cost functions.

Every loader reports problems as FileFormatError with the offending file,
field path, and (for syntax errors) line and column, so the CLI can exit
with a uniform diagnostic. Dumps are deterministic: sorted keys, two-space
indent, trailing newline.

Schemas, with exact field names:

    MarketInstance          {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 0.8}
    Segmentation            {"prior": [...], "segments": [{"mu": [...], "weight": ..., "price": ...}]}
    RationalizationTarget   {"cs": ..., "ps": ..., "valuations": [...], "mu": [...]}
    ConvexCostSpec          {"knots": [...], "quadratics": [[a, b, c], ...]}

Prices in segmentation files are valuation values, not indices; loading
resolves them back against the instance's ladder.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections.abc import Iterator
from typing import TYPE_CHECKING, Any

from .market import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
)

if TYPE_CHECKING:
    from .rationalize import ConvexCostSpec, RationalizationTarget

# relative tolerance for matching a serialized price back to its valuation
PRICE_MATCH_RTOL = 1e-9


class FileFormatError(ValidationError):
    """A file failed JSON parsing or schema validation."""


def _fail(where: str, message: str) -> FileFormatError:
    return FileFormatError("file_format", f"{where}: {message}")


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _fail(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise _fail(path, f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise _fail(path, str(exc)) from exc


def dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require_object(data: Any, where: str, fields: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(data, dict):
        raise _fail(where, f"expected a JSON object, got {type(data).__name__}")
    for name in fields:
        if name not in data:
            raise _fail(where, f"missing field '{name}'")
    allowed = set(fields) | set(optional)
    for name in data:
        if name not in allowed:
            raise _fail(where, f"unknown field '{name}' (expected {sorted(allowed)})")
    return data


def _float(v: Any, field: str, where: str) -> float:
    """``v`` as a float; a bool, a non-number or an integer too large for a float fails naming ``field``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _fail(where, f"field '{field}' must be a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise _fail(where, f"field '{field}' is an integer too large for a float") from None


def _number(data: dict, field: str, where: str) -> float:
    v = _float(data[field], field, where)
    if not math.isfinite(v):
        raise _fail(where, f"field '{field}' must be finite, got {v}")
    return v


def _number_list(data: dict, field: str, where: str) -> list[float]:
    v = data[field]
    if not isinstance(v, list) or not v:
        raise _fail(where, f"field '{field}' must be a non-empty array")
    return [_float(item, f"{field}[{i}]", where) for i, item in enumerate(v)]


@contextlib.contextmanager
def _located(where: str) -> Iterator[None]:
    """Re-raise a constructor's ValidationError as a FileFormatError naming ``where``.

    The invariant name is kept; a FileFormatError already names its place
    and passes through unchanged.
    """
    try:
        yield
    except FileFormatError:
        raise
    except ValidationError as exc:
        raise FileFormatError(exc.invariant, f"{where}: {exc.message}") from exc


def _ladder_and_prior(obj: dict, where: str) -> tuple[Valuations, Market]:
    with _located(where):
        vals = Valuations(_number_list(obj, "valuations", where))
        mu = Market(_number_list(obj, "mu", where))
    if len(mu) != len(vals):
        raise _fail(where, f"'mu' has {len(mu)} entries but 'valuations' has {len(vals)}")
    return vals, mu


def parse_instance_fields(data: Any, where: str, require_k: bool) -> tuple[Valuations, Market, float | None]:
    fields = ("valuations", "mu", "k") if require_k else ("valuations", "mu")
    optional = () if require_k else ("k",)
    obj = _require_object(data, where, fields, optional)
    vals, mu = _ladder_and_prior(obj, where)
    k = _number(obj, "k", where) if "k" in obj else None
    return vals, mu, k


def load_market_instance(path: str) -> MarketInstance:
    vals, mu, k = parse_instance_fields(read_json(path), path, require_k=True)
    with _located(path):
        return MarketInstance(vals, mu, k)


def load_sweep_instance(path: str) -> tuple[Valuations, Market]:
    """Instance for a k-sweep; any 'k' field present is read but unused."""
    vals, mu, _ = parse_instance_fields(read_json(path), path, require_k=False)
    return vals, mu


def segmentation_to_dict(seg: Segmentation, vals: Valuations) -> dict:
    return {
        "prior": list(seg.prior.weights),
        "segments": [
            {"mu": list(s.market.weights), "weight": s.weight, "price": vals[s.price_index]}
            for s in seg.segments
        ],
    }


def _resolve_price(price: float, vals: Valuations, where: str) -> int:
    scale = max(1.0, abs(vals[len(vals) - 1]))
    for i in range(len(vals)):
        if abs(vals[i] - price) <= PRICE_MATCH_RTOL * scale:
            return i
    raise _fail(where, f"price {price} does not match any valuation in {tuple(vals.values)}")


def _segment_objects(obj: dict, where: str) -> Iterator[tuple[str, dict]]:
    """Yield (location, object) per entry of 'segments', each checked as it is reached."""
    raw_segments = obj["segments"]
    if not isinstance(raw_segments, list) or not raw_segments:
        raise _fail(where, "field 'segments' must be a non-empty array")
    for j, raw in enumerate(raw_segments):
        sub = f"{where}: segments[{j}]"
        yield sub, _require_object(raw, sub, ("mu", "weight", "price"))


def parse_segmentation(data: Any, vals: Valuations, where: str) -> Segmentation:
    obj = _require_object(data, where, ("prior", "segments"))
    with _located(where):
        prior = Market(_number_list(obj, "prior", where))
    if len(prior) != len(vals):
        raise _fail(where, f"'prior' has {len(prior)} entries but the valuation ladder has {len(vals)}")
    segments = []
    for sub, seg_obj in _segment_objects(obj, where):
        with _located(sub):
            market = Market(_number_list(seg_obj, "mu", sub))
            weight = _number(seg_obj, "weight", sub)
            price_index = _resolve_price(_number(seg_obj, "price", sub), vals, sub)
            segments.append(Segment(market, weight, price_index))
    with _located(where):
        return Segmentation(prior, segments)


def load_segmentation(path: str, vals: Valuations) -> Segmentation:
    return parse_segmentation(read_json(path), vals, path)


def parse_segmentation_structure(data: Any, where: str) -> tuple[Market, list[tuple[Market, float, float]]]:
    """Parse a segmentation file without a valuation ladder.

    Prices stay as raw numbers since there is nothing to resolve them
    against; callers get (prior, [(market, weight, price_value), ...]).
    """
    obj = _require_object(data, where, ("prior", "segments"))
    with _located(where):
        prior = Market(_number_list(obj, "prior", where))
    triples = []
    for sub, seg_obj in _segment_objects(obj, where):
        with _located(sub):
            market = Market(_number_list(seg_obj, "mu", sub))
        triples.append((market, _number(seg_obj, "weight", sub), _number(seg_obj, "price", sub)))
        if len(market) != len(prior):
            raise _fail(sub, f"'mu' has {len(market)} entries but the prior has {len(prior)}")
    return prior, triples


def load_rationalization_target(path: str) -> RationalizationTarget:
    from .rationalize import RationalizationTarget

    obj = _require_object(read_json(path), path, ("cs", "ps", "valuations", "mu"))
    vals, mu = _ladder_and_prior(obj, path)
    with _located(path):
        return RationalizationTarget(
            cs=_number(obj, "cs", path), ps=_number(obj, "ps", path), vals=vals, mu_star=mu
        )


def cost_spec_to_dict(spec: ConvexCostSpec) -> dict:
    return {
        "knots": list(spec.knots),
        "quadratics": [list(q) for q in spec.quadratics],
    }


def parse_cost_spec(data: Any, where: str) -> ConvexCostSpec:
    from .rationalize import ConvexCostSpec

    obj = _require_object(data, where, ("knots", "quadratics"))
    knots = _number_list(obj, "knots", where)
    raw_quads = obj["quadratics"]
    if not isinstance(raw_quads, list) or not raw_quads:
        raise _fail(where, "field 'quadratics' must be a non-empty array")
    quads = []
    for i, q in enumerate(raw_quads):
        if not isinstance(q, list) or len(q) != 3:
            raise _fail(where, f"field 'quadratics[{i}]' must be a 3-element array [a, b, c]")
        quads.append(tuple([_float(item, f"quadratics[{i}][{j}]", where) for j, item in enumerate(q)]))
    with _located(where):
        return ConvexCostSpec(knots=tuple(knots), quadratics=tuple(quads))


def load_cost_spec(path: str) -> ConvexCostSpec:
    return parse_cost_spec(read_json(path), path)
