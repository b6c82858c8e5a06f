"""JSON schemas: round trips and error diagnostics."""

import json

import numpy as np
import pytest

from segmentix import (
    Market,
    MarketInstance,
    Segment,
    Segmentation,
    ValidationError,
    Valuations,
    solve,
    solve_binary,
)
from segmentix import files
from segmentix.files import FileFormatError

V12 = Valuations((1.0, 2.0))


def write(tmp_path, name, payload) -> str:
    p = tmp_path / name
    if isinstance(payload, str):
        p.write_text(payload)
    else:
        p.write_text(json.dumps(payload))
    return str(p)


# -------------------- instances --------------------

def test_instance_round_trip(tmp_path):
    path = write(tmp_path, "inst.json", {"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 0.8})
    inst = files.load_market_instance(path)
    assert tuple(inst.vals.values) == (1.0, 2.0)
    assert tuple(inst.mu_star.weights) == (0.4, 0.6)
    assert inst.k == 0.8


def test_instance_missing_field(tmp_path):
    path = write(tmp_path, "inst.json", {"mu": [0.4, 0.6], "k": 0.8})
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert "missing field 'valuations'" in str(err.value)


def test_instance_unknown_field(tmp_path):
    path = write(
        tmp_path, "inst.json", {"valuations": [1, 2], "mu": [0.4, 0.6], "k": 0.8, "extra": 1}
    )
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert "unknown field 'extra'" in str(err.value)


def test_instance_type_error_names_entry(tmp_path):
    path = write(tmp_path, "inst.json", {"valuations": [1, "two"], "mu": [0.4, 0.6], "k": 0.8})
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert err.value.message == f"{path}: field 'valuations[1]' must be a number, got str"


def test_instance_bool_is_not_a_number(tmp_path):
    path = write(tmp_path, "inst.json", {"valuations": [1, 2], "mu": [0.4, 0.6], "k": True})
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert "'k'" in str(err.value)


BIG = "1" + "0" * 400  # a JSON integer past the largest double


@pytest.mark.parametrize(
    "text,field",
    [
        ('{"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": %s}' % BIG, "'k'"),
        ('{"valuations": [1.0, %s], "mu": [0.4, 0.6], "k": 0.8}' % BIG, "'valuations[1]'"),
        ('{"valuations": [1.0, 2.0], "mu": [%s, 0.6], "k": 0.8}' % BIG, "'mu[0]'"),
    ],
    ids=["k", "valuations", "mu"],
)
def test_instance_integer_too_large_for_a_float_names_its_field(tmp_path, text, field):
    path = write(tmp_path, "inst.json", text)
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert err.value.invariant == "file_format"
    assert err.value.message == f"{path}: field {field} is an integer too large for a float"


def test_segmentation_prior_too_large_for_a_float_names_its_field(tmp_path):
    path = write(tmp_path, "seg.json", '{"prior": [%s, 0.6], "segments": []}' % BIG)
    with pytest.raises(FileFormatError) as err:
        files.load_segmentation(path, V12)
    assert err.value.message == f"{path}: field 'prior[0]' is an integer too large for a float"


def test_integer_past_the_digit_limit_is_a_file_format_error(tmp_path):
    path = write(tmp_path, "inst.json", '{"valuations": [1.0, 2.0], "mu": [0.4, 0.6], "k": 1%s}' % ("0" * 5000))
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert err.value.invariant == "file_format" and "digits" in err.value.message


def test_file_not_utf8_is_a_file_format_error(tmp_path):
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"valuations": [1.0, 2.0], "k": "\xff"}')
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(str(path))
    assert err.value.invariant == "file_format" and "utf-8" in err.value.message


def test_instance_semantic_error_keeps_invariant(tmp_path):
    path = write(tmp_path, "inst.json", {"valuations": [2.0, 1.0], "mu": [0.4, 0.6], "k": 0.8})
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert err.value.invariant == "valuations_increasing"
    assert err.value.message.startswith(f"{path}: valuations must be strictly increasing")


def test_instance_length_mismatch(tmp_path):
    path = write(tmp_path, "inst.json", {"valuations": [1, 2, 3], "mu": [0.4, 0.6], "k": 0.8})
    with pytest.raises(FileFormatError) as err:
        files.load_market_instance(path)
    assert "2 entries" in str(err.value)


def test_malformed_json_reports_position(tmp_path):
    path = write(tmp_path, "bad.json", '{\n  "valuations": [1, 2],\n  ,\n}')
    with pytest.raises(FileFormatError) as err:
        files.read_json(path)
    assert "line 3" in str(err.value)


def test_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        files.read_json(str(tmp_path / "nope.json"))


def test_sweep_instance_k_optional(tmp_path):
    path = write(tmp_path, "inst.json", {"valuations": [1, 2], "mu": [0.4, 0.6]})
    vals, mu = files.load_sweep_instance(path)
    assert tuple(vals.values) == (1.0, 2.0)
    assert tuple(mu.weights) == (0.4, 0.6)
    # a present k is tolerated on sweep input
    path2 = write(tmp_path, "inst2.json", {"valuations": [1, 2], "mu": [0.4, 0.6], "k": 3.0})
    files.load_sweep_instance(path2)


# -------------------- segmentations --------------------

def test_segmentation_round_trip(tmp_path):
    seg = solve_binary(MarketInstance(V12, Market((0.4, 0.6)), 0.8))
    path = write(tmp_path, "seg.json", files.segmentation_to_dict(seg, V12))
    back = files.load_segmentation(path, V12)
    assert back.prior.weights == seg.prior.weights
    for a, b in zip(back.segments, seg.segments):
        assert a.price_index == b.price_index
        assert a.weight == pytest.approx(b.weight, abs=1e-15)
        assert a.market.weights == pytest.approx(b.market.weights, abs=1e-15)


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_solve_output_reads_back_unchanged(K):
    # a written segmentation must load as the one solve returned, bit for bit,
    # so verify --instance certifies the numbers solve wrote
    rng = np.random.default_rng([7, K])
    for _ in range(100):
        vals = Valuations(np.cumsum(rng.uniform(0.2, 2.0, K)).tolist())
        mu = Market(rng.dirichlet(np.ones(K)).tolist())
        k = vals[K - 1] * 10 ** rng.uniform(-2.0, 0.0)
        seg = solve(MarketInstance(vals, mu, k))
        text = files.dump_json(files.segmentation_to_dict(seg, vals))
        assert files.parse_segmentation(json.loads(text), vals, "seg.json") == seg, (vals, mu, k)


def test_segmentation_price_resolves_by_value(tmp_path):
    payload = {
        "prior": [0.4, 0.6],
        "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 2.0 + 1e-12}],
    }
    path = write(tmp_path, "seg.json", payload)
    seg = files.load_segmentation(path, V12)
    assert seg.segments[0].price_index == 1


def test_segmentation_unmatched_price(tmp_path):
    payload = {
        "prior": [0.4, 0.6],
        "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 1.5}],
    }
    path = write(tmp_path, "seg.json", payload)
    with pytest.raises(FileFormatError) as err:
        files.load_segmentation(path, V12)
    assert "segments[0]" in str(err.value)
    assert "1.5" in str(err.value)


def test_segmentation_bayes_violation_keeps_invariant(tmp_path):
    payload = {
        "prior": [0.4, 0.6],
        "segments": [{"mu": [0.5, 0.5], "weight": 1.0, "price": 2.0}],
    }
    path = write(tmp_path, "seg.json", payload)
    with pytest.raises(FileFormatError) as err:
        files.load_segmentation(path, V12)
    assert err.value.invariant == "bayes_plausibility"


def test_segmentation_prior_length_checked(tmp_path):
    payload = {
        "prior": [0.2, 0.3, 0.5],
        "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 2.0}],
    }
    path = write(tmp_path, "seg.json", payload)
    with pytest.raises(FileFormatError) as err:
        files.load_segmentation(path, V12)
    assert "'prior' has 3 entries" in str(err.value)


def test_structure_parse_keeps_raw_prices(tmp_path):
    payload = {
        "prior": [0.4, 0.6],
        "segments": [{"mu": [0.4, 0.6], "weight": 1.0, "price": 7.25}],
    }
    prior, triples = files.parse_segmentation_structure(payload, "mem")
    assert tuple(prior.weights) == (0.4, 0.6)
    assert triples[0][1] == 1.0
    assert triples[0][2] == 7.25


# -------------------- targets and cost specs --------------------

def test_target_round_trip(tmp_path):
    path = write(
        tmp_path, "t.json", {"cs": 0.2, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]}
    )
    target = files.load_rationalization_target(path)
    assert target.cs == 0.2
    assert target.ps == 1.1


def test_target_region_error_keeps_invariant(tmp_path):
    path = write(
        tmp_path, "t.json", {"cs": 0.0, "ps": 1.1, "valuations": [1, 2], "mu": [0.6, 0.4]}
    )
    with pytest.raises(FileFormatError) as err:
        files.load_rationalization_target(path)
    assert err.value.invariant == "rationalizable_region"


def test_cost_spec_round_trip(tmp_path):
    from segmentix import RationalizationTarget, construct_cost, induced_segments

    target = RationalizationTarget(cs=0.2, ps=1.1, vals=V12, mu_star=Market((0.6, 0.4)))
    seg = induced_segments(target)
    spec = construct_cost(seg.mu1, seg.mu2, seg.tau1, V12, target.mu_star)
    path = write(tmp_path, "c.json", files.cost_spec_to_dict(spec))
    back = files.load_cost_spec(path)
    assert back.knots == spec.knots
    assert back.quadratics == spec.quadratics


def test_cost_spec_shape_diagnostics(tmp_path):
    path = write(tmp_path, "c.json", {"knots": [0.0, 1.0], "quadratics": [[1.0, 0.0]]})
    with pytest.raises(FileFormatError) as err:
        files.load_cost_spec(path)
    assert "quadratics[0]" in str(err.value)


@pytest.mark.parametrize("text,field", [
    ('{"knots": [0.0, %s], "quadratics": [[1.0, 0.0, 0.0]]}' % BIG, "'knots[1]'"),
    ('{"knots": [0.0, 1.0], "quadratics": [[1.0, %s, 0.0]]}' % BIG, "'quadratics[0][1]'"),
], ids=["knots", "quadratics"])
def test_cost_spec_integer_too_large_for_a_float_names_its_field(tmp_path, text, field):
    path = write(tmp_path, "c.json", text)
    with pytest.raises(FileFormatError) as err:
        files.load_cost_spec(path)
    assert err.value.message == f"{path}: field {field} is an integer too large for a float"


def test_cost_spec_type_error_names_entry(tmp_path):
    path = write(tmp_path, "c.json", {"knots": [0.0, 1.0], "quadratics": [[1.0, "b", 0.0]]})
    with pytest.raises(FileFormatError) as err:
        files.load_cost_spec(path)
    assert err.value.message == f"{path}: field 'quadratics[0][1]' must be a number, got str"


def test_cost_spec_convexity_error_keeps_invariant(tmp_path):
    path = write(tmp_path, "c.json", {"knots": [0.0, 1.0], "quadratics": [[-1.0, 0.0, 0.0]]})
    with pytest.raises(FileFormatError) as err:
        files.load_cost_spec(path)
    assert err.value.invariant == "cost_convexity"


# -------------------- dump determinism --------------------

def test_dump_json_is_sorted_and_newline_terminated():
    text = files.dump_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_file_errors_are_validation_errors():
    assert issubclass(FileFormatError, ValidationError)
