"""Domain type invariants and exact-arithmetic conventions."""

import pytest

from phosmarket.core import (
    FlowMatrix,
    MarketInstance,
    quantize,
    to_minor,
    validate_flows,
    validate_instance,
)
from phosmarket.metrics import local_share


def small_instance(**overrides):
    fields = dict(
        s=(2, 3),
        d=(3, 2),
        a=1,
        c_o=(10, 12),
        t=((2, 4), (3, 5)),
    )
    fields.update(overrides)
    return MarketInstance(**fields)


def test_valid_instance_has_empty_report():
    assert validate_instance(small_instance()) == []


def test_zero_demand_is_reported():
    report = validate_instance(small_instance(d=(0, 2)))
    assert any("demand must be >= 1" in issue for issue in report)


def test_zero_capacity_is_reported():
    report = validate_instance(small_instance(s=(0, 3)))
    assert any("capacity must be >= 1" in issue for issue in report)


def test_negative_trade_cost_is_reported():
    report = validate_instance(small_instance(t=((2, None), (-1, 5))))
    assert report == ["negative trade cost on pair (1, 0)"]


def test_nonpositive_local_cost_is_reported():
    report = validate_instance(small_instance(c_o=(0, 12)))
    assert any("local unit cost" in issue for issue in report)


def test_flow_validation_catches_each_violation():
    inst = small_instance(t=((2, None), (3, 5)))
    ok = FlowMatrix.from_rows([[1, 0], [1, 1]])
    assert validate_flows(ok, inst) == []

    over_capacity = FlowMatrix.from_rows([[2, 0], [2, 2]])
    assert any("capacity exceeded" in v for v in validate_flows(over_capacity, inst))

    masked = FlowMatrix.from_rows([[0, 1], [0, 0]])
    assert any("masked pair" in v for v in validate_flows(masked, inst))

    too_much = FlowMatrix.from_rows([[2, 0], [2, 0]])
    assert any("imports exceed demand" in v for v in validate_flows(too_much, inst))


def test_local_supply_is_derived_from_demand():
    inst = small_instance()
    flows = FlowMatrix.from_rows([[1, 0], [1, 1]])
    assert [local_share(j, flows, inst) * inst.d[j] for j in range(inst.n)] == [1, 1]


def test_quantize_rounds_half_up():
    assert quantize(49.9, 25.0) == 2
    assert quantize(12.5, 25.0) == 1
    assert quantize(12.4, 25.0) == 0
    with pytest.raises(ValueError):
        quantize(1.0, 0.0)


def test_money_roundtrip():
    assert to_minor(0.07, 100) == 7
    assert to_minor(0.005, 1000) == 5
    assert to_minor(-0.07, 100) == -7
    assert to_minor(7 / 100, 100) == 7
