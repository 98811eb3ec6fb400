"""Concentration, diversification and replication statistics."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from phosmarket.core import MarketInstance
from phosmarket.experiment import (
    BootstrapDraw,
    ExperimentError,
    ReplicationResult,
    aggregate,
)
from phosmarket.metrics import MarketStructure, structure, summary
from report_rows import table_rows


def instance(m, n, s, d):
    return MarketInstance(
        s=tuple(s),
        d=tuple(d),
        a=0,
        c_o=(10,) * n,
        t=tuple((0,) * n for _ in range(m)),
    )


# Market 1 of the concentration examples buys all its demand locally: a
# structure needs two markets.


def test_concentration_monopoly_is_one():
    inst = instance(2, 2, [6, 6], [6, 6])
    sole = ((6, 0), (0, 0))
    assert structure(sole, inst).concentration == pytest.approx((1.0, 1.0))
    all_local = ((0, 0), (0, 0))
    assert structure(all_local, inst).concentration == pytest.approx((1.0, 1.0))


def test_concentration_equal_shares_is_zero():
    inst = instance(5, 2, [1] * 5, [6, 6])
    flows = ((1, 0),) * 5  # five imports plus one local unit
    assert structure(flows, inst).concentration[0] == pytest.approx(0.0)


def test_concentration_half_local_half_single_supplier():
    inst = instance(5, 2, [5] * 5, [10, 10])
    flows = ((5, 0), (0, 0), (0, 0), (0, 0), (0, 0))
    assert structure(flows, inst).concentration[0] == pytest.approx(0.4)


@given(
    st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=20),
)
def test_concentration_stays_in_unit_interval(imports, local):
    d = sum(imports) + local
    if d == 0:
        return
    m = len(imports)
    inst = instance(m, 2, [max(q, 1) for q in imports], [d, 1])
    flows = tuple((q, 0) for q in imports)
    value = structure(flows, inst).concentration[0]
    assert -1e-12 <= value <= 1 + 1e-12


def test_diversification_single_market_is_zero():
    inst = instance(1, 3, [4], [4, 4, 4])
    flows = ((4, 0, 0),)
    assert structure(flows, inst).diversification[0] == pytest.approx(0.0)


def test_diversification_equal_split_is_one():
    inst = instance(1, 4, [8], [4, 4, 4, 4])
    flows = ((2, 2, 2, 2),)
    assert structure(flows, inst).diversification[0] == pytest.approx(1.0)


def test_diversification_two_of_nine_split():
    inst = instance(1, 9, [8], [8] * 9)
    flows = ((4, 4, 0, 0, 0, 0, 0, 0, 0),)
    assert structure(flows, inst).diversification[0] == pytest.approx(0.5625, abs=1e-12)


def test_diversification_undefined_when_unsold():
    inst = instance(1, 2, [4], [4, 4])
    flows = ((0, 0),)
    assert structure(flows, inst).diversification == (None,)


def test_local_share_examples():
    inst = instance(1, 2, [4], [4, 4])
    assert structure(((0, 0),), inst).local_share == pytest.approx((1.0, 1.0))
    assert structure(((4, 0),), inst).local_share == pytest.approx((0.0, 1.0))
    assert structure(((1, 0),), inst).local_share == pytest.approx((0.75, 1.0))


def test_global_share_examples():
    flows = ((0, 0), (3, 2))
    inst = instance(2, 2, [5, 5], [25, 25])
    assert structure(flows, inst).global_share == pytest.approx((0.0, 0.10))
    sole = ((2, 3),)
    assert structure(sole, instance(1, 2, [5], [2, 3])).global_share == pytest.approx((1.0,))


def test_shares_account_for_all_demand():
    inst = instance(2, 2, [3, 3], [4, 5])
    flows = ((2, 1), (0, 3))
    stats = structure(flows, inst)
    total = sum(inst.d)
    local_weighted = sum(share * d / total for share, d in zip(stats.local_share, inst.d))
    assert sum(stats.global_share) + local_weighted == pytest.approx(1.0)


def test_structure_rows_are_consistent():
    inst = instance(2, 2, [3, 3], [4, 5])
    flows = ((2, 1), (0, 3))
    stats = structure(flows, inst)
    for j in range(inst.n):
        imported = sum(row[j] for row in flows) / inst.d[j]
        assert stats.local_share[j] + imported == pytest.approx(1.0)
    for i in range(inst.m):
        assert sum(flows[i]) == inst.s[i] == 3
        assert stats.global_share[i] == pytest.approx(3 / 9)


@settings(max_examples=200)
@given(st.data())
def test_structure_equals_the_per_index_formulas(data):
    # Suppliers may sell nothing and markets may import nothing; every
    # statistic must equal the reference formula's float bit for bit.
    m = data.draw(st.integers(min_value=1, max_value=5), label="m")
    n = data.draw(st.integers(min_value=2, max_value=5), label="n")
    unsold = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="unsold")
    unserved = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="unserved")
    flows = tuple(
        tuple(
            0 if unsold[i] or unserved[j] else data.draw(st.integers(0, 6))
            for j in range(n)
        )
        for i in range(m)
    )
    local = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n), label="local")
    spare = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m), label="spare")
    d = [max(1, sum(row[j] for row in flows) + local[j]) for j in range(n)]
    s = [max(1, sum(flows[i]) + spare[i]) for i in range(m)]
    inst = instance(m, n, s, d)
    assert structure(flows, inst) == MarketStructure(
        tuple(oracle.concentration(j, flows, inst) for j in range(n)),
        tuple(oracle.local_share(j, flows, inst) for j in range(n)),
        tuple(oracle.diversification(i, flows, inst) for i in range(m)),
        tuple(oracle.global_supplier_share(i, flows, inst.d) for i in range(m)),
    )


def test_summary_conventions():
    assert summary([0.5]) == (0.5, 0.0, 1)
    mean, sd, count = summary([0.10, 0.14])
    assert mean == pytest.approx(0.12)
    assert sd == pytest.approx(math.sqrt(0.0008), abs=1e-12)
    assert count == 2
    assert summary([None, 0.5, None]) == (0.5, 0.0, 1)
    assert summary([]) == summary([None]) == (None, None, 0)


def cost_report(cost_draws, *, m, n, scale):
    """The report ``aggregate`` builds from replications that differ only in trade costs.

    ``cost_draws`` holds one m x n table per replication, in minor units
    with ``None`` on pairs closed to trade.
    """
    config = SimpleNamespace(unit_kt=1000.0, money_scale=scale)
    context = SimpleNamespace(
        config=config,
        suppliers=tuple(f"s{i}" for i in range(m)),
        regions=tuple(f"r{j}" for j in range(n)),
    )
    results = [
        ReplicationResult(
            draw=BootstrapDraw(b, (1,) * n, (1,) * m, t, 0, (0,) * n, 0),
            markups=(0,) * m,
            flows=((0,) * n,) * m,
        )
        for b, t in enumerate(cost_draws)
    ]
    return aggregate(context, results)


def test_cost_tables_two_replications():
    draws = [
        ((10, None), (14, 20)),
        ((14, None), (10, 22)),
    ]
    report = cost_report(draws, m=2, n=2, scale=100)
    costs = table_rows(report, "trade_costs")
    assert costs[0]["s0_mean"] == pytest.approx(0.12)
    assert costs[0]["s0_sd"] == pytest.approx(math.sqrt(0.0008), abs=1e-12)
    assert costs[1]["s0_mean"] is None and costs[1]["s0_sd"] is None
    # per-market floor: mean over draws of the cheapest open cost
    floors = table_rows(report, "entry_floor")
    assert floors[0]["mean_min_cost"] == pytest.approx((0.10 + 0.10) / 2)
    assert floors[1]["mean_min_cost"] == pytest.approx((0.20 + 0.22) / 2)


def test_cost_tables_single_replication_has_zero_sd():
    report = cost_report([((10, 20),)], m=1, n=2, scale=100)
    assert [row["s0_sd"] for row in table_rows(report, "trade_costs")] == [0.0, 0.0]


def test_cost_tables_need_replications():
    with pytest.raises(ExperimentError):
        cost_report([], m=1, n=2, scale=100)
