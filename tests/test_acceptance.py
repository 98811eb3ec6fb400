"""Acceptance suite: one test per criterion, each printing a pass line.

Large published tables are not desk-reproducible (their inputs are closed
data), so the engine is certified instead by exact agreement with exhaustive
enumeration on randomized small instances, plus published-number fixtures
where arithmetic alone is involved.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from builders import seeded_stream
from oracle import (
    _bundles,
    _enumerated_values,
    _markup_vectors,
    _select_flows,
    brute_force_equilibrium,
    import_spend,
    valuation,
)
from phosmarket.auction import (
    _markup_bound,
    cold_start,
    local_spend,
    run_english_auction,
    solve_minimal_markups,
    verify_equilibrium,
)
from phosmarket.bootstrap import fit_two_stage, wild_bootstrap_demand
from phosmarket.config import ExperimentConfig
from phosmarket.core import Equilibrium, MarketInstance
from phosmarket.experiment import (
    assemble_draw,
    emit_tables,
    load_context,
    run_experiment,
)
from phosmarket.metrics import structure
from phosmarket.pipeline import convert_to_p2o5
from report_rows import read_rows

DATA = Path(__file__).parent / "data"


def make_instance(s, d, a, c_o, t):
    return MarketInstance(s=tuple(s), d=tuple(d), a=a, c_o=tuple(c_o), t=tuple(map(tuple, t)))


def random_instance(rng, *, m_max, n_max, s_max, d_max, cost_max, a_max):
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, n_max + 1))
    mask = [[bool(rng.random() < 0.85) for _ in range(n)] for _ in range(m)]
    return make_instance(
        s=[int(rng.integers(1, s_max + 1)) for _ in range(m)],
        d=[int(rng.integers(1, d_max + 1)) for _ in range(n)],
        a=int(rng.integers(0, a_max + 1)),
        c_o=[int(rng.integers(1, cost_max + 1)) for _ in range(n)],
        t=[
            [int(rng.integers(0, cost_max + 1)) if mask[i][j] else None for j in range(n)]
            for i in range(m)
        ],
    )


def fixture_config(tmp_path, *, replications, workers=1, subdir="out"):
    return ExperimentConfig(
        scenario="BAU",
        seed=20240815,
        reference_market="east",
        reference_year=2013,
        data_dir=DATA / "fixture_small",
        output_dir=Path(tmp_path) / subdir,
        replications=replications,
        money_scale=100,
        unit_kt=25.0,
        theta=1.0,
        workers=workers,
    )


def test_criterion_1_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(20240101)
    for _ in range(200):
        inst = random_instance(rng, m_max=3, n_max=3, s_max=4, d_max=5, cost_max=20, a_max=2)
        auction = run_english_auction(inst)
        oracle = brute_force_equilibrium(inst)
        assert auction.markups == oracle.markups
        witnesses = verify_equilibrium(inst, auction)
        assert (witnesses == []) == (verify_equilibrium(inst, oracle) == [])
        assert witnesses == []
        assert solve_minimal_markups(inst, cold_start(inst)) == auction
    elapsed = time.time() - started
    assert elapsed < 60
    print(f"ACCEPTANCE 1 (oracle equivalence, 200 instances): PASS [{elapsed:.1f}s]")


def test_criterion_2_valuation_greedy_vs_enumeration():
    started = time.time()
    rng = np.random.default_rng(20240202)
    for _ in range(1000):
        inst = random_instance(rng, m_max=3, n_max=2, s_max=8, d_max=8, cost_max=20, a_max=2)
        j = int(rng.integers(inst.n))
        caps = [
            int(rng.integers(0, inst.s[i] + 1)) if inst.t[i][j] is not None else 0
            for i in range(inst.m)
        ]
        exhaustive = 0
        for z in itertools.product(*[range(cap + 1) for cap in caps]):
            if sum(z) > inst.d[j]:
                continue
            savings = (
                local_spend(inst.d[j], j, inst)
                - local_spend(inst.d[j] - sum(z), j, inst)
                - sum(import_spend(z[i], i, j, inst) for i in range(inst.m) if z[i])
            )
            exhaustive = max(exhaustive, savings)
        assert valuation(caps, j, inst) == exhaustive
    elapsed = time.time() - started
    assert elapsed < 10
    print(f"ACCEPTANCE 2 (valuation vs enumeration, 1000 cases): PASS [{elapsed:.1f}s]")


def _grid_equilibria(inst):
    """Every markup vector on the integer grid that admits an equilibrium."""
    bundles = [_bundles(inst, j) for j in range(inst.n)]
    values = [_enumerated_values(inst, j, bundles[j]) for j in range(inst.n)]
    found = []
    for markups in _markup_vectors(inst.m, _markup_bound(inst)):
        argmax = []
        for j in range(inst.n):
            utilities = [
                value - sum(p * q for p, q in zip(markups, z))
                for z, value in zip(bundles[j], values[j])
            ]
            best = max(utilities)
            argmax.append([z for z, u in zip(bundles[j], utilities) if u == best])
        if _select_flows(inst, markups, argmax) is not None:
            found.append(markups)
    return found


def test_criterion_3_minimal_markup_property():
    started = time.time()
    rng = np.random.default_rng(20240303)
    for _ in range(50):
        inst = random_instance(rng, m_max=3, n_max=3, s_max=3, d_max=4, cost_max=6, a_max=1)
        auction = run_english_auction(inst)
        dual = solve_minimal_markups(inst, cold_start(inst))
        equilibria = _grid_equilibria(inst)
        assert equilibria, "grid enumeration found no equilibrium"
        for markups in equilibria:
            assert all(a <= b for a, b in zip(auction.markups, markups))
            assert all(a <= b for a, b in zip(dual.markups, markups))
    elapsed = time.time() - started
    assert elapsed < 120
    print(f"ACCEPTANCE 3 (componentwise minimality, 50 instances): PASS [{elapsed:.1f}s]")


def test_criterion_4_index_identities():
    started = time.time()
    mono = MarketInstance(
        s=(6,), d=(6, 6), a=0, c_o=(10, 10), t=((0, 0),)
    )
    assert structure(((6, 0),), mono).concentration[0] == pytest.approx(1.0)

    equal = MarketInstance(  # market 1 buys locally: a structure needs two markets
        s=(1,) * 5, d=(6, 1), a=0, c_o=(10, 10), t=((0, 0),) * 5
    )
    assert structure(((1, 0),) * 5, equal).concentration[0] == pytest.approx(0.0)

    rng = np.random.default_rng(20240404)
    for _ in range(10_000):
        m = int(rng.integers(1, 6))
        imports = [int(rng.integers(0, 9)) for _ in range(m)]
        local = int(rng.integers(0, 9))
        d = sum(imports) + local
        if d == 0:
            continue
        inst = MarketInstance(  # market 1 buys locally: a structure needs two markets
            s=tuple(max(q, 1) for q in imports),
            d=(d, 1),
            a=0,
            c_o=(10, 10),
            t=((0, 0),) * m,
        )
        h = structure(tuple((q, 0) for q in imports), inst).concentration[0]
        assert -1e-12 <= h <= 1 + 1e-12

    single = MarketInstance(
        s=(4,), d=(4, 4), a=0, c_o=(9, 9), t=((0, 0),)
    )
    assert structure(((4, 0),), single).diversification[0] == pytest.approx(0.0)

    spread = MarketInstance(
        s=(8,), d=(2,) * 4, a=0, c_o=(9,) * 4, t=((0,) * 4,)
    )
    assert structure(((2, 2, 2, 2),), spread).diversification[0] == pytest.approx(1.0)

    nine = MarketInstance(
        s=(8,), d=(8,) * 9, a=0, c_o=(9,) * 9, t=((0,) * 9,)
    )
    two_way = ((4, 4, 0, 0, 0, 0, 0, 0, 0),)
    assert structure(two_way, nine).diversification[0] == pytest.approx(0.5625, abs=1e-12)
    elapsed = time.time() - started
    print(f"ACCEPTANCE 4 (index identities): PASS [{elapsed:.1f}s]")


def world_total(region_values):
    """Aggregate region-level values to a world total."""
    return sum(region_values.values())


def growth_percent(base, scenario):
    """Relative growth of a scenario total over the base total, in percent."""
    if base <= 0:
        raise ValueError("base total must be positive")
    return 100.0 * (scenario - base) / base


def test_world_total_and_growth():
    assert world_total({"a": 1.5, "b": 2.5}) == pytest.approx(4.0)
    assert growth_percent(40.0, 50.0) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        growth_percent(0.0, 1.0)


def test_criterion_5_published_aggregation_fixture():
    rows = read_rows(DATA / "table1.csv")
    data = {row["region"]: float(row["data_mt"]) for row in rows}
    bau = {row["region"]: float(row["bau_mt"]) for row in rows}
    sss = {row["region"]: float(row["sss_mt"]) for row in rows}
    assert len(rows) == 9
    assert world_total(bau) == pytest.approx(50.40, abs=0.02)
    assert world_total(sss) == pytest.approx(51.73, abs=0.02)
    bau_growth = growth_percent(world_total(data), world_total(bau))
    sss_growth = growth_percent(world_total(data), world_total(sss))
    assert bau_growth == pytest.approx(20.3, abs=0.1)
    assert sss_growth == pytest.approx(23.5, abs=0.1)
    print(
        "ACCEPTANCE 5 (published totals fixture): PASS "
        f"[BAU {world_total(bau):.2f}, SSS {world_total(sss):.2f}, "
        f"growth {bau_growth:.2f}%/{sss_growth:.2f}%]"
    )


def test_criterion_6_conversion_exactness():
    assert convert_to_p2o5(1000.0, "DAP") == 460.0
    assert convert_to_p2o5(100.0, "MAP_CN") == 44.0
    print("ACCEPTANCE 6 (P2O5 conversion exactness): PASS")


def test_criterion_7_bootstrap_degeneracy_and_centering():
    started = time.time()
    z = (1.0, 2.0, 3.0, 4.0)
    fit = fit_two_stage("exact", [6.0 * v for v in z], [3.0 * v for v in z], z)
    stream = seeded_stream(1)
    pairs = [wild_bootstrap_demand(fit, 5.0, stream, min_value=0.0) for _ in range(200)]
    draws = [draw for draw, _ in pairs]
    rejected = sum(count for _, count in pairs)
    assert rejected == 0
    assert len(set(draws)) == 1  # zero residuals: zero-variance report
    assert draws[0] == pytest.approx(2.0 * 3.0 * 5.0)

    rng = np.random.default_rng(77)
    zs = np.linspace(1.0, 2.5, 9)
    xs = 3.0 * zs + rng.normal(0.0, 0.06, 9)
    ys = 2.0 * xs + rng.normal(0.0, 0.06, 9)
    fit = fit_two_stage("noisy", tuple(ys), tuple(xs), tuple(zs))
    point = fit.beta * fit.alpha * 3.0
    stream = seeded_stream(5)
    draws = [wild_bootstrap_demand(fit, 3.0, stream, min_value=0.0)[0] for _ in range(1000)]
    sample = np.asarray(draws)
    se = sample.std(ddof=1) / math.sqrt(len(sample))
    assert abs(sample.mean() - point) < 3 * se
    elapsed = time.time() - started
    assert elapsed < 30
    print(f"ACCEPTANCE 7 (degeneracy and centering, B=1000): PASS [{elapsed:.1f}s]")


def test_criterion_8_calibration_identity(tmp_path):
    started = time.time()
    config = fixture_config(tmp_path, replications=1000)
    context = load_context(config)
    for b in range(1000):
        draw = assemble_draw(context, b)
        for d, c in zip(draw.d, draw.c_o):
            assert draw.a * d + c == config.money_scale
    elapsed = time.time() - started
    print(f"ACCEPTANCE 8 (unit-price identity, 1000 draws): PASS [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def deterministic_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept")
    outputs = {}
    reports = {}
    for label, workers in (("first", 1), ("second", 1), ("parallel", 2)):
        config = fixture_config(tmp, replications=200, workers=workers, subdir=label)
        report = run_experiment(config)
        outputs[label] = emit_tables(report, config.output_dir)
        reports[label] = report
    return outputs, reports


def test_criterion_9_end_to_end_determinism(deterministic_runs):
    started = time.time()
    outputs, reports = deterministic_runs
    names = sorted(outputs["first"])
    for name in names:
        reference = outputs["first"][name].read_bytes()
        assert outputs["second"][name].read_bytes() == reference, name
        assert outputs["parallel"][name].read_bytes() == reference, name
    for result in reports["first"].replications:
        inst = result.draw.instance()
        equilibrium = Equilibrium(result.markups, result.flows)
        assert verify_equilibrium(inst, equilibrium) == []
    elapsed = time.time() - started
    print(
        "ACCEPTANCE 9 (byte-identical runs, 200 replications, 1 vs 2 workers): "
        f"PASS [{elapsed:.1f}s]"
    )


def test_criterion_10_mask_faithfulness(deterministic_runs):
    outputs, reports = deterministic_runs
    report = reports["first"]
    context = report.context
    mask = tuple(
        tuple(cost is not None for cost in row) for row in context.cost_fit.base_costs
    )
    assert not mask[context.suppliers.index("capechem")][context.regions.index("north")]

    rows = read_rows(outputs["first"]["trade_costs"])
    for j, region in enumerate(context.regions):
        row = next(r for r in rows if r["region"] == region)
        for i, supplier in enumerate(context.suppliers):
            blank = row[f"{supplier}_mean"] == "" and row[f"{supplier}_sd"] == ""
            assert blank == (not mask[i][j])

    for result in report.replications:
        for i in range(len(context.suppliers)):
            for j in range(len(context.regions)):
                if not mask[i][j]:
                    assert result.draw.t[i][j] is None
                    assert result.flows[i][j] == 0
    print("ACCEPTANCE 10 (mask faithfulness in tables and flows): PASS")
