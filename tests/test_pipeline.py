"""CSV ingestion, conversion, harmonization and scenario aggregation."""

from pathlib import Path

import pytest

from phosmarket.pipeline import (
    PipelineError,
    TradeFlowRecord,
    compile_trade_flows,
    convert_to_p2o5,
    derive_application_rates,
    harmonize_local_supply,
    run_pipeline,
    scenario_fertilizer_use,
)
from phosmarket.tables import file_digest, read_csv, write_csv

RAW = Path(__file__).parent / "data" / "raw_small"

REGIONS = {
    "eastland": "east",
    "eastisle": "east",
    "northland": "north",
    "northisle": "north",
    "southland": "south",
    "westland": "west",
    "westisle": "west",
}


def test_conversion_factors_exact():
    assert convert_to_p2o5(1000.0, "DAP") == pytest.approx(460.0)
    assert convert_to_p2o5(0.0, "MAP") == 0.0
    assert convert_to_p2o5(100.0, "MAP_CN") == pytest.approx(44.0)
    assert convert_to_p2o5(100.0, "DAPMAP_MIX") == pytest.approx(49.0)
    with pytest.raises(PipelineError):
        convert_to_p2o5(1.0, "NPK")
    with pytest.raises(PipelineError):
        convert_to_p2o5(-1.0, "DAP")


def test_compile_empty_input():
    assert compile_trade_flows([], REGIONS, {}) == {}


def test_compile_sums_rows_within_region():
    records = [
        TradeFlowRecord(2016, "acme", "eastland", "DAP", 10_000),
        TradeFlowRecord(2016, "acme", "eastisle", "MAP", 10_000),
    ]
    table = compile_trade_flows(records, REGIONS, {})
    assert table == {("acme", "east", 2016): pytest.approx(4.6 + 5.2)}


def test_compile_rejects_duplicates_and_unmapped():
    records = [
        TradeFlowRecord(2016, "acme", "eastland", "DAP", 1.0),
        TradeFlowRecord(2016, "acme", "eastland", "DAP", 2.0),
    ]
    with pytest.raises(PipelineError, match="duplicate"):
        compile_trade_flows(records, REGIONS, {})
    with pytest.raises(PipelineError, match="region mapping"):
        compile_trade_flows(
            [TradeFlowRecord(2016, "acme", "atlantis", "DAP", 1.0)], REGIONS, {}
        )


def test_compile_adds_domestic_supply_to_residence_region():
    domestic = [TradeFlowRecord(2016, "acme", "", "DAP", 20_000)]
    table = compile_trade_flows([], REGIONS, {"acme": "eastland"}, domestic)
    assert table == {("acme", "east", 2016): pytest.approx(9.2)}
    with pytest.raises(PipelineError, match="residence"):
        compile_trade_flows([], REGIONS, {}, domestic)


def test_compile_golden_fixture():
    rows = read_csv(RAW / "trade_flows.csv")
    records = [
        TradeFlowRecord(int(r["year"]), r["supplier"], r["country"], r["kind"], float(r["mass_tonnes"]))
        for r in rows
    ]
    domestic = [
        TradeFlowRecord(int(r["year"]), r["supplier"], "", r["kind"], float(r["mass_tonnes"]))
        for r in read_csv(RAW / "domestic_supply.csv")
    ]
    residence = {r["supplier"]: r["country"] for r in read_csv(RAW / "residence.csv")}
    table = compile_trade_flows(records, REGIONS, residence, domestic)
    # hand-aggregated: product tonnes x factor / 1000 summed per region
    assert table[("atlaschem", "east", 2016)] == pytest.approx(46.0 + 26.0)
    assert table[("atlaschem", "south", 2016)] == pytest.approx(13.8)
    assert table[("borchem", "east", 2016)] == pytest.approx(19.6 + 9.2)
    assert table[("borchem", "north", 2016)] == pytest.approx(11.5)
    assert table[("capechem", "south", 2016)] == pytest.approx(13.2)
    assert table[("capechem", "west", 2016)] == pytest.approx(10.4)
    assert table[("atlaschem", "east", 2017)] == pytest.approx(50.6 + 28.6)
    assert table[("borchem", "east", 2017)] == pytest.approx(20.58 + 9.66)


def test_harmonize_local_supply_rules():
    flows = {("acme", "east", 2016): 30.0}
    consumption = {("east", 2016): 50.0, ("west", 2016): 10.0}
    local, residuals = harmonize_local_supply(flows, consumption)
    assert local[("east", 2016)] == pytest.approx(20.0)
    assert local[("west", 2016)] == pytest.approx(10.0)  # zero imports
    assert residuals == {}

    local, residuals = harmonize_local_supply(
        {("acme", "east", 2016): 55.0}, {("east", 2016): 50.0}
    )
    assert local[("east", 2016)] == 0.0
    assert residuals[("east", 2016)] == pytest.approx(5.0)

    with pytest.raises(PipelineError, match="consumption"):
        harmonize_local_supply(flows, {})


def fixture_rates():
    use = {
        (r["country"], r["crop"]): float(r["use_kt"])
        for r in read_csv(RAW / "fertilizer_use.csv")
    }
    production = {
        (r["country"], r["crop"]): float(r["production_kt"])
        for r in read_csv(RAW / "crop_production.csv")
    }
    eu = [r["country"] for r in read_csv(RAW / "eu_members.csv")]
    return derive_application_rates(use, production, eu, REGIONS)


def test_application_rates_direct_eu_row_and_fallback():
    rates = fixture_rates()
    assert rates[("eastland", "wheat")].rate == pytest.approx(50.0)  # 50 kt / 1000 kt
    # EU split proportional to production (2:1) keeps a common rate
    assert rates[("northland", "wheat")].rate == pytest.approx(150.0)
    assert rates[("northisle", "wheat")].rate == pytest.approx(150.0)
    # implied use split is 60 / 30
    assert rates[("northland", "wheat")].rate * 400 / 1000 == pytest.approx(60.0)
    assert rates[("northisle", "wheat")].rate * 200 / 1000 == pytest.approx(30.0)
    # rest-of-world rice splits over regions by production (300:200)
    assert rates[("southland", "rice")].rate == pytest.approx(100.0)
    assert rates[("westland", "rice")].rate == pytest.approx(100.0)
    # eastisle maize imputed from the regional minimum, flagged
    assert rates[("eastisle", "maize")].rate == pytest.approx(80.0)
    assert rates[("eastisle", "maize")].fallback


def test_application_rates_reject_use_without_production():
    with pytest.raises(PipelineError):
        derive_application_rates({("eastland", "wheat"): 5.0}, {}, [], REGIONS)


def test_scenario_use_matches_hand_aggregation():
    rates = fixture_rates()
    production = {
        (r["country"], r["crop"]): float(r["production_kt"])
        for r in read_csv(RAW / "scenario_production.csv")
        if r["scenario"] == "BASE"
    }
    totals = scenario_fertilizer_use(rates, production, REGIONS)
    # direct 50 + 20 plus the imputed eastisle maize 80 kg/t x 500 kt = 40 kt
    assert totals["east"] == pytest.approx(0.110)
    assert totals["north"] == pytest.approx(0.090)
    assert totals["south"] == pytest.approx(0.030)
    assert totals["west"] == pytest.approx(0.020)


def test_scenario_use_is_linear_in_production():
    rates = fixture_rates()
    rows = read_csv(RAW / "scenario_production.csv")
    base = {
        (r["country"], r["crop"]): float(r["production_kt"])
        for r in rows
        if r["scenario"] == "BASE"
    }
    double = {
        (r["country"], r["crop"]): float(r["production_kt"])
        for r in rows
        if r["scenario"] == "DOUBLE"
    }
    totals = scenario_fertilizer_use(rates, base, REGIONS)
    doubled = scenario_fertilizer_use(rates, double, REGIONS)
    for region, value in totals.items():
        assert doubled[region] == pytest.approx(2 * value)


def test_scenario_use_rejects_uncovered_pairs():
    rates = fixture_rates()
    with pytest.raises(PipelineError, match="no application rate"):
        scenario_fertilizer_use(rates, {("westisle", "barley"): 10.0}, REGIONS)


def test_region_totals_ignore_row_order():
    rates = fixture_rates()
    rows = read_csv(RAW / "scenario_production.csv")
    base = [
        ((r["country"], r["crop"]), float(r["production_kt"]))
        for r in rows
        if r["scenario"] == "BASE"
    ]
    forward = scenario_fertilizer_use(rates, dict(base), REGIONS)
    backward = scenario_fertilizer_use(rates, dict(reversed(base)), REGIONS)
    assert forward == backward


def test_run_pipeline_emits_tables_with_provenance(tmp_path):
    outputs = run_pipeline(RAW, tmp_path)
    assert set(outputs) == {
        "flows",
        "local_supply",
        "scenario_use",
        "application_rates",
    }
    text = outputs["flows"].read_text()
    assert text.startswith("# pipeline_version:")
    assert "digest_trade_flows" in text
    inputs = ["trade_flows", "domestic_supply", "residence", "regions", "consumption"]
    inputs += ["fertilizer_use", "crop_production", "eu_members", "scenario_production"]
    for name in ("scenario_use", "application_rates"):
        text = outputs[name].read_text()
        for table in inputs:
            digest = file_digest(RAW / f"{table}.csv")
            assert f"# digest_{table}: {digest}\n" in text, (name, table)
    rows = read_csv(outputs["flows"])
    cell = next(
        r for r in rows
        if (r["supplier"], r["region"], r["year"]) == ("atlaschem", "east", "2016")
    )
    assert float(cell["kt"]) == pytest.approx(72.0)
    local_rows = read_csv(outputs["local_supply"])
    east16 = next(
        r for r in local_rows if (r["region"], r["year"]) == ("east", "2016")
    )
    # consumption 200 minus imports 72 + 28.8
    assert float(east16["kt"]) == pytest.approx(200.0 - 100.8)


def test_csv_roundtrip_skips_comments(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [(1, 2)], {"origin": "test"})
    assert read_csv(path) == [{"a": "1", "b": "2"}]
