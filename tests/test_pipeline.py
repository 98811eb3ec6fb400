"""CSV ingestion, conversion, harmonization and scenario aggregation."""

import hashlib
import itertools
import shutil
from pathlib import Path

import pytest

from phosmarket.experiment import INPUT_TABLES
from phosmarket.pipeline import (
    RAW_TABLES,
    PipelineError,
    compile_trade_flows,
    convert_to_p2o5,
    derive_application_rates,
    harmonize_local_supply,
    run_pipeline,
    scenario_fertilizer_use,
)
from phosmarket.tables import cells, quantity, read_csv, write_tables

RAW = Path(__file__).parent / "data" / "raw_small"


def raw_rows(name):
    """The typed rows of one raw fixture table."""
    rows, _ = read_csv(RAW / f"{name}.csv", *RAW_TABLES[name])
    return rows

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


def test_compile_empty_input():
    assert compile_trade_flows([], REGIONS) == {}


def test_compile_sums_rows_within_region():
    records = [
        (2016, "acme", "eastland", "DAP", 10_000),
        (2016, "acme", "eastisle", "MAP", 10_000),
    ]
    table = compile_trade_flows(records, REGIONS)
    assert table == {("acme", "east", 2016): pytest.approx(4.6 + 5.2)}


def test_compile_rejects_unmapped_countries():
    with pytest.raises(PipelineError, match="region mapping"):
        compile_trade_flows([(2016, "acme", "atlantis", "DAP", 1.0)], REGIONS)


def test_compile_adds_domestic_supply_to_residence_region(tmp_path):
    raw = tmp_path / "raw"
    shutil.copytree(RAW, raw)
    (raw / "trade_flows.csv").write_text("year,supplier,country,kind,mass_tonnes\n")
    (raw / "domestic_supply.csv").write_text("year,supplier,kind,mass_tonnes\n2016,acme,DAP,20000\n")

    def flows_with_residence(residence):
        (raw / "residence.csv").write_text("supplier,country\n" + residence)
        table, _ = read_csv(run_pipeline(raw, tmp_path / "out")["flows"], *INPUT_TABLES["flows"])
        return {tuple(row[:3]): row[3] for row in table}

    table = flows_with_residence("acme,eastland\n")
    assert table == {("acme", "east", 2016): pytest.approx(9.2)}
    with pytest.raises(PipelineError, match="supplier 'acme' has no residence mapping"):
        flows_with_residence("borchem,eastland\n")
    with pytest.raises(PipelineError, match="country 'atlantis' has no region mapping"):
        flows_with_residence("acme,atlantis\n")


def test_compile_golden_fixture():
    residence = dict(raw_rows("residence"))
    records = raw_rows("trade_flows")
    records += [
        (year, supplier, residence[supplier], kind, mass)
        for year, supplier, kind, mass in raw_rows("domestic_supply")
    ]
    table = compile_trade_flows(records, REGIONS)
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


def test_harmonize_local_supply_ignores_flow_order():
    # 0.1 + 0.2 + 0.3 is 0.6 or 0.6000000000000001, depending on the order
    flows = [(("a", "east", 2016), 0.1), (("b", "east", 2016), 0.2), (("c", "east", 2016), 0.3)]
    consumption = {("east", 2016): 1.0}
    results = {
        repr(harmonize_local_supply(dict(order), consumption))
        for order in itertools.permutations(flows)
    }
    assert len(results) == 1


def fixture_rates():
    use = {(country, crop): kt for country, crop, kt in raw_rows("fertilizer_use")}
    production = {(country, crop): kt for country, crop, kt in raw_rows("crop_production")}
    eu = [country for (country,) in raw_rows("eu_members")]
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


def test_row_use_spreads_at_one_rate_over_its_producers():
    # two ROW producers in two regions share one rate, 1000 x use / their production
    production = {("southland", "rice"): 0.1, ("westland", "rice"): 0.7}
    rates = derive_application_rates({("ROW", "rice"): 50.0}, production, [], REGIONS)
    assert rates[("southland", "rice")].rate == 1000.0 * 50.0 / (0.1 + 0.7)
    assert rates[("westland", "rice")].rate == 1000.0 * 50.0 / (0.1 + 0.7)


def test_row_covers_producers_without_own_report_or_eu_membership():
    production = {
        ("eastland", "wheat"): 1000.0,
        ("eastland", "rice"): 100.0,
        ("northland", "rice"): 200.0,
        ("southland", "rice"): 300.0,
    }
    use = {("eastland", "wheat"): 50.0, ("ROW", "rice"): 30.0}
    rates = derive_application_rates(use, production, ["northland"], REGIONS)
    assert rates[("southland", "rice")].rate == 100.0
    assert ("eastland", "rice") not in rates and ("northland", "rice") not in rates


@pytest.mark.parametrize("reporter", ["EU", "ROW"])
def test_aggregate_use_for_an_unproduced_crop_is_rejected(reporter):
    production = {("northland", "wheat"): 400.0, ("southland", "wheat"): 300.0}
    with pytest.raises(PipelineError, match=f"use reported for {reporter}/rye with no production"):
        derive_application_rates({(reporter, "rye"): 5.0}, production, ["northland"], REGIONS)


def test_eu_rate_replaces_a_members_own_report():
    production = {("northland", "wheat"): 400.0, ("northisle", "wheat"): 200.0}
    eu = ["northland", "northisle"]
    use = [(("northland", "wheat"), 10.0), (("EU", "wheat"), 90.0)]
    for order in (use, use[::-1]):
        rates = derive_application_rates(dict(order), production, eu, REGIONS)
        assert rates[("northland", "wheat")] == (150.0, False)
        assert rates[("northisle", "wheat")] == (150.0, False)


def test_scenario_use_matches_hand_aggregation():
    rates = fixture_rates()
    production = {
        (country, crop): kt
        for scenario, country, crop, kt in raw_rows("scenario_production")
        if scenario == "BASE"
    }
    totals = scenario_fertilizer_use(rates, production, REGIONS)
    # direct 50 + 20 plus the imputed eastisle maize 80 kg/t x 500 kt = 40 kt
    assert totals["east"] == pytest.approx(0.110)
    assert totals["north"] == pytest.approx(0.090)
    assert totals["south"] == pytest.approx(0.030)
    assert totals["west"] == pytest.approx(0.020)


def test_scenario_use_is_linear_in_production():
    rates = fixture_rates()
    rows = raw_rows("scenario_production")
    base = {(country, crop): kt for scenario, country, crop, kt in rows if scenario == "BASE"}
    double = {(country, crop): kt for scenario, country, crop, kt in rows if scenario == "DOUBLE"}
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
    base = [
        ((country, crop), kt)
        for scenario, country, crop, kt in raw_rows("scenario_production")
        if scenario == "BASE"
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
            digest = hashlib.sha256((RAW / f"{table}.csv").read_bytes()).hexdigest()[:16]
            assert f"# digest_{table}: {digest}\n" in text, (name, table)
    # the harmonized tables parse by the schemas that ``simulate`` reads them with
    flows, _ = read_csv(outputs["flows"], *INPUT_TABLES["flows"])
    cell = next(row[3] for row in flows if row[:3] == ("atlaschem", "east", 2016))
    assert cell == pytest.approx(72.0)
    local, _ = read_csv(outputs["local_supply"], *INPUT_TABLES["local_supply"])
    east16 = next(row[2] for row in local if row[:2] == ("east", 2016))
    # consumption 200 minus imports 72 + 28.8
    assert east16 == pytest.approx(200.0 - 100.8)


def test_csv_roundtrip_skips_comments(tmp_path):
    # a float gets 6 decimals, None is blank, an int or a str is written as is
    assert cells([1, 2.5, None, "x"]) == [1, "2.500000", "", "x"]
    outputs = write_tables(
        tmp_path / "new", [("t", ("a", "b", "c", "d"), [(1, 2.5, None, "x")])], {"origin": "test"}
    )
    path = tmp_path / "new" / "t.csv"
    assert outputs == {"t": path}
    assert path.read_bytes() == b"# origin: test\na,b,c,d\r\n1,2.500000,,x\r\n"
    rows, digest = read_csv(path, {"b": quantity, "a": int}, 1)
    assert rows == [(2.5, 1)]
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()[:16]


#: sha256 of each table that ``pipeline`` writes from ``raw_small``.
PIPELINE_OUTPUT_SHA256 = {
    "application_rates.csv": "e7d9cb901eea2cc1831f7cdf99d2465e9850b313dea177906504e1ab1d9a3f88",
    "flows.csv": "de8e3bf99e74e7ec5c62bfc601505fa801465017ea938bb3a8b266aee30efab7",
    "local_supply.csv": "338878d2182d19ad0eb9c46fab7138581e70b7d98959e7a1ff1e53fb15671ad7",
    "scenario_use.csv": "0354936d6fbf88627b35238016611a1e5846bee6d0033a2dc6892b98a3889e1c",
}


def test_pipeline_outputs_match_pinned_digests(tmp_path):
    run_pipeline(RAW, tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == PIPELINE_OUTPUT_SHA256
