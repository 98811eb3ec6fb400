"""CSV ingestion and harmonization of trade, consumption and crop data.

All inputs are flat UTF-8 CSV files with "." decimals; derived tables carry
provenance comment lines prefixed with ``#`` (input digests and the pipeline
version).  Product masses convert to P2O5 equivalents exactly once, at
compilation time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .tables import quantity, read_csv, write_tables

PIPELINE_VERSION = "1"

#: Each raw input table's columns with the parsers of their cells, and how
#: many leading columns form its key.
RAW_TABLES = {
    "trade_flows": (dict(year=int, supplier=str, country=str, kind=str, mass_tonnes=quantity), 4),
    "domestic_supply": (dict(year=int, supplier=str, kind=str, mass_tonnes=quantity), 3),
    "residence": (dict(supplier=str, country=str), 1),
    "regions": (dict(country=str, region=str), 1),
    "consumption": (dict(region=str, year=int, consumption_kt=quantity), 2),
    "fertilizer_use": (dict(country=str, crop=str, use_kt=quantity), 2),
    "crop_production": (dict(country=str, crop=str, production_kt=quantity), 2),
    "eu_members": (dict(country=str), 1),
    "scenario_production": (dict(scenario=str, country=str, crop=str, production_kt=quantity), 3),
}

#: P2O5 content by product kind, in percent (kept integral for exact results
#: on round input masses).
CONVERSION_PERCENT = {
    "DAP": 46,
    "MAP": 52,
    "MAP_CN": 44,
    "DAPMAP_MIX": 49,
}


class PipelineError(ValueError):
    """Malformed or inconsistent pipeline input data."""


def convert_to_p2o5(mass: float, kind: str) -> float:
    """Convert a product mass to P2O5 equivalent mass."""
    try:
        return mass * CONVERSION_PERCENT[kind] / 100
    except KeyError:
        raise PipelineError(f"unknown product kind {kind!r}") from None


class ApplicationRate(NamedTuple):
    """Phosphorus application rate for one crop in one country.

    :func:`derive_application_rates` keys each rate by ``(country, crop)``;
    ``fallback`` marks rates imputed by the regional-minimum rule.
    """

    rate: float  # kg P2O5 per tonne of crop produced
    fallback: bool = False


# ---------------------------------------------------------------------------
# Trade flow compilation and harmonization


def _totals(items: Iterable[tuple[Hashable, float]]) -> dict:
    """Each key's total over ``(key, value)`` items, in order of first appearance.

    The values of a key are summed in sorted order, so no total depends on
    the order of the input rows.
    """
    parts: dict = {}
    for key, value in items:
        parts.setdefault(key, []).append(value)
    return {key: sum(sorted(values)) for key, values in parts.items()}


def compile_trade_flows(
    records: Iterable[tuple[int, str, str, str, float]],
    country_to_region: Mapping[str, str],
) -> dict[tuple[str, str, int], float]:
    """Aggregate converted flows by (supplier, region, year), in kt P2O5.

    A record is one raw trade observation, ``(year, supplier, country, kind,
    mass)``: ``mass`` tonnes of product ``kind`` shipped into ``country``.
    Records that share a (year, supplier, country, kind) add up;
    ``run_pipeline`` rejects them when it reads the table.
    """
    return _totals(
        (
            (supplier, _region_of(country, country_to_region), year),
            convert_to_p2o5(mass, kind) / 1000.0,
        )
        for year, supplier, country, kind, mass in records
    )


def harmonize_local_supply(
    flow_table: Mapping[tuple[str, str, int], float],
    consumption: Mapping[tuple[str, int], float],
) -> tuple[dict[tuple[str, int], float], dict[tuple[str, int], float]]:
    """Local supply as consumption minus imports, clamped at zero.

    Returns the local supply table and the clamped harmonization residuals
    (import excess over consumption, where any).
    """
    imports = _totals(((region, year), kt) for (_, region, year), kt in flow_table.items())
    local: dict[tuple[str, int], float] = {}
    residuals: dict[tuple[str, int], float] = {}
    for cell in sorted(imports):
        if cell not in consumption:
            raise PipelineError(f"no apparent consumption for {cell}")
    for cell, demand in consumption.items():
        shipped = imports.get(cell, 0.0)
        if shipped > demand:
            residuals[cell] = shipped - demand
            local[cell] = 0.0
        else:
            local[cell] = demand - shipped
    return local, residuals


# ---------------------------------------------------------------------------
# Application rates and scenario fertilizer use


def derive_application_rates(
    fertilizer_use: Mapping[tuple[str, str], float],
    production: Mapping[tuple[str, str], float],
    eu_members: Sequence[str],
    country_to_region: Mapping[str, str],
) -> dict[tuple[str, str], ApplicationRate]:
    """Per-country, per-crop application rates (kg P2O5 per tonne of crop).

    A use report covers its own country, the ``EU`` members, or ``ROW``:
    every producing country with neither its own report nor EU membership.
    Its use spreads over the covered countries that produce the crop at one
    rate, 1000 x use / their total production; an aggregate's rate replaces
    a member's own report.  Countries producing a crop with no use data
    inherit the minimum rate of their region for that crop, flagged as a
    fallback.
    """
    direct = {c for c, _ in fertilizer_use if c not in ("EU", "ROW")}
    producers: dict[str, list[tuple[str, float]]] = {}
    for (country, crop), prod in production.items():
        if prod > 0:
            producers.setdefault(crop, []).append((country, prod))

    def covers(reporter: str, country: str) -> bool:
        if reporter == "EU":
            return country in eu_members
        if reporter == "ROW":
            return country not in direct and country not in eu_members
        return country == reporter

    rates: dict[tuple[str, str], ApplicationRate] = {}
    # own reports first, so that an aggregate's rate replaces them
    for (reporter, crop), use_kt in sorted(
        fertilizer_use.items(), key=lambda item: item[0][0] in ("EU", "ROW")
    ):
        covered = [(c, prod) for c, prod in producers.get(crop, ()) if covers(reporter, c)]
        if not covered:
            raise PipelineError(f"use reported for {reporter}/{crop} with no production")
        rate = 1000.0 * use_kt / sum(sorted(prod for _, prod in covered))
        for country, _ in covered:
            rates[(country, crop)] = ApplicationRate(rate)

    # Regional-minimum imputation for produced crops with no use data.
    regional_min: dict[tuple[str, str], float] = {}
    for (country, crop), rate in rates.items():
        key = (_region_of(country, country_to_region), crop)
        if key not in regional_min or rate.rate < regional_min[key]:
            regional_min[key] = rate.rate
    for (country, crop), prod in production.items():
        if prod <= 0 or (country, crop) in rates:
            continue
        key = (_region_of(country, country_to_region), crop)
        if key in regional_min:
            rates[(country, crop)] = ApplicationRate(regional_min[key], fallback=True)
    return rates


def _region_of(country: str, country_to_region: Mapping[str, str]) -> str:
    region = country_to_region.get(country)
    if region is None:
        raise PipelineError(f"country {country!r} has no region mapping")
    return region


def scenario_fertilizer_use(
    rates: Mapping[tuple[str, str], ApplicationRate],
    scenario_production: Mapping[tuple[str, str], float],
    country_to_region: Mapping[str, str],
) -> dict[str, float]:
    """Region totals of scenario fertilizer use (Mt P2O5).

    Applies each country/crop rate to the scenario production volume (kt of
    crop) and aggregates by region.
    """
    parts = []
    for (country, crop), prod_kt in scenario_production.items():
        if prod_kt == 0:
            continue
        rate = rates.get((country, crop))
        if rate is None:
            raise PipelineError(f"no application rate for {country}/{crop}")
        parts.append((_region_of(country, country_to_region), rate.rate * prod_kt / 1e6))
    return _totals(parts)


def run_pipeline(raw_dir: Path, out_dir: Path) -> dict[str, Path]:
    """Compile raw inputs into the harmonized tables the simulator consumes.

    Expects ``trade_flows.csv``, ``domestic_supply.csv``, ``residence.csv``,
    ``regions.csv`` and ``consumption.csv`` under ``raw_dir``.  When
    ``scenario_production.csv`` is there too, ``fertilizer_use.csv``,
    ``crop_production.csv`` and ``eu_members.csv`` must be, and scenario
    fertilizer use is derived from the four.  Every table is read before
    any output is written, so a missing or malformed input leaves no
    output behind.
    """
    raw_dir = Path(raw_dir)
    trade_names = ("trade_flows", "domestic_supply", "residence", "regions", "consumption")
    scenario_names = ("fertilizer_use", "crop_production", "eu_members", "scenario_production")
    scenario = (raw_dir / "scenario_production.csv").exists()
    inputs = {
        name: raw_dir / f"{name}.csv"
        for name in trade_names + (scenario_names if scenario else ())
    }
    for name, path in inputs.items():
        if not path.exists():
            raise PipelineError(f"missing input file {path}")

    rows, digests = {}, {}
    for name, path in inputs.items():
        rows[name], digests[name] = read_csv(path, *RAW_TABLES[name])
    residence = dict(rows["residence"])
    records = list(rows["trade_flows"])
    # domestic supply ships into its supplier's residence country
    for year, supplier, kind, mass in rows["domestic_supply"]:
        if supplier not in residence:
            raise PipelineError(f"supplier {supplier!r} has no residence mapping")
        records.append((year, supplier, residence[supplier], kind, mass))
    regions = dict(rows["regions"])
    consumption = {(region, year): kt for region, year, kt in rows["consumption"]}

    flows = compile_trade_flows(records, regions)
    local, residuals = harmonize_local_supply(flows, consumption)

    provenance = {"pipeline_version": PIPELINE_VERSION}
    for name in sorted(trade_names):
        provenance[f"digest_{name}"] = digests[name]
    trade_tables = [
        (
            "flows",
            ("supplier", "region", "year", "kt"),
            [(*key, kt) for key, kt in sorted(flows.items())],
        ),
        (
            "local_supply",
            ("region", "year", "kt", "clamped_residual_kt"),
            [(*key, kt, residuals.get(key, 0.0)) for key, kt in sorted(local.items())],
        ),
    ]

    crop_tables = []
    crop_provenance = dict(provenance)
    if scenario:
        use = {(country, crop): kt for country, crop, kt in rows["fertilizer_use"]}
        production = {(country, crop): kt for country, crop, kt in rows["crop_production"]}
        eu_members = [country for (country,) in rows["eu_members"]]
        rates = derive_application_rates(use, production, eu_members, regions)
        use_rows = []
        for name in sorted({row[0] for row in rows["scenario_production"]}):
            volumes = {
                (country, crop): kt
                for label, country, crop, kt in rows["scenario_production"]
                if label == name
            }
            totals = scenario_fertilizer_use(rates, volumes, regions)
            use_rows.extend((name, region, mt) for region, mt in sorted(totals.items()))
        for name in sorted(scenario_names):
            crop_provenance[f"digest_{name}"] = digests[name]
        crop_tables = [
            ("scenario_use", ("scenario", "region", "use_mt"), use_rows),
            (
                "application_rates",
                ("country", "crop", "rate_kg_per_t", "fallback"),
                [(*key, rate.rate, int(rate.fallback)) for key, rate in sorted(rates.items())],
            ),
        ]

    outputs = write_tables(out_dir, trade_tables, provenance)
    outputs.update(write_tables(out_dir, crop_tables, crop_provenance))
    return outputs
