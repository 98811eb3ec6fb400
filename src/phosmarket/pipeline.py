"""CSV ingestion and harmonization of trade, consumption and crop data.

All inputs are flat UTF-8 CSV files with "." decimals; derived tables carry
provenance comment lines prefixed with ``#`` (input digests and the pipeline
version).  Product masses convert to P2O5 equivalents exactly once, at
compilation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .tables import file_digest, read_csv, write_csv

PIPELINE_VERSION = "1"

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
    if mass < 0:
        raise PipelineError("mass must be nonnegative")
    try:
        return mass * CONVERSION_PERCENT[kind] / 100
    except KeyError:
        raise PipelineError(f"unknown product kind {kind!r}") from None


@dataclass(frozen=True)
class TradeFlowRecord:
    """One raw trade observation: product mass shipped into a country."""

    year: int
    supplier: str
    country: str
    kind: str
    mass: float  # tonnes of product


@dataclass(frozen=True)
class ApplicationRate:
    """Phosphorus application rate for one crop in one country.

    ``fallback`` marks rates imputed by the regional-minimum rule.
    """

    country: str
    crop: str
    rate: float  # kg P2O5 per tonne of crop produced
    fallback: bool = False


# ---------------------------------------------------------------------------
# Trade flow compilation and harmonization


def compile_trade_flows(
    records: Iterable[TradeFlowRecord],
    country_to_region: Mapping[str, str],
    residence: Mapping[str, str],
    domestic: Iterable[TradeFlowRecord] = (),
) -> dict[tuple[str, str, int], float]:
    """Aggregate converted flows by (supplier, region, year), in kt P2O5.

    Domestic supply records are attributed to the supplier's residence
    country and folded into the same regional flow table.
    """
    parts: dict[tuple[str, str, int], list[float]] = {}
    seen: set[tuple[str, str, int, str]] = set()
    for rec in records:
        key = (rec.country, rec.supplier, rec.year, rec.kind)
        if key in seen:
            raise PipelineError(f"duplicate trade flow row {key}")
        seen.add(key)
        region = country_to_region.get(rec.country)
        if region is None:
            raise PipelineError(f"country {rec.country!r} has no region mapping")
        cell = (rec.supplier, region, rec.year)
        parts.setdefault(cell, []).append(convert_to_p2o5(rec.mass, rec.kind) / 1000.0)
    for rec in domestic:
        home = residence.get(rec.supplier)
        if home is None:
            raise PipelineError(f"supplier {rec.supplier!r} has no residence mapping")
        region = country_to_region.get(home)
        if region is None:
            raise PipelineError(f"residence country {home!r} has no region mapping")
        cell = (rec.supplier, region, rec.year)
        parts.setdefault(cell, []).append(convert_to_p2o5(rec.mass, rec.kind) / 1000.0)
    # summing in sorted order keeps totals independent of input row order
    return {cell: sum(sorted(values)) for cell, values in parts.items()}


def harmonize_local_supply(
    flow_table: Mapping[tuple[str, str, int], float],
    consumption: Mapping[tuple[str, int], float],
) -> tuple[dict[tuple[str, int], float], dict[tuple[str, int], float]]:
    """Local supply as consumption minus imports, clamped at zero.

    Returns the local supply table and the clamped harmonization residuals
    (import excess over consumption, where any).
    """
    imports: dict[tuple[str, int], float] = {}
    for (_, region, year), kt in flow_table.items():
        imports[(region, year)] = imports.get((region, year), 0.0) + kt
    local: dict[tuple[str, int], float] = {}
    residuals: dict[tuple[str, int], float] = {}
    for cell, shipped in imports.items():
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

    Country-level use divides by country production directly.  The ``EU``
    aggregate splits across member countries in proportion to production, the
    ``ROW`` aggregate splits across regions of the remaining countries in
    proportion to regional production.  Countries producing a crop with no
    use data inherit the minimum rate of their region for that crop, flagged
    as a fallback.
    """
    crops = sorted({crop for _, crop in production})
    direct = {c for c, _ in fertilizer_use if c not in ("EU", "ROW")}
    row_countries = {
        country
        for country, _ in production
        if country not in direct and country not in eu_members
    }

    rates: dict[tuple[str, str], ApplicationRate] = {}
    for (country, crop), use_kt in fertilizer_use.items():
        if country in ("EU", "ROW"):
            continue
        prod = production.get((country, crop), 0.0)
        if prod <= 0:
            raise PipelineError(
                f"use reported for {country}/{crop} with no production"
            )
        rates[(country, crop)] = ApplicationRate(
            country, crop, 1000.0 * use_kt / prod
        )

    for crop in crops:
        eu_use = fertilizer_use.get(("EU", crop))
        if eu_use is not None:
            total = sum(production.get((c, crop), 0.0) for c in eu_members)
            if total <= 0:
                raise PipelineError(f"EU use for {crop} with no member production")
            rate = 1000.0 * eu_use / total
            for member in eu_members:
                if production.get((member, crop), 0.0) > 0:
                    rates[(member, crop)] = ApplicationRate(member, crop, rate)

        row_use = fertilizer_use.get(("ROW", crop))
        if row_use is not None:
            by_region: dict[str, float] = {}
            for country in row_countries:
                prod = production.get((country, crop), 0.0)
                if prod > 0:
                    region = _region_of(country, country_to_region)
                    by_region[region] = by_region.get(region, 0.0) + prod
            total = sum(by_region.values())
            if total <= 0:
                raise PipelineError(f"ROW use for {crop} with no production")
            for country in row_countries:
                prod = production.get((country, crop), 0.0)
                if prod > 0:
                    region = _region_of(country, country_to_region)
                    use_region = row_use * by_region[region] / total
                    rates[(country, crop)] = ApplicationRate(
                        country, crop, 1000.0 * use_region / by_region[region]
                    )

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
            rates[(country, crop)] = ApplicationRate(
                country, crop, regional_min[key], fallback=True
            )
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
    parts: dict[str, list[float]] = {}
    for (country, crop), prod_kt in scenario_production.items():
        if prod_kt < 0:
            raise PipelineError(f"negative scenario production for {country}/{crop}")
        if prod_kt == 0:
            continue
        rate = rates.get((country, crop))
        if rate is None:
            raise PipelineError(f"no application rate for {country}/{crop}")
        region = _region_of(country, country_to_region)
        parts.setdefault(region, []).append(rate.rate * prod_kt / 1e6)
    # summing in sorted order keeps totals independent of input row order
    return {region: sum(sorted(values)) for region, values in parts.items()}


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
    out_dir = Path(out_dir)
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

    records = [
        TradeFlowRecord(
            year=int(row["year"]),
            supplier=row["supplier"],
            country=row["country"],
            kind=row["kind"],
            mass=float(row["mass_tonnes"]),
        )
        for row in read_csv(
            inputs["trade_flows"], ("year", "supplier", "country", "kind", "mass_tonnes")
        )
    ]
    domestic = [
        TradeFlowRecord(
            year=int(row["year"]),
            supplier=row["supplier"],
            country="",
            kind=row["kind"],
            mass=float(row["mass_tonnes"]),
        )
        for row in read_csv(inputs["domestic_supply"], ("year", "supplier", "kind", "mass_tonnes"))
    ]
    residence = {
        row["supplier"]: row["country"]
        for row in read_csv(inputs["residence"], ("supplier", "country"))
    }
    regions = {
        row["country"]: row["region"] for row in read_csv(inputs["regions"], ("country", "region"))
    }
    consumption = {
        (row["region"], int(row["year"])): float(row["consumption_kt"])
        for row in read_csv(inputs["consumption"], ("region", "year", "consumption_kt"))
    }

    flows = compile_trade_flows(records, regions, residence, domestic)
    local, residuals = harmonize_local_supply(flows, consumption)

    provenance = {"pipeline_version": PIPELINE_VERSION}
    for name in sorted(trade_names):
        provenance[f"digest_{name}"] = file_digest(inputs[name])

    tables = [
        (
            "flows",
            ("supplier", "region", "year", "kt"),
            [
                (supplier, region, year, f"{kt:.6f}")
                for (supplier, region, year), kt in sorted(flows.items())
            ],
            provenance,
        ),
        (
            "local_supply",
            ("region", "year", "kt", "clamped_residual_kt"),
            [
                (region, year, f"{kt:.6f}", f"{residuals.get((region, year), 0.0):.6f}")
                for (region, year), kt in sorted(local.items())
            ],
            provenance,
        ),
    ]

    if scenario:
        use = {
            (row["country"], row["crop"]): float(row["use_kt"])
            for row in read_csv(inputs["fertilizer_use"], ("country", "crop", "use_kt"))
        }
        production = {
            (row["country"], row["crop"]): float(row["production_kt"])
            for row in read_csv(inputs["crop_production"], ("country", "crop", "production_kt"))
        }
        eu_members = [row["country"] for row in read_csv(inputs["eu_members"], ("country",))]
        rates = derive_application_rates(use, production, eu_members, regions)
        scenario_rows = read_csv(
            inputs["scenario_production"], ("scenario", "country", "crop", "production_kt")
        )
        use_rows = []
        for name in sorted({row["scenario"] for row in scenario_rows}):
            volumes = {
                (row["country"], row["crop"]): float(row["production_kt"])
                for row in scenario_rows
                if row["scenario"] == name
            }
            totals = scenario_fertilizer_use(rates, volumes, regions)
            use_rows.extend(
                (name, region, f"{mt:.6f}") for region, mt in sorted(totals.items())
            )
        derived = dict(provenance)
        for name in sorted(scenario_names):
            derived[f"digest_{name}"] = file_digest(inputs[name])
        tables.append(("scenario_use", ("scenario", "region", "use_mt"), use_rows, derived))
        tables.append(
            (
                "application_rates",
                ("country", "crop", "rate_kg_per_t", "fallback"),
                [
                    (rate.country, rate.crop, f"{rate.rate:.6f}", int(rate.fallback))
                    for rate in sorted(rates.values(), key=lambda r: (r.country, r.crop))
                ],
                derived,
            )
        )

    outputs: dict[str, Path] = {}
    for name, header, rows, table_provenance in tables:
        outputs[name] = out_dir / f"{name}.csv"
        write_csv(outputs[name], header, rows, table_provenance)
    return outputs
