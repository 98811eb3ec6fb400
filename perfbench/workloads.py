"""Workload inputs: the committed fixture and a synthetic paper-scale market.

Every input is a pure function of the workload seed.  The seed selects one
of ``VARIANTS`` input variants, so each variant has a recorded golden digest
of the report it must produce (``golden.json``).

``fixture_serial`` and ``fixture_parallel`` run the committed
``tests/data/fixture_small`` tables; the variant shifts the master seed of
the bootstrap.  ``paper_scale`` runs tables written by :func:`write_world`:
the nine regions of ``tests/data/table1.csv`` and seven suppliers with about
80% of supplier-region pairs open, on a grid of about 200 demand units at
``money_scale`` 100.  The market's shape (open pairs, supplier weights,
import shares) is fixed; the variant resamples its observed history and the
master seed.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

VARIANTS = 32

FIXTURE_DIR = Path("tests/data/fixture_small")
FIXTURE_CONFIG = FIXTURE_DIR / "fixture_bau.cfg"
TABLE1 = Path("tests/data/table1.csv")

PAPER_SUPPLIERS = 7
PAPER_UNITS = 200
PAPER_REPLICATIONS = 6
PAPER_SEED = 20251117
REFERENCE_MARKET = "North America"
REFERENCE_YEAR = 2015
SERIES_YEARS = range(2005, 2018)
TRADE_YEARS = range(2013, 2018)
THETA = 2.0


class PreconditionError(RuntimeError):
    """Generated inputs or a bootstrap draw break the workload's grid rules."""


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def write_config(path: Path, values: dict[str, object]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8"
    )
    return path


def fixture_config(variant: int, workers: int, output_dir: Path) -> dict[str, object]:
    """The committed fixture config with the variant's seed and worker count."""
    values: dict[str, object] = {}
    for line in FIXTURE_CONFIG.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    values["seed"] = int(values["seed"]) + variant
    values["workers"] = workers
    values["output_dir"] = output_dir
    return values


def _table1() -> list[tuple[str, float, float]]:
    with TABLE1.open(newline="", encoding="utf-8") as handle:
        return [
            (row["region"], float(row["data_mt"]), float(row["bau_mt"]))
            for row in csv.DictReader(handle)
        ]


def _structure(regions: list[str], suppliers: int) -> dict[str, object]:
    """Fixed market shape: open pairs, supplier weights, region parameters."""
    rng = random.Random("phosmarket-paper-scale-structure")
    names = [f"sup{i + 1}" for i in range(PAPER_SUPPLIERS)]
    open_pairs = {(s, r) for s in names for r in regions if rng.random() < 0.8}
    for k, region in enumerate(regions):  # every region imports from someone
        open_pairs.add((names[k % len(names)], region))
    for k, name in enumerate(names):  # every supplier ships to two regions
        open_pairs |= {(name, regions[k]), (name, regions[(k + 3) % len(regions)])}
    weights = {name: rng.uniform(0.5, 2.0) for name in names}
    region_params = {
        region: {
            "import_frac": rng.uniform(0.25, 0.6),
            "dapmap_ratio": rng.uniform(0.35, 0.55),
            "crop_ratio": rng.uniform(0.85, 0.95),
            "growth": rng.uniform(1.01, 1.04),
        }
        for region in regions
    }
    kept = names[:suppliers]
    return {
        "suppliers": kept,
        "open": {pair for pair in open_pairs if pair[0] in kept},
        "weights": weights,
        "regions": region_params,
    }


def write_world(
    variant: int,
    data_dir: Path,
    *,
    suppliers: int = PAPER_SUPPLIERS,
    money_scale: int = 100,
    units: int = PAPER_UNITS,
) -> dict[str, object]:
    """Write the four harmonized tables; return the matching config values.

    The config leaves ``output_dir``, ``workers`` and ``replications`` to
    the caller.  Raises :class:`PreconditionError` when the tables break the
    calibration rules the README states.
    """
    table = _table1()
    regions = [name for name, _, _ in table]
    shape = _structure(regions, suppliers)
    rng = random.Random(f"phosmarket-paper-scale-history/{variant}")
    last = SERIES_YEARS[-1]

    series_rows = []
    scenario_rows = []
    demand_kt: dict[tuple[str, int], float] = {}
    for region, data_mt, bau_mt in table:
        params = shape["regions"][region]
        for year in SERIES_YEARS:
            y = data_mt * params["growth"] ** (year - last) * rng.uniform(0.97, 1.03)
            x = y / (params["dapmap_ratio"] * rng.uniform(0.98, 1.02))
            z = x * params["crop_ratio"] * rng.uniform(0.98, 1.02)
            series_rows.append([region, year, f"{y:.4f}", f"{x:.4f}", f"{z:.4f}"])
            if year in TRADE_YEARS:
                demand_kt[(region, year)] = y * 1000.0
        use = bau_mt / params["dapmap_ratio"] * params["crop_ratio"]
        scenario_rows.append(["BAU", region, f"{use:.4f}"])

    flow_rows = []
    local_rows = []
    for region in regions:
        sources = [s for s in shape["suppliers"] if (s, region) in shape["open"]]
        total_weight = sum(shape["weights"][s] for s in sources)
        frac = shape["regions"][region]["import_frac"]
        for year in TRADE_YEARS:
            demand = demand_kt[(region, year)]
            imports = 0.0
            for supplier in sources:
                kt = round(
                    frac * demand * shape["weights"][supplier] / total_weight
                    * rng.uniform(0.9, 1.1),
                    1,
                )
                imports += kt
                flow_rows.append([supplier, region, year, f"{kt:.1f}"])
            local_rows.append([region, year, f"{demand - imports:.1f}"])
    flow_rows.sort()

    for year in TRADE_YEARS:
        local = next(float(r[2]) for r in local_rows if r[0] == REFERENCE_MARKET and r[1] == year)
        traded = [r for r in flow_rows if r[1] == REFERENCE_MARKET and r[2] == year]
        if local <= 0 or not traded or min(float(r[3]) for r in traded) <= 0:
            raise PreconditionError(
                f"reference market {REFERENCE_MARKET!r} lacks local supply or trade in {year}"
            )

    _write_csv(data_dir / "flows.csv", ["supplier", "region", "year", "kt"], flow_rows)
    _write_csv(data_dir / "local_supply.csv", ["region", "year", "kt"], local_rows)
    _write_csv(
        data_dir / "demand_series.csv",
        ["region", "year", "dapmap_mt", "fert_mt", "crop_use_mt"],
        series_rows,
    )
    _write_csv(data_dir / "scenario_use.csv", ["scenario", "region", "use_mt"], scenario_rows)

    total_bau_kt = sum(bau_mt for _, _, bau_mt in table) * 1000.0
    unit_kt = round(total_bau_kt / units, 1)
    a = int(THETA * money_scale / units + 0.5)
    largest = max(bau_mt for _, _, bau_mt in table) * 1000.0 / unit_kt
    if a < 1:
        raise PreconditionError("theta * money_scale / units < 0.5 rounds a to zero")
    if a * largest >= money_scale:
        raise PreconditionError("a * largest regional demand reaches money_scale")
    return {
        "scenario": "BAU",
        "seed": PAPER_SEED + variant,
        "reference_market": REFERENCE_MARKET,
        "reference_year": REFERENCE_YEAR,
        "data_dir": data_dir,
        "money_scale": money_scale,
        "unit_kt": unit_kt,
        "theta": THETA,
        "capacity_share_base": "mean",
    }


def _write_csv(path: Path, header: list[str], rows: list[list[object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def check_draws(replications_csv: Path, money_scale: int) -> int:
    """Assert the grid rules on every bootstrap draw of a report.

    Every draw needs ``a >= 1`` (else local marginal costs are flat) and
    ``a * d_j < money_scale`` (else a local cost is not positive).  Returns
    the number of draws checked.
    """
    with replications_csv.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        check_draw(
            int(row["replication"]),
            int(row["a"]),
            [int(v) for k, v in row.items() if k.startswith("demand_units_")],
            money_scale,
        )
    return len(rows)


def check_draw(replication: int, a: int, demands: list[int], money_scale: int) -> None:
    if a < 1:
        raise PreconditionError(f"draw {replication}: a = {a} gives flat local costs")
    if a * max(demands) >= money_scale:
        raise PreconditionError(
            f"draw {replication}: a * d_j = {a * max(demands)} >= money_scale {money_scale}"
        )
