"""End-to-end scenario experiment: sample, solve, verify, aggregate.

Every replication assembles one market instance from bootstrap draws,
computes its minimal markups as min-cost-flow duals
(:func:`~phosmarket.auction.solve_minimal_markups`, warm-started from the
optimum of replication 0's draw, which :func:`load_context` solves),
verifies the equilibrium (a verifier failure aborts the whole run) and
contributes one row of market-structure statistics.  :func:`verify_run`
re-solves sampled replications with the paper's tick-by-tick ascending
auction, the reference mechanism, and certifies their markups minimal at
full scale (:func:`~phosmarket.auction.certify_minimal_markups`).
Replications are independent; with ``workers > 1`` they run in a pool of
forked worker processes (POSIX only), which inherit the imported package
and receive the loaded context with each task.  Results are a pure
function of (inputs, config, seed) regardless of worker count.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from . import bootstrap as bs
from . import metrics
from .auction import (
    FlowStart,
    certify_minimal_markups,
    reference_start,
    run_english_auction,
    solve_minimal_markups,
    verify_equilibrium,
)
from .config import ConfigError, ExperimentConfig
from .core import MarketInstance, quantize
from .tables import quantity, read_csv, write_csv

#: Each harmonized input table's columns with the parsers of their cells,
#: and how many leading columns form its key.
INPUT_TABLES = {
    "flows": (dict(supplier=str, region=str, year=int, kt=quantity), 3),
    "local_supply": (dict(region=str, year=int, kt=quantity), 2),
    "demand_series": (
        dict(region=str, year=int, dapmap_mt=quantity, fert_mt=quantity, crop_use_mt=quantity), 2
    ),
    "scenario_use": (dict(scenario=str, region=str, use_mt=quantity), 2),
}


class ExperimentError(RuntimeError):
    """A replication failed verification or a sampler hard-errored."""


class BootstrapDraw(NamedTuple):
    """One replication of all exogenous auction inputs."""

    replication: int
    d: tuple[int, ...]
    s: tuple[int, ...]
    t: tuple[tuple[int | None, ...], ...]  # None on pairs closed to trade
    a: int
    c_o: tuple[int, ...]
    rejections: int

    def instance(self) -> MarketInstance:
        return MarketInstance(s=self.s, d=self.d, a=self.a, c_o=self.c_o, t=self.t)


class ExperimentContext(NamedTuple):
    """Immutable, picklable state shared by all replications of one run.

    ``start`` is the optimal flow and potentials of replication 0's draw,
    solved cold; every replication's solve warm-starts from it.  It is a
    pure function of (inputs, config, seed), computed before any worker
    forks, so reports do not depend on the worker count.  Every command
    that loads a context, ``calibrate`` and ``verify`` included, solves
    that draw, and so fails where ``simulate`` would.  ``demand_fits`` holds
    one two-stage fit per region, in ``regions`` order; a fit carries its
    region's instrument series, which is all a demand draw reads of it.
    """

    config: ExperimentConfig
    suppliers: tuple[str, ...]
    regions: tuple[str, ...]
    demand_fits: tuple[bs.TwoStageFit, ...]
    z_scenario: tuple[float, ...]
    shares: tuple[float, ...]  # supplier share estimates, unitless
    deviation_pool: tuple[float, ...]  # capacity deviations, goods units
    cost_fit: bs.TradeCostFit
    base_costs: tuple[tuple[float | None, ...], ...]  # None on pairs without history
    ref_shares: tuple[float, ...]
    reference_index: int
    input_digests: tuple[tuple[str, str], ...]
    start: FlowStart


def load_context(config: ExperimentConfig) -> ExperimentContext:
    """Read the harmonized input tables, fit every sampler and solve the reference draw."""
    paths = {name: Path(config.data_dir) / f"{name}.csv" for name in INPUT_TABLES}
    for path in paths.values():
        if not path.exists():
            raise ExperimentError(f"missing input table {path}")
    tables, digests = {}, {}
    for name, (schema, key) in INPUT_TABLES.items():
        tables[name], digests[name] = read_csv(paths[name], schema, key)

    flows = {(supplier, region, year): kt for supplier, region, year, kt in tables["flows"]}
    local = {(region, year): kt for region, year, kt in tables["local_supply"]}

    suppliers = tuple(sorted({key[0] for key in flows}))
    regions = tuple(sorted({key[1] for key in flows} | {key[0] for key in local}))
    years = sorted({key[2] for key in flows})

    demand_fits = []
    for region in regions:
        # rows sort by year: (region, year) is the table's key
        rows = sorted(row for row in tables["demand_series"] if row[0] == region)
        if not rows:
            raise bs.CalibrationError(f"no demand series for region {region!r}")
        _, _, dapmap, fert, crop_use = zip(*rows)
        series = bs.RegionSeries.from_raw(region, dapmap, fert, crop_use)
        demand_fits.append(bs.fit_two_stage(series))

    z_scenario = {
        region: use for name, region, use in tables["scenario_use"] if name == config.scenario
    }
    missing = [region for region in regions if region not in z_scenario]
    if missing:
        raise bs.CalibrationError(
            f"scenario {config.scenario!r} lacks fertilizer use for: {', '.join(missing)}"
        )

    supply_by_year = {
        supplier: [
            sum(flows.get((supplier, region, year), 0.0) for region in regions)
            for year in years
        ]
        for supplier in suppliers
    }
    global_demand = [
        sum(local.get((region, year), 0.0) for region in regions)
        + sum(
            flows.get((supplier, region, year), 0.0)
            for supplier in suppliers
            for region in regions
        )
        for year in years
    ]
    share_map, pool_kt = bs.capacity_inputs(
        supply_by_year, global_demand, base=config.capacity_share_base
    )

    inversion = bs.infer_relative_trade_costs(
        flows,
        local,
        suppliers,
        regions,
        years,
        config.reference_market,
        config.reference_year,
        theta=config.theta,
    )
    cost_fit = bs.fit_trade_cost_regression(inversion.w, inversion.v)

    context = ExperimentContext(
        config=config,
        suppliers=suppliers,
        regions=regions,
        demand_fits=tuple(demand_fits),
        z_scenario=tuple(z_scenario[region] for region in regions),
        shares=tuple(share_map[supplier] for supplier in suppliers),
        deviation_pool=tuple(dev / config.unit_kt for dev in pool_kt),
        cost_fit=cost_fit,
        base_costs=inversion.base_costs,
        ref_shares=inversion.ref_shares,
        reference_index=regions.index(config.reference_market),
        input_digests=tuple(sorted(digests.items())),
        start=FlowStart((), ()),  # replaced below; assembling a draw does not read it
    )
    return context._replace(start=reference_start(assemble_draw(context, 0).instance()))


def assemble_draw(context: ExperimentContext, replication: int) -> BootstrapDraw:
    """Sample every exogenous input for one replication."""
    config = context.config
    n = len(context.regions)
    demand_rngs, capacity_rng, cost_rng = bs.replication_streams(
        config.seed, replication, n
    )
    unit_mt = config.unit_kt / 1000.0

    d_units = []
    rejections = 0
    for j in range(n):
        draw, rejected = bs.wild_bootstrap_demand(
            context.demand_fits[j],
            context.z_scenario[j],
            demand_rngs[j],
            min_value=0.5 * unit_mt,
        )
        rejections += rejected
        d_units.append(quantize(draw * 1000.0, config.unit_kt))
    total_units = sum(d_units)

    capacities = bs.sample_capacity(
        float(total_units), context.shares, context.deviation_pool, capacity_rng
    )

    ref_growth = (d_units[context.reference_index] / total_units) / context.ref_shares[
        context.reference_index
    ]
    share_changes = tuple(
        (d_units[j] / total_units) / ref_growth - context.ref_shares[j]
        for j in range(n)
    )
    costs = bs.sample_trade_costs(
        context.base_costs,
        share_changes,
        context.cost_fit,
        cost_rng,
        scale=config.money_scale,
    )
    a, c_o = bs.calibrate_local_costs(
        d_units, theta=config.theta, scale=config.money_scale
    )
    return BootstrapDraw(
        replication=replication,
        d=tuple(d_units),
        s=capacities,
        t=costs,
        a=a,
        c_o=c_o,
        rejections=rejections,
    )


class ReplicationResult(NamedTuple):
    """Inputs, equilibrium and structure statistics of one replication."""

    draw: BootstrapDraw
    markups: tuple[int, ...]
    flows: tuple[tuple[int, ...], ...]
    concentration: tuple[float, ...]
    local_share: tuple[float, ...]
    diversification: tuple[float | None, ...]
    global_share: tuple[float, ...]
    sold: tuple[int, ...]


def run_replication(context: ExperimentContext, replication: int) -> ReplicationResult:
    draw = assemble_draw(context, replication)
    inst = draw.instance()
    equilibrium = solve_minimal_markups(inst, context.start)
    witnesses = verify_equilibrium(inst, equilibrium)
    if witnesses:
        raise ExperimentError(
            f"replication {replication} failed verification: " + "; ".join(witnesses)
        )
    flows = equilibrium.flows
    return ReplicationResult(
        draw=draw,
        markups=equilibrium.markups,
        flows=flows.x,
        concentration=tuple(
            metrics.concentration(j, flows, inst) for j in range(inst.n)
        ),
        local_share=tuple(metrics.local_share(j, flows, inst) for j in range(inst.n)),
        diversification=tuple(
            metrics.diversification(i, flows, inst) for i in range(inst.m)
        ),
        global_share=tuple(
            metrics.global_supplier_share(i, flows, inst.d) for i in range(inst.m)
        ),
        sold=tuple(flows.supplier_total(i) for i in range(inst.m)),
    )


def _replicate(payload: tuple[ExperimentContext, int]) -> ReplicationResult:
    context, replication = payload
    # Looked up by name in the worker at call time, so a wrapper that rebinds
    # ``run_replication`` for one call undoes itself in each process (the
    # benchmark's launcher marks each process's first replication this way).
    # Mapping ``run_replication`` itself would pickle the wrapper into every
    # task and mark every replication as a first one.
    return run_replication(context, replication)


class ScenarioReport(NamedTuple):
    """Replication statistics in the shape of the published scenario tables."""

    context: ExperimentContext
    demand_mt: tuple[tuple[float, float], ...]  # per region (mean, sd)
    concentration: tuple[tuple[float, float], ...]
    local_share: tuple[tuple[float, float], ...]
    diversification: tuple[tuple[float, float, int], ...]  # mean, sd, defined count
    global_share: tuple[tuple[float, float], ...]
    trade_costs: metrics.TradeCostSummary
    replications: tuple[ReplicationResult, ...]
    rejections: int


def run_experiment(config: ExperimentConfig) -> ScenarioReport:
    """Execute all replications and aggregate mean/SD statistics.

    With ``workers > 1`` the replications run in a pool of forked processes,
    one per worker but never more than there are replications.  Forking is
    safe because nothing on this path starts a thread.
    """
    context = load_context(config)
    indices = range(config.replications)
    if config.workers > 1:
        import multiprocessing  # a 1-worker run does not pay for this import

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError("workers > 1 needs the fork start method; set workers = 1")
        processes = min(config.workers, config.replications)
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            results = pool.map(_replicate, [(context, b) for b in indices])
    else:
        results = [run_replication(context, b) for b in indices]
    return aggregate(context, results)


def aggregate(
    context: ExperimentContext, results: list[ReplicationResult]
) -> ScenarioReport:
    config = context.config
    n = len(context.regions)
    m = len(context.suppliers)
    unit_mt = config.unit_kt / 1000.0

    demand_stats = tuple(
        metrics.mean_sd([r.draw.d[j] * unit_mt for r in results]) for j in range(n)
    )
    concentration_stats = tuple(
        metrics.mean_sd([r.concentration[j] for r in results]) for j in range(n)
    )
    local_stats = tuple(
        metrics.mean_sd([r.local_share[j] for r in results]) for j in range(n)
    )
    diversification_stats = []
    for i in range(m):
        defined = [
            r.diversification[i] for r in results if r.diversification[i] is not None
        ]
        if defined:
            mean, sd = metrics.mean_sd(defined)  # type: ignore[arg-type]
        else:
            mean, sd = math.nan, math.nan
        diversification_stats.append((mean, sd, len(defined)))
    global_stats = tuple(
        metrics.mean_sd([r.global_share[i] for r in results]) for i in range(m)
    )
    cost_summary = metrics.entry_floor_summary(
        [r.draw.t for r in results], config.money_scale
    )
    return ScenarioReport(
        context=context,
        demand_mt=demand_stats,
        concentration=concentration_stats,
        local_share=local_stats,
        diversification=tuple(diversification_stats),
        global_share=global_stats,
        trade_costs=cost_summary,
        replications=tuple(results),
        rejections=sum(r.draw.rejections for r in results),
    )


# ---------------------------------------------------------------------------
# Output tables


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def emit_tables(report: ScenarioReport, outdir: Path) -> dict[str, Path]:
    """Write one CSV per table shape plus the run manifest."""
    if not report.replications:
        raise ExperimentError("cannot emit tables for an empty report")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    context = report.context
    config = context.config
    regions = context.regions
    suppliers = context.suppliers
    outputs: dict[str, Path] = {}

    def table(name: str, header: list[str], rows: list[list[object]]) -> None:
        path = outdir / f"{name}.csv"
        write_csv(path, header, rows)
        outputs[name] = path

    for name, key, labels, stats, columns in (
        ("demand", "region", regions, report.demand_mt, ["mean_mt", "sd_mt"]),
        ("concentration", "region", regions, report.concentration, ["mean", "sd"]),
        ("local_share", "region", regions, report.local_share, ["mean", "sd"]),
        ("global_share", "supplier", suppliers, report.global_share, ["mean", "sd"]),
    ):
        table(
            name,
            [key, *columns],
            [[label, _fmt(mean), _fmt(sd)] for label, (mean, sd) in zip(labels, stats)],
        )
    table(
        "diversification",
        ["supplier", "mean", "sd", "defined"],
        [
            [
                suppliers[i],
                _fmt(report.diversification[i][0]) if report.diversification[i][2] else "",
                _fmt(report.diversification[i][1]) if report.diversification[i][2] else "",
                report.diversification[i][2],
            ]
            for i in range(len(suppliers))
        ],
    )

    cost_header = ["region"]
    for supplier in suppliers:
        cost_header += [f"{supplier}_mean", f"{supplier}_sd"]
    cost_rows = []
    for j in range(len(regions)):
        row: list[object] = [regions[j]]
        for i in range(len(suppliers)):
            mean = report.trade_costs.mean[i][j]
            sd = report.trade_costs.sd[i][j]
            row += ["" if mean is None else _fmt(mean), "" if sd is None else _fmt(sd)]
        cost_rows.append(row)
    table("trade_costs", cost_header, cost_rows)

    table(
        "entry_floor",
        ["region", "mean_min_cost"],
        [
            [regions[j], _fmt(report.trade_costs.entry_floor[j])]
            for j in range(len(regions))
        ],
    )

    rep_header = ["replication"]
    rep_header += [f"demand_units_{region}" for region in regions]
    rep_header += [f"capacity_{supplier}" for supplier in suppliers]
    rep_header += ["a"]
    rep_header += [f"local_cost_{region}" for region in regions]
    rep_header += [f"markup_{supplier}" for supplier in suppliers]
    rep_header += [f"sold_{supplier}" for supplier in suppliers]
    rep_header += [f"concentration_{region}" for region in regions]
    rep_header += [f"local_share_{region}" for region in regions]
    rep_rows: list[list[object]] = []
    for result in report.replications:
        row = [result.draw.replication]
        row += list(result.draw.d)
        row += list(result.draw.s)
        row.append(result.draw.a)
        row += list(result.draw.c_o)
        row += list(result.markups)
        row += list(result.sold)
        row += [_fmt(value) for value in result.concentration]
        row += [_fmt(value) for value in result.local_share]
        rep_rows.append(row)
    table("replications", rep_header, rep_rows)

    manifest = outdir / "manifest.txt"
    lines = [
        f"scenario: {config.scenario}",
        f"replications: {config.replications}",
        f"seed: {config.seed}",
        f"money_scale: {config.money_scale}",
        f"unit_kt: {config.unit_kt}",
        f"theta: {config.theta}",
        f"capacity_share_base: {config.capacity_share_base}",
        f"reference_market: {config.reference_market}",
        f"reference_year: {config.reference_year}",
        f"suppliers: {','.join(suppliers)}",
        f"regions: {','.join(regions)}",
        f"rejected_draws: {report.rejections}",
    ]
    lines += [f"digest_{name}: {digest}" for name, digest in context.input_digests]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs["manifest"] = manifest
    return outputs


# ---------------------------------------------------------------------------
# Re-check of sampled replications


def sampled_replications(replications: int, sample: int) -> list[int]:
    """``min(sample, replications)`` evenly spaced indices, starting at 0."""
    if sample < 1:
        raise ConfigError("sample must be >= 1")
    count = min(sample, replications)
    return [k * replications // count for k in range(count)]


def verify_run(config: ExperimentConfig, *, sample: int) -> list[tuple[int, bool, bool]]:
    """Re-check sampled replications with an independent solver and a certificate.

    ``min(sample, replications)`` evenly spaced replications are sampled
    (see :func:`sampled_replications`).  Each is re-run (its equilibrium
    must pass the verifier, or :class:`ExperimentError` is raised) and
    re-solved at full scale by the ascending auction, whose markups and
    flows must equal the production solver's.  Its markups must also pass
    :func:`~phosmarket.auction.certify_minimal_markups` on the full instance.

    When the configured output directory holds a run manifest, its input
    digests must match the current input tables (the saved run would not be
    reproducible otherwise).  Returns ``(replication, auction_match,
    certificate_ok)`` per sampled index.
    """
    indices = sampled_replications(config.replications, sample)
    context = load_context(config)
    manifest = Path(config.output_dir) / "manifest.txt"
    if manifest.exists():
        recorded = {}
        for line in manifest.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(":")
            if key.startswith("digest_"):
                recorded[key.removeprefix("digest_")] = value.strip()
        for name, digest in context.input_digests:
            if name in recorded and recorded[name] != digest:
                raise ExperimentError(
                    f"input table {name!r} changed since the saved run "
                    f"(digest {digest} != recorded {recorded[name]})"
                )
    outcomes = []
    for b in indices:
        result = run_replication(context, b)  # raises on verifier failure
        inst = result.draw.instance()
        reference = run_english_auction(inst)
        auction_match = (
            reference.markups == result.markups and reference.flows.x == result.flows
        )
        outcomes.append((b, auction_match, certify_minimal_markups(inst, result.markups)))
    return outcomes
