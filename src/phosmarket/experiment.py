"""End-to-end scenario experiment: sample, solve, verify, aggregate.

Every replication assembles one market instance from bootstrap draws,
computes its minimal markups as min-cost-flow duals
(:func:`~phosmarket.auction.solve_minimal_markups`, warm-started from the
optimum of replication 0's draw, which :func:`load_context` solves),
verifies the equilibrium (a verifier failure aborts the whole run) and
returns it with its draw; :func:`aggregate` computes the market-structure
statistics of every equilibrium and builds the report tables.
:func:`verify_run` re-solves sampled replications with the paper's
tick-by-tick ascending auction, the reference mechanism, and certifies
their markups minimal at full scale (:func:`~phosmarket.auction.certify_minimal_markups`).
Replications are independent.  With ``W`` workers (never more than there
are replications) the process forks ``W - 1`` children after loading the
context (POSIX only); each child inherits the loaded context and runs one
contiguous block of replications, while the parent runs the first block itself.
Results, and the error a failing run raises, are a pure function of
(inputs, config, seed) regardless of worker count.
"""

from __future__ import annotations

import contextlib
import os
from itertools import chain
from pathlib import Path
from typing import NamedTuple, NoReturn

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
from .core import Flows, MarketInstance, quantize
from .rng import StreamSeeds, stream_seeds
from .tables import Table, quantity, read_csv, write_tables

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
        return MarketInstance(self.s, self.d, self.a, self.c_o, self.t)


class ExperimentContext(NamedTuple):
    """Immutable, picklable state shared by all replications of one run.

    Every field is a run constant, computed before any worker forks, so
    reports do not depend on the worker count.  ``start`` is the optimal
    flow and potentials of replication 0's ``draw``, solved cold; every
    solve warm-starts from it, and replication 0 reuses the draw.  Every
    command that loads a context, ``calibrate`` and ``verify`` included,
    solves that draw, and so fails where ``simulate`` would.
    ``demand_fits`` holds one two-stage fit per region, in ``regions`` order.
    """

    config: ExperimentConfig
    suppliers: tuple[str, ...]
    regions: tuple[str, ...]
    demand_fits: tuple[bs.TwoStageFit, ...]
    z_scenario: tuple[float, ...]
    shares: tuple[float, ...]  # supplier share estimates, unitless
    deviation_pool: tuple[float, ...]  # capacity deviations, goods units
    cost_fit: bs.TradeCostFit  # all that a trade-cost draw reads
    input_digests: tuple[tuple[str, str], ...]
    seeds: StreamSeeds
    draw: BootstrapDraw
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
    # how the tables must cover the run; each error names its table or config key
    if len(years) < 2:
        raise bs.CalibrationError(
            f"{paths['flows']}: has {len(flows)} rows in {len(years)} years; the "
            "trade-cost fit needs rows in at least 2 years"
        )
    if len(regions) < 2:
        raise bs.CalibrationError(
            f"{paths['flows']} and {paths['local_supply']} name only region {regions[0]!r}; "
            "the share-change regression needs at least 2"
        )
    j0 = config.reference_market
    if j0 not in regions:
        raise bs.CalibrationError(
            f"reference_market {j0!r} is not a region of {paths['flows']} "
            f"or {paths['local_supply']}"
        )
    if config.reference_year not in years:
        raise bs.CalibrationError(
            f"reference_year {config.reference_year} is not a year of {paths['flows']}"
        )
    for year in years:  # the fit's cost levels and global demands rest on these
        if local.get((j0, year), 0.0) <= 0:
            raise bs.CalibrationError(
                f"{paths['local_supply']}: reference_market {j0!r} has no local supply in {year}"
            )
        if not any(flows.get((supplier, j0, year), 0.0) > 0 for supplier in suppliers):
            raise bs.CalibrationError(
                f"{paths['flows']}: reference_market {j0!r} receives no flow in {year}"
            )

    demand_fits = []
    for region in regions:
        # rows sort by year: (region, year) is the table's key
        rows = sorted(row for row in tables["demand_series"] if row[0] == region)
        found = [row[1] for row in rows]
        gaps = sorted(set(range(found[0], found[-1] + 1)) - set(found)) if found else []
        if gaps or len(rows) < 5:  # 5 rows smooth to 3 values, the fewest a fit takes
            problem = f"has no row for {gaps[0]}" if gaps else f"has {len(rows)} rows"
            raise bs.CalibrationError(
                f"{paths['demand_series']}: region {region!r} {problem}; "
                "it needs at least 5 rows, in consecutive years"
            )
        _, _, dapmap, fert, crop_use = zip(*rows)
        smoothed = (bs.smooth_cma3(column) for column in (dapmap, fert, crop_use))
        try:
            demand_fits.append(bs.fit_two_stage(region, *smoothed))
        except ValueError as exc:
            raise bs.CalibrationError(f"{paths['demand_series']}: {exc}") from None

    z_scenario = {
        region: use for name, region, use in tables["scenario_use"] if name == config.scenario
    }
    unused = [region for region in regions if z_scenario.get(region, 0.0) <= 0]
    if unused:  # every demand draw of such a region would be 0
        raise bs.CalibrationError(
            f"{paths['scenario_use']}: scenario {config.scenario!r} has no positive use_mt "
            f"for: {', '.join(unused)}"
        )
    # a demand draw below half a goods unit is redrawn (assemble_draw)
    half_unit_mt = 0.5 * config.unit_kt / 1000.0
    point_mt = {fit.region: fit.alpha * fit.beta * z_scenario[fit.region] for fit in demand_fits}
    small = [f"{region} ({mt:.6g} Mt)" for region, mt in point_mt.items() if mt < half_unit_mt]
    if small:
        raise bs.CalibrationError(
            f"unit_kt {config.unit_kt}: half a goods unit, {half_unit_mt:g} Mt, exceeds the "
            f"point demand (alpha * beta * use_mt) of: {', '.join(small)}; lower unit_kt"
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

    cost_fit = bs.fit_trade_costs(
        flows,
        local,
        suppliers,
        regions,
        years,
        j0,
        config.reference_year,
        theta=config.theta,
    )

    context = ExperimentContext(
        config=config,
        suppliers=suppliers,
        regions=regions,
        demand_fits=tuple(demand_fits),
        z_scenario=tuple(z_scenario[region] for region in regions),
        shares=tuple(share_map[supplier] for supplier in suppliers),
        deviation_pool=tuple(dev / config.unit_kt for dev in pool_kt),
        cost_fit=cost_fit,
        input_digests=tuple(sorted(digests.items())),
        seeds=stream_seeds(config.seed, len(regions) + 2),
        draw=None,  # both replaced below; assembling a draw reads neither
        start=None,
    )
    draw = assemble_draw(context, 0)
    return context._replace(draw=draw, start=reference_start(draw.instance()))


def assemble_draw(context: ExperimentContext, replication: int) -> BootstrapDraw:
    """Sample every exogenous input for one replication."""
    config = context.config
    demand_rngs, capacity_rng, cost_rng = bs.replication_streams(context.seeds, replication)
    min_mt = 0.5 * (config.unit_kt / 1000.0)  # half a goods unit

    d_units = []
    rejections = 0
    for fit, z_scenario, rng in zip(context.demand_fits, context.z_scenario, demand_rngs):
        draw, rejected = bs.wild_bootstrap_demand(fit, z_scenario, rng, min_value=min_mt)
        rejections += rejected
        d_units.append(quantize(draw * 1000.0, config.unit_kt))
    capacities = bs.sample_capacity(
        float(sum(d_units)), context.shares, context.deviation_pool, capacity_rng
    )
    costs = bs.sample_trade_costs(
        context.cost_fit, d_units, cost_rng, scale=config.money_scale
    )
    a, c_o = bs.calibrate_local_costs(
        d_units, theta=config.theta, scale=config.money_scale
    )
    return BootstrapDraw(replication, tuple(d_units), capacities, costs, a, c_o, rejections)


class ReplicationResult(NamedTuple):
    """Inputs and equilibrium of one replication."""

    draw: BootstrapDraw
    markups: tuple[int, ...]
    flows: Flows


def run_replication(context: ExperimentContext, replication: int) -> ReplicationResult:
    draw = context.draw if replication == 0 else assemble_draw(context, replication)
    inst = draw.instance()
    equilibrium = solve_minimal_markups(inst, context.start)
    witnesses = verify_equilibrium(inst, equilibrium)
    if witnesses:
        raise ExperimentError(
            f"replication {replication} failed verification: " + "; ".join(witnesses)
        )
    return ReplicationResult(draw, *equilibrium)


class ScenarioReport(NamedTuple):
    """The report tables of one run and the replications they summarize.

    ``tables`` holds one ``(name, header, rows)`` per report CSV, in the
    order :func:`emit_tables` writes them.  Past its label, a cell is an
    int, a float, or ``None`` where no replication defines the value.
    """

    context: ExperimentContext
    tables: tuple[Table, ...]
    replications: tuple[ReplicationResult, ...]
    rejections: int


def run_experiment(config: ExperimentConfig) -> ScenarioReport:
    """Execute all replications and aggregate mean/SD statistics.

    With ``W = min(workers, replications)`` and ``B`` replications, block
    ``k`` holds replications ``k * B // W`` up to ``(k + 1) * B // W``.  The
    parent forks ``W - 1`` children; child ``k`` runs block ``k`` and pipes
    its results back, while the parent runs block 0 itself and then reads
    the children's parts in block order.  ``W = 1`` forks nothing.  Forking
    is safe because nothing on this path starts a thread.

    Each process stops at its first failing replication.  The parent raises
    the first failure it meets in block order at once, without waiting for
    later blocks: every earlier block succeeded, so it is the failure with
    the lowest index, the error a 1-worker run raises.  A child that dies
    without reporting raises :class:`ExperimentError` naming its pid.  No
    child outlives the call.
    """
    if config.workers > 1 and not hasattr(os, "fork"):
        raise ConfigError("workers > 1 needs os.fork; set workers = 1")
    context = load_context(config)
    blocks = min(config.workers, config.replications)
    bounds = [k * config.replications // blocks for k in range(blocks + 1)]
    children = []  # (pid, read end of its pipe), in block order
    try:
        for k in range(1, blocks):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(context, range(bounds[k], bounds[k + 1]), write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        # looked up at each call, so that a wrapper rebinding run_replication
        # (as perfbench/launch_cli.py does) acts in every process
        results = [run_replication(context, b) for b in range(bounds[1])]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status or not data:
                raise ExperimentError(
                    f"worker process {pid} ended without reporting its replications "
                    f"(wait status {status}, exit code {os.waitstatus_to_exitcode(status)})"
                )
            part, failure = _pickling()[1](data)
            if failure is not None:
                raise failure
            results += part
    finally:
        if children:  # an error or an interrupt left workers running
            import signal

            for pid, pipe in children:
                pipe.close()
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return aggregate(context, results)


def _run_child(context: ExperimentContext, block: range, write_fd: int) -> NoReturn:
    """Run one block in a forked child and pickle its part into ``write_fd``.

    The part is the block's results and ``None``, or no results and the
    error of the block's first failing replication.  The child leaves only
    through ``os._exit``, so it runs no ``atexit`` handler and flushes no
    buffer inherited from the parent.  It exits 0 only once its whole part
    is written.
    """
    status = 1
    try:
        results, failure = [], None
        try:
            for b in block:
                results.append(run_replication(context, b))
        except Exception as exc:  # raised by the parent, if no earlier block failed
            results, failure = [], exc
        dumps, loads = _pickling()
        if failure is not None:
            try:
                loads(dumps(failure))
            except Exception:
                failure = ExperimentError(f"replication {b} failed: {failure!r}")
        with open(write_fd, "wb") as pipe:
            pipe.write(dumps((results, failure)))
        status = 0
    finally:
        os._exit(status)


def _pickling():
    """``dumps`` and ``loads`` for the pipes of a forked run.

    Imported at the first use, so that neither a replication nor a 1-worker
    run waits for them.  The C accelerator ``_pickle`` alone imports in about
    a third of the time of ``pickle``, which wraps it.
    """
    try:
        from _pickle import dumps, loads
    except ImportError:  # an interpreter built without it
        from pickle import dumps, loads
    return dumps, loads


def aggregate(
    context: ExperimentContext, results: list[ReplicationResult]
) -> ScenarioReport:
    """Build every report table from the results, listed in replication order.

    Each result's structure statistics are computed here, once
    (:func:`~phosmarket.metrics.structure`).  A summary cell is the mean or
    SD over the replications that define the value, and ``None`` where none
    does.  A region's entry floor is the mean over draws of its cheapest open
    trade cost, so it is ``None`` when no pair into the region is open.
    Every draw of a run opens the same pairs: the solver's start rejects an
    instance with others.
    """
    if not results:
        raise ExperimentError("cannot aggregate a run without replications")
    config = context.config
    regions, suppliers = context.regions, context.suppliers
    unit_mt = config.unit_kt / 1000.0
    scale = config.money_scale
    tables: list[Table] = []

    structures = (metrics.structure(r.flows, r.draw.instance()) for r in results)
    stats = metrics.MarketStructure(*zip(*structures))  # each field: one entry per result
    demand_mt = [[d * unit_mt for d in r.draw.d] for r in results]
    # each pair's costs over the draws, pair (i, j) at i * n + j, and those into each region
    by_pair = list(zip(*[list(chain.from_iterable(r.draw.t)) for r in results]))
    into = [by_pair[j :: len(regions)] for j in range(len(regions))]
    # each draw's cheapest open trade cost into each region, None where no pair is open
    floors = [
        [min(costs) / scale for costs in zip(*opened)] if opened else [None] * len(results)
        for opened in ([costs for costs in column if costs[0] is not None] for column in into)
    ]
    for name, key, columns, by_label in (
        ("demand", "region", ("mean_mt", "sd_mt"), zip(*demand_mt)),
        ("concentration", "region", ("mean", "sd"), zip(*stats.concentration)),
        ("local_share", "region", ("mean", "sd"), zip(*stats.local_share)),
        ("global_share", "supplier", ("mean", "sd"), zip(*stats.global_share)),
        ("diversification", "supplier", ("mean", "sd", "defined"), zip(*stats.diversification)),
        ("entry_floor", "region", ("mean_min_cost",), floors),
    ):
        labels = regions if key == "region" else suppliers
        rows = tuple(
            (label, *metrics.summary(values)[: len(columns)])
            for label, values in zip(labels, by_label)
        )
        tables.append((name, (key, *columns), rows))

    cost_rows = []
    for region, column in zip(regions, into):
        cells: list[object] = [region]
        for costs in column:  # empty where the pair is closed
            cells += metrics.summary([cost / scale for cost in costs if cost is not None])[:2]
        cost_rows.append(tuple(cells))
    cost_header = [f"{supplier}_{stat}" for supplier in suppliers for stat in ("mean", "sd")]
    tables.append(("trade_costs", ("region", *cost_header), tuple(cost_rows)))

    def named(prefix: str, labels: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(f"{prefix}_{label}" for label in labels)

    replication_columns = (
        (("replication",), [(r.draw.replication,) for r in results]),
        (named("demand_units", regions), [r.draw.d for r in results]),
        (named("capacity", suppliers), [r.draw.s for r in results]),
        (("a",), [(r.draw.a,) for r in results]),
        (named("local_cost", regions), [r.draw.c_o for r in results]),
        (named("markup", suppliers), [r.markups for r in results]),
        (named("sold", suppliers), [tuple(map(sum, r.flows)) for r in results]),
        (named("concentration", regions), stats.concentration),
        (named("local_share", regions), stats.local_share),
    )
    header = tuple(chain.from_iterable(names for names, _ in replication_columns))
    parts = zip(*(values for _, values in replication_columns))  # one tuple of parts per row
    tables.append(("replications", header, tuple(tuple(chain.from_iterable(p)) for p in parts)))
    return ScenarioReport(
        context=context,
        tables=tuple(tables),
        replications=tuple(results),
        rejections=sum(r.draw.rejections for r in results),
    )


# ---------------------------------------------------------------------------
# Output tables


#: The config keys that determine a run's report, in the order the manifest
#: records them; :func:`verify_run` requires a saved run's to be the config's.
RUN_SETTINGS = (
    "scenario", "replications", "seed", "money_scale", "unit_kt", "theta",
    "capacity_share_base", "reference_market", "reference_year",
)


def emit_tables(report: ScenarioReport, outdir: Path) -> dict[str, Path]:
    """Write each report table (:func:`~phosmarket.tables.write_tables`), then the manifest."""
    outputs = write_tables(outdir, report.tables)
    context = report.context
    config = context.config
    manifest = Path(outdir) / "manifest.txt"
    lines = [f"{key}: {getattr(config, key)}" for key in RUN_SETTINGS]
    lines += [
        f"suppliers: {','.join(context.suppliers)}",
        f"regions: {','.join(context.regions)}",
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

    When the configured output directory holds a run manifest, its run
    settings (:data:`RUN_SETTINGS`) and input digests must match the config
    and the input tables, or :class:`ExperimentError` is raised: the sample
    would re-check another run, or the saved run would not be reproducible.
    Returns ``(replication, auction_match, certificate_ok)`` per sampled index.
    """
    indices = sampled_replications(config.replications, sample)
    manifest = Path(config.output_dir) / "manifest.txt"
    recorded = {}
    if manifest.exists():
        for line in manifest.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(":")
            recorded[key] = value.strip()
        for key in RUN_SETTINGS:
            if recorded.get(key) != str(getattr(config, key)):
                raise ExperimentError(
                    f"the saved run in {manifest.parent} has {key} {recorded.get(key)}, "
                    f"the config {getattr(config, key)}"
                )
    context = load_context(config)
    for name, digest in context.input_digests:
        saved = recorded.get(f"digest_{name}")
        if saved is not None and saved != digest:
            raise ExperimentError(
                f"input table {name!r} changed since the saved run "
                f"(digest {digest} != recorded {saved})"
            )
    outcomes = []
    for b in indices:
        result = run_replication(context, b)  # raises on verifier failure
        inst = result.draw.instance()
        reference = run_english_auction(inst)
        auction_match = reference == (result.markups, result.flows)
        outcomes.append((b, auction_match, certify_minimal_markups(inst, result.markups)))
    return outcomes
