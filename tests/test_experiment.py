"""Configuration parsing, draw assembly, report emission and the CLI."""

import dataclasses
import hashlib
import importlib.util
import os
import pickle
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from phosmarket import auction, bootstrap, experiment
from phosmarket.auction import (
    certify_minimal_markups,
    run_english_auction,
    solve_minimal_markups,
    verify_equilibrium,
)
from phosmarket.cli import main
from phosmarket.config import ConfigError, ExperimentConfig, load_config
from phosmarket.core import Equilibrium, validate_instance
from phosmarket.experiment import (
    ExperimentError,
    aggregate,
    assemble_draw,
    emit_tables,
    load_context,
    run_experiment,
    run_replication,
    sampled_replications,
    verify_run,
)
from phosmarket.pipeline import run_pipeline
from report_rows import read_rows, table_rows

ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data" / "fixture_small"

# sha256 of every report file of fixture_bau.cfg (200 replications), as
# produced when the samplers drew from NumPy generators.  Stream or
# summation drift in the bootstrap changes at least one of them.
FIXTURE_REPORT_SHA256 = {
    "concentration.csv": "99317eb2b301ec661d2c83184543f701e607737c5588ec8480a7383322dcd72b",
    "demand.csv": "4d856d86103b991566579607bafc424142a345c3e667965e87fc393ad61c65a9",
    "diversification.csv": "3e433138bfd49b5ee44619bf0f433275984e10428714e8d5b607a06f7b8ed2d6",
    "entry_floor.csv": "4a079b7d5d0aedbe9ebcc53f031887323b748e451e047777073d93a414647d88",
    "global_share.csv": "edfa18cd9415f43a2daa59dbab88f6e9ff3affa73ac7f455188a78432d13cac2",
    "local_share.csv": "1e7397cd61152e4cd2052e61e9941ddb4f74f3853be8ae18da7f093b86ffab4e",
    "manifest.txt": "c1b509adc6e8799606dff80184821ed02fe664c88600842df1c369a1d8b44cb8",
    "replications.csv": "a4dc782d2109e975ffc229d3601f1a923adc8fb8c29a81b763f15682bfa8843f",
    "trade_costs.csv": "3ef97651928a0018cbb22dce210c1be92140453f3cf16815ce686c0b0483141a",
}


def fixture_config(tmp_path, **overrides):
    fields = dict(
        scenario="BAU",
        seed=20240815,
        reference_market="east",
        reference_year=2013,
        data_dir=DATA,
        output_dir=tmp_path / "out",
        replications=8,
        money_scale=100,
        unit_kt=25.0,
        theta=1.0,
        workers=1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def write_config(tmp_path, **overrides) -> Path:
    config = fixture_config(tmp_path, **overrides)
    lines = [
        f"scenario = {config.scenario}",
        f"replications = {config.replications}",
        f"seed = {config.seed}",
        f"money_scale = {config.money_scale}",
        f"unit_kt = {config.unit_kt}",
        f"theta = {config.theta}",
        f"reference_market = {config.reference_market}",
        f"reference_year = {config.reference_year}",
        f"data_dir = {config.data_dir}",
        f"output_dir = {config.output_dir}",
        f"workers = {config.workers}",
    ]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# Configuration


def test_config_file_roundtrip(tmp_path):
    path = write_config(tmp_path)
    config = load_config(path)
    assert config.scenario == "BAU"
    assert config.replications == 8
    assert config.unit_kt == 25.0


def test_config_defaults_and_validation(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "scenario = BAU\nseed = 1\nreference_market = east\n"
        "reference_year = 2013\ndata_dir = d\noutput_dir = o\n"
    )
    config = load_config(path)
    assert config.replications == 1000
    assert config.money_scale == 100
    assert config.theta == 0.5
    assert config.workers == 1


def test_config_rejects_unknown_and_missing_keys(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("scenario = BAU\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    path.write_text("scenario = BAU\n")
    with pytest.raises(ConfigError, match="missing required"):
        load_config(path)
    path.write_text("# no entries\n")
    required = "scenario, seed, reference_market, reference_year, data_dir, output_dir"
    with pytest.raises(ConfigError, match=re.escape(f"{path}: missing required keys: {required}")):
        load_config(path)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        fixture_config(tmp_path, seed=-1)
    with pytest.raises(ConfigError):
        fixture_config(tmp_path, replications=0)
    with pytest.raises(ConfigError):
        fixture_config(tmp_path, unit_kt=0.0)
    with pytest.raises(ConfigError):
        fixture_config(tmp_path, capacity_share_base="median")
    with pytest.raises(ConfigError, match="money_scale must be >= 1"):
        fixture_config(tmp_path, money_scale=0)
    with pytest.raises(ConfigError, match="theta must be nonnegative"):
        fixture_config(tmp_path, theta=-1)
    path = tmp_path / "c.cfg"
    path.write_text("scenario = BAU\nseed = 1.5\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: bad value for 'seed'")):
        load_config(path)
    path.write_text("scenario = BAU\nseed\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:2: expected 'key = value'")):
        load_config(path)
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace("workers = 1\n", "workers = 0\n"))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: workers must be >= 1")):
        load_config(path)


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_text(path.read_text() + "# a later run\nseed = 5\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}:13: repeats key 'seed' of line 3")):
        load_config(path)
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:13: repeats key 'seed'")
    assert not (tmp_path / "out").exists()


def test_config_file_sets_every_field(tmp_path):
    expected = ExperimentConfig(
        scenario="SSP2",
        seed=7,
        reference_market="north",
        reference_year=2011,
        data_dir=tmp_path / "data",
        output_dir=tmp_path / "out",
        replications=12,
        money_scale=1000,
        unit_kt=12.5,
        theta=0.75,
        capacity_share_base="latest",
        workers=3,
    )
    fields = dataclasses.fields(ExperimentConfig)
    assert len(fields) == 12
    assert all(getattr(expected, field.name) != field.default for field in fields)
    path = tmp_path / "c.cfg"
    path.write_text("".join(f"{f.name} = {getattr(expected, f.name)}\n" for f in fields))
    config = load_config(path)
    assert config == expected
    assert isinstance(config.data_dir, Path) and isinstance(config.output_dir, Path)
    assert type(config.seed) is int and type(config.money_scale) is int
    assert type(config.unit_kt) is float and type(config.theta) is float


def test_config_overrides_apply_only_values_that_are_set(tmp_path):
    config = fixture_config(tmp_path)
    assert config.with_overrides(seed=None, workers=2) == dataclasses.replace(config, workers=2)


# ---------------------------------------------------------------------------
# Draw assembly and replications


def test_context_masks_pairs_without_history(tmp_path):
    context = load_context(fixture_config(tmp_path))
    assert context.suppliers == ("atlaschem", "borchem", "capechem")
    assert context.regions == ("east", "north", "south", "west")
    capechem = context.suppliers.index("capechem")
    north = context.regions.index("north")
    assert context.cost_fit.base_costs[capechem][north] is None


def test_draws_are_deterministic_and_replication_indexed(tmp_path):
    context = load_context(fixture_config(tmp_path))
    again = assemble_draw(context, 3)
    assert assemble_draw(context, 3) == again
    assert assemble_draw(context, 4) != again


def test_draw_yields_valid_instance_and_identity(tmp_path):
    context = load_context(fixture_config(tmp_path))
    draw = assemble_draw(context, 0)
    inst = draw.instance()
    assert validate_instance(inst) == []
    for d, c in zip(draw.d, draw.c_o):
        assert draw.a * d + c == 100


def test_replication_passes_verifier_and_masks_flows(tmp_path):
    context = load_context(fixture_config(tmp_path))
    result = run_replication(context, 0)
    capechem = context.suppliers.index("capechem")
    north = context.regions.index("north")
    assert result.flows[capechem][north] == 0
    assert sum(map(sum, result.flows)) > 0


def test_dual_solver_matches_auction_on_fixture_draws():
    # Reports stay byte-identical only if the production solver reproduces
    # the auction's markups and flows on the committed fixture.
    config = load_config(DATA / "fixture_bau.cfg")
    context = load_context(dataclasses.replace(config, data_dir=DATA))
    for b in range(25):
        inst = assemble_draw(context, b).instance()
        eq = solve_minimal_markups(inst, context.start)
        assert eq == run_english_auction(inst), b
        assert certify_minimal_markups(inst, eq.markups), b


def test_fixture_replications_pass_the_cheapest_units_certificate():
    # Every market of a production replication is settled by the certificate,
    # without the exact utility comparison.
    config = load_config(DATA / "fixture_bau.cfg")
    context = load_context(dataclasses.replace(config, data_dir=DATA))
    for b in range(60):
        inst = assemble_draw(context, b).instance()
        eq = solve_minimal_markups(inst, context.start)
        for j in range(inst.n):
            bundle = tuple(row[j] for row in eq.flows)
            assert auction._buys_cheapest_units(inst, j, eq.markups, bundle), (b, j)


def test_single_replication_report_has_zero_sd(tmp_path):
    config = fixture_config(tmp_path, replications=1)
    report = run_experiment(config)
    assert all(row["sd_mt"] == 0.0 for row in table_rows(report, "demand"))
    for name in ("concentration", "local_share", "global_share"):
        assert all(row["sd"] == 0.0 for row in table_rows(report, name)), name


def record_forks(monkeypatch):
    """Record the pid of every child the experiment forks."""
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def test_parallel_run_forks_workers_and_equals_serial_run(tmp_path, monkeypatch):
    config = fixture_config(tmp_path, replications=20)
    serial = run_experiment(config)
    forked = record_forks(monkeypatch)
    for workers in (2, 3):  # 3 blocks of 20 replications are uneven
        forked.clear()
        parallel = run_experiment(dataclasses.replace(config, workers=workers))
        assert len(forked) == workers - 1  # the parent runs the first block
        assert parallel.context == serial.context._replace(config=parallel.context.config)
        for name in serial._fields:
            if name != "context":
                assert getattr(parallel, name) == getattr(serial, name), (workers, name)


def test_run_forks_no_more_children_than_replications(tmp_path, monkeypatch):
    forked = record_forks(monkeypatch)
    report = run_experiment(fixture_config(tmp_path, replications=1, workers=2))
    assert forked == []
    assert [r.draw.replication for r in report.replications] == [0]


def test_every_worker_process_runs_replications(tmp_path, monkeypatch):
    # The benchmark's launcher marks each process's first replication by a
    # wrapper that rebinds ``experiment.run_replication`` for one call.
    marks = tmp_path / "marks"
    marks.mkdir()
    real = experiment.run_replication

    def mark_first(context, replication):
        experiment.run_replication = real
        (marks / str(os.getpid())).write_text(str(replication))
        return real(context, replication)

    monkeypatch.setattr(experiment, "run_replication", mark_first)
    run_experiment(fixture_config(tmp_path, replications=8, workers=2))
    first = {int(path.name): int(path.read_text()) for path in marks.iterdir()}
    assert len(first) == 2 and first[os.getpid()] == 0
    assert sorted(first.values()) == [0, 4]  # the blocks are [0, 4) and [4, 8)


@pytest.mark.parametrize(
    ("error", "code"), [(ExperimentError, 2), (bootstrap.CalibrationError, 1)]
)
def test_a_failing_run_raises_its_lowest_replication_error_for_every_worker_count(
    tmp_path, monkeypatch, capsys, error, code
):
    real = experiment.run_replication

    def fail_at_5_and_8(context, replication):
        if replication in (5, 8):
            raise error(f"replication {replication} cannot be drawn")
        return real(context, replication)

    monkeypatch.setattr(experiment, "run_replication", fail_at_5_and_8)
    path = write_config(tmp_path, replications=10)
    for workers in (1, 2, 3):  # with 3, the blocks are [0, 3), [3, 6) and [6, 10)
        with pytest.raises(error, match=r"^replication 5 cannot be drawn$"):
            run_experiment(fixture_config(tmp_path, replications=10, workers=workers))
        assert main(["simulate", "--config", str(path), "--workers", str(workers)]) == code
        assert "replication 5 cannot be drawn" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_worker_sends_an_unpicklable_error_as_an_experiment_error(tmp_path, monkeypatch):
    class LocalError(Exception):  # a local class cannot be pickled by reference
        pass

    real = experiment.run_replication

    def fail_at_4(context, replication):
        if replication == 4:  # the child's block is [4, 8)
            raise LocalError("lost")
        return real(context, replication)

    monkeypatch.setattr(experiment, "run_replication", fail_at_4)
    with pytest.raises(ExperimentError, match=re.escape("replication 4 failed: LocalError('lost')")):
        run_experiment(fixture_config(tmp_path, replications=8, workers=2))


def test_a_run_whose_parent_slice_fails_leaves_no_worker_running(tmp_path, monkeypatch):
    real = experiment.run_replication

    def fail_at_0(context, replication):
        if replication == 0:
            raise ExperimentError("replication 0 cannot be drawn")
        return real(context, replication)

    monkeypatch.setattr(experiment, "run_replication", fail_at_0)
    with pytest.raises(ExperimentError, match="replication 0"):
        run_experiment(fixture_config(tmp_path, replications=9, workers=3))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_parent_block_does_not_wait_for_the_children(tmp_path, monkeypatch):
    real = experiment.run_replication

    def parent_fails_children_sleep(context, replication):
        if replication == 1:  # the parent's block is [0, 2)
            raise ExperimentError("replication 1 cannot be drawn")
        if replication >= 2:
            time.sleep(10)
        return real(context, replication)

    monkeypatch.setattr(experiment, "run_replication", parent_fails_children_sleep)
    started = time.monotonic()
    with pytest.raises(ExperimentError, match="replication 1 cannot be drawn"):
        run_experiment(fixture_config(tmp_path, replications=6, workers=3))
    assert time.monotonic() - started < 5  # each child's block sleeps for 20 s
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def fixture_records(tmp_path_factory):
    """One record of each immutable record type, built from a fixture run."""
    report = run_experiment(fixture_config(tmp_path_factory.mktemp("records"), replications=2))
    result = report.replications[0]
    inst = result.draw.instance()
    equilibrium = solve_minimal_markups(inst, report.context.start)
    return {
        "MarketInstance": inst,
        "Equilibrium": equilibrium,
        "_MarketDemand": auction._demand_structure(inst, 0, equilibrium.markups),
        "DemandBundle": auction.demand_bundle(0, equilibrium.markups, inst),
        "TwoStageFit": report.context.demand_fits[0],
        "TradeCostFit": report.context.cost_fit,
        "BootstrapDraw": result.draw,
        "ExperimentContext": report.context,
        "ReplicationResult": result,
        "ScenarioReport": report,
        "FlowStart": report.context.start,
    }


@pytest.mark.parametrize(
    "name",
    [
        "MarketInstance",
        "Equilibrium",
        "_MarketDemand",
        "DemandBundle",
        "TwoStageFit",
        "TradeCostFit",
        "BootstrapDraw",
        "ExperimentContext",
        "ReplicationResult",
        "ScenarioReport",
        "FlowStart",
    ],
)
def test_records_are_immutable_and_survive_pickling(fixture_records, name):
    # Results and errors cross the fork boundary by pickle.
    record = fixture_records[name]
    assert type(record).__name__ == name
    for attr in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(record)
    assert restored == record
    assert hash(restored) == hash(record)


def test_emit_tables_rerun_is_byte_identical(tmp_path):
    config = fixture_config(tmp_path)
    report = run_experiment(config)
    first = emit_tables(report, tmp_path / "a")
    second = emit_tables(report, tmp_path / "b")
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes()


def test_report_and_pipeline_write_into_new_nested_directories(tmp_path):
    report_dir = tmp_path / "report" / "nested"
    written = emit_tables(run_experiment(fixture_config(tmp_path, replications=2)), report_dir)
    assert sorted(report_dir.iterdir()) == sorted(written.values())
    pipeline_dir = tmp_path / "pipeline" / "nested"
    written = run_pipeline(ROOT / "tests" / "data" / "raw_small", pipeline_dir)
    assert sorted(pipeline_dir.iterdir()) == sorted(written.values())


def test_fixture_report_matches_pinned_digests(tmp_path):
    config = dataclasses.replace(
        load_config(DATA / "fixture_bau.cfg"), data_dir=DATA, output_dir=tmp_path
    )
    emit_tables(run_experiment(config), tmp_path)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == FIXTURE_REPORT_SHA256


def test_emit_tables_blanks_masked_trade_cost_cells(tmp_path):
    config = fixture_config(tmp_path)
    report = run_experiment(config)
    outputs = emit_tables(report, tmp_path / "t")
    rows = read_rows(outputs["trade_costs"])
    north = next(row for row in rows if row["region"] == "north")
    assert north["capechem_mean"] == ""
    assert north["capechem_sd"] == ""
    assert north["atlaschem_mean"] != ""


def test_a_region_no_supplier_ever_served_is_reported_as_all_local(tmp_path):
    # ``island`` has local supply, a demand series and scenario use, but no
    # flows row: every pair into it is closed to trade in every draw.
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    for name in ("local_supply", "demand_series", "scenario_use"):
        path = data / f"{name}.csv"
        lines = path.read_text().splitlines()
        island = [re.sub(r"\bwest\b", "island", line) for line in lines if ",west," in f",{line}"]
        path.write_text("\n".join(lines + island) + "\n")
    config = write_config(tmp_path, data_dir=data)
    assert main(["simulate", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert "island," in (out / "entry_floor.csv").read_text().splitlines()
    assert "island,,,,,," in (out / "trade_costs.csv").read_text().splitlines()
    for name in ("local_share", "concentration"):
        lines = (out / f"{name}.csv").read_text().splitlines()
        assert "island,1.000000,0.000000" in lines, name
    for row in read_rows(out / "replications.csv"):
        assert row["local_share_island"] == "1.000000"


def test_aggregate_rejects_an_empty_run(tmp_path):
    context = load_context(fixture_config(tmp_path))
    with pytest.raises(ExperimentError, match="without replications"):
        aggregate(context, [])


def test_missing_input_table_is_reported(tmp_path):
    config = fixture_config(tmp_path, data_dir=tmp_path / "nowhere")
    with pytest.raises(ExperimentError, match="missing input table"):
        load_context(config)


def test_aggregated_means_stay_inside_replication_envelope(tmp_path):
    eps = 1e-9  # the mean of equal floats can land one ulp off the envelope
    config = fixture_config(tmp_path, replications=12)
    report = run_experiment(config)
    unit_mt = config.unit_kt / 1000.0
    demand = table_rows(report, "demand")
    concentration = table_rows(report, "concentration")
    replications = table_rows(report, "replications")
    for j, region in enumerate(report.context.regions):
        assert demand[j]["region"] == concentration[j]["region"] == region
        demands = [r.draw.d[j] * unit_mt for r in report.replications]
        assert min(demands) - eps <= demand[j]["mean_mt"] <= max(demands) + eps
        spreads = [row[f"concentration_{region}"] for row in replications]
        assert min(spreads) - eps <= concentration[j]["mean"] <= max(spreads) + eps


def test_verify_rejects_run_with_changed_inputs(tmp_path):
    config = fixture_config(tmp_path, replications=2)
    emit_tables(run_experiment(config), config.output_dir)
    manifest = config.output_dir / "manifest.txt"
    text = manifest.read_text()
    assert "digest_flows" in text
    manifest.write_text(re.sub(r"digest_flows: \w+", "digest_flows: 0000", text))
    with pytest.raises(ExperimentError, match="changed since the saved run"):
        verify_run(config, sample=1)


def test_verify_rejects_a_saved_run_of_other_settings(tmp_path):
    # simulate --seed 7 into the config's output directory, then verify
    config = fixture_config(tmp_path, replications=2)
    emit_tables(run_experiment(dataclasses.replace(config, seed=7)), config.output_dir)
    with pytest.raises(ExperimentError, match=f"has seed 7, the config {config.seed}$"):
        verify_run(config, sample=1)


def test_verify_names_replication_whose_solver_disagrees(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, replications=2)

    def wrong_markup(inst, start, *, trace=None):
        eq = solve_minimal_markups(inst, start, trace=trace)
        return Equilibrium((eq.markups[0] + 1, *eq.markups[1:]), eq.flows)

    monkeypatch.setattr(experiment, "solve_minimal_markups", wrong_markup)
    assert main(["verify", "--config", str(path), "--sample", "2"]) == 2
    assert "replication 0" in capsys.readouterr().err

    # With the verifier fooled, the auction cross-check and the minimality
    # certificate each still fail.
    monkeypatch.setattr(experiment, "verify_equilibrium", lambda inst, eq: [])
    outcomes = verify_run(load_config(path), sample=2)
    assert [(b, auction_match) for b, auction_match, _ in outcomes] == [(0, False), (1, False)]
    assert [certificate_ok for _, _, certificate_ok in outcomes] == [False, False]
    assert main(["verify", "--config", str(path), "--sample", "2"]) == 2
    assert "replication 0: auction=False certificate=False FAIL" in capsys.readouterr().out


def raise_first_markup(inst, eq):
    return Equilibrium((eq.markups[0] + 1, *eq.markups[1:]), eq.flows)


def move_a_unit_to_a_dearer_supplier(inst, eq):
    """Move one imported unit to another open supplier with spare capacity
    whose next unit, markup included, costs more; unchanged if none exists."""
    x = [list(row) for row in eq.flows]
    p, a = eq.markups, inst.a
    for j in range(inst.n):
        for i in range(inst.m):
            if not x[i][j]:
                continue
            last = inst.t[i][j] + p[i] + a * (2 * x[i][j] - 1)
            for k in range(inst.m):
                if (
                    k != i
                    and inst.t[k][j] is not None
                    and sum(x[k]) < inst.s[k]
                    and inst.t[k][j] + p[k] + a * (2 * x[k][j] + 1) > last
                ):
                    x[i][j] -= 1
                    x[k][j] += 1
                    return Equilibrium(p, tuple(map(tuple, x)))
    return eq


@pytest.mark.parametrize("corrupt", [raise_first_markup, move_a_unit_to_a_dearer_supplier])
def test_cli_simulate_rejects_a_wrong_equilibrium_with_exit_2(tmp_path, monkeypatch, capsys, corrupt):
    # The certificate fails on the corrupted equilibrium; the exact utility
    # check behind it must still reject the run.
    path = write_config(tmp_path)
    monkeypatch.setattr(
        experiment,
        "solve_minimal_markups",
        lambda inst, start: corrupt(inst, solve_minimal_markups(inst, start)),
    )
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "failed verification" in err
    assert re.search(r"market \d+ gets utility -?\d+, maximum is -?\d+", err)
    assert not (tmp_path / "out").exists()


def test_cli_simulate_names_a_capacity_breach_once_with_exit_2(tmp_path, monkeypatch, capsys):
    def over_capacity(inst, start):
        eq = solve_minimal_markups(inst, start)
        x = [list(row) for row in eq.flows]
        j = next(j for j in range(inst.n) if inst.t[0][j] is not None)
        x[0][j] += inst.s[0] + 1
        return Equilibrium(eq.markups, tuple(map(tuple, x)))

    monkeypatch.setattr(experiment, "solve_minimal_markups", over_capacity)
    assert main(["simulate", "--config", str(write_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert "failed verification" in err
    assert err.count("capacity exceeded") == 1
    assert "capacity exceeded (supplier 0)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("replications", "sample"),
    [(200, 30), (25, 20), (200, 20), (8, 3), (7, 7), (5, 20), (1, 1), (1, 5), (1000, 1)],
)
def test_verify_samples_exactly_min_of_sample_and_replications(replications, sample):
    indices = sampled_replications(replications, sample)
    assert len(indices) == min(sample, replications)
    assert indices[0] == 0 and indices[-1] < replications
    # Evenly spaced: consecutive gaps differ by at most one replication.
    gaps = [b - a for a, b in zip(indices, indices[1:])]
    assert all(gap >= 1 for gap in gaps)
    assert not gaps or max(gaps) - min(gaps) <= 1


def test_verify_run_checks_the_sampled_replications(tmp_path):
    outcomes = verify_run(fixture_config(tmp_path, replications=3), sample=2)
    assert [b for b, *_ in outcomes] == sampled_replications(3, 2) == [0, 1]


# ---------------------------------------------------------------------------
# CLI


def test_cli_simulate_and_verify(tmp_path, capsys):
    path = write_config(tmp_path, replications=4)
    assert main(["simulate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "rejected draws" in out
    assert (tmp_path / "out" / "manifest.txt").exists()

    assert main(["verify", "--config", str(path), "--sample", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out

    # a saved run of other settings is not the config's run
    assert main(["simulate", "--config", str(path), "--replications", "3"]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(path), "--sample", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure:") and "has replications 3, the config 4" in err


def test_cli_simulate_overrides(tmp_path):
    path = write_config(tmp_path, replications=4)
    alt = tmp_path / "alt"
    assert main([
        "simulate", "--config", str(path),
        "--replications", "2", "--output-dir", str(alt), "--seed", "7",
    ]) == 0
    rows = read_rows(alt / "replications.csv")
    assert len(rows) == 2


def test_cli_pipeline_command(tmp_path, capsys):
    raw = Path(__file__).parent / "data" / "raw_small"
    assert main(["pipeline", "--raw-dir", str(raw), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "flows.csv").exists()


def test_cli_calibrate_command(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["calibrate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    # the fits of the fixture, byte for byte
    assert out == (ROOT / "tests" / "data" / "fixture_bau_calibrate.csv").read_text()


def test_cli_reports_validation_errors_with_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("scenario = BAU\nbogus = 1\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_simulate_rejects_negative_seed_with_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, replications=2)
    assert main(["simulate", "--config", str(path), "--seed", "-5"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["unit_kt", "theta"])
def test_cli_simulate_rejects_a_non_finite_value_with_exit_1(tmp_path, capsys, key, value):
    path = write_config(tmp_path, replications=2)
    path.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", path.read_text()))
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {key} must be finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["output_dir", "data_dir", "scenario", "seed"])
def test_cli_simulate_rejects_an_empty_value_with_exit_1(tmp_path, capsys, monkeypatch, key):
    # Path("") is the current directory: an empty output_dir would write the
    # report there, and an empty data_dir would read the tables from there
    path = write_config(tmp_path, replications=2)
    lines = path.read_text().splitlines()
    line = next(k for k, text in enumerate(lines, 1) if text.startswith(f"{key} ="))
    lines[line - 1] = f"{key} =  "
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{line}: empty value for {key!r}\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["run.cfg"]


def test_cli_simulate_rejects_an_empty_output_dir_option_with_exit_1(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, replications=2)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(path), "--output-dir", ""]) == 1
    assert capsys.readouterr().err == "error: --output-dir: empty value\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["run.cfg"]


def test_cli_verify_rejects_sample_below_1_with_exit_1(tmp_path, capsys):
    path = write_config(tmp_path, replications=2)
    for sample in ("0", "-3"):
        assert main(["verify", "--config", str(path), "--sample", sample]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sample must be >= 1" in err


def test_cli_simulate_exits_1_when_fork_is_unavailable(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    path = write_config(tmp_path, replications=4)
    assert main(["simulate", "--config", str(path), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "workers" in err
    assert not (tmp_path / "out").exists()


def run_in_fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the timeout turns a run that hangs into a failure
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def simulate_in_fresh_interpreter(tmp_path, absent_module, workers=1):
    """Run a fixture ``simulate`` in a new interpreter, assert that it never
    imported ``absent_module`` and that it printed each report line once."""
    code = (
        "import sys\n"
        "from phosmarket.cli import main\n"
        f"assert main(['simulate', '--config', {str(DATA / 'fixture_bau.cfg')!r}, "
        f"'--output-dir', {str(tmp_path / 'out')!r}, '--workers', '{workers}']) == 0\n"
        f"assert {absent_module!r} not in sys.modules, 'simulate imported {absent_module}'\n"
    )
    done = run_in_fresh_interpreter(code)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "manifest.txt").exists()
    lines = done.stdout.splitlines()
    assert len(set(lines)) == len(lines) == 2 + len(FIXTURE_REPORT_SHA256), done.stdout


def test_cli_simulate_does_not_import_numpy(tmp_path):
    simulate_in_fresh_interpreter(tmp_path, "numpy")


def test_cli_simulate_on_one_worker_does_not_import_multiprocessing(tmp_path):
    simulate_in_fresh_interpreter(tmp_path, "multiprocessing")


def test_cli_simulate_on_one_worker_does_not_import_pickle(tmp_path):
    simulate_in_fresh_interpreter(tmp_path, "pickle")


def test_cli_simulate_on_two_workers_does_not_import_multiprocessing(tmp_path):
    simulate_in_fresh_interpreter(tmp_path, "multiprocessing", workers=2)


def test_cli_freezes_what_the_launch_holds_and_leaves_the_collector_on(tmp_path):
    simulate = (
        f"main(['simulate', '--config', {str(DATA / 'fixture_bau.cfg')!r}, "
        f"'--replications', '5', '--output-dir', {str(tmp_path / 'out')!r}])"
    )
    code = (
        "import gc\n"
        "from phosmarket.cli import main\n"
        f"assert {simulate} == 0\n"
        "frozen = gc.get_freeze_count()\n"
        "assert frozen > 0, 'nothing frozen'\n"
        "assert gc.isenabled(), 'collector disabled'\n"
        # a later call in the same process must not freeze the first run's garbage
        f"assert {simulate} == 0\n"
        "assert gc.get_freeze_count() == frozen, 'the second call froze more'\n"
    )
    done = run_in_fresh_interpreter(code)
    assert done.returncode == 0, done.stderr
    assert len(read_rows(tmp_path / "out" / "replications.csv")) == 5


def test_cli_simulate_fails_when_a_worker_dies_and_leaves_none_running(tmp_path):
    path = write_config(tmp_path, replications=8)
    # 4 is in the first child's block for 2 and 3 workers; with 3, the last
    # worker is still unreaped when the first dies
    for workers in (2, 3):
        code = (
            "import os, sys\n"
            "from phosmarket import experiment\n"
            "from phosmarket.cli import main\n"
            "real = experiment.run_replication\n"
            "def die_at_4(context, replication):\n"
            "    if replication == 4:\n"
            "        os._exit(9)\n"
            "    return real(context, replication)\n"
            "experiment.run_replication = die_at_4\n"
            f"code = main(['simulate', '--config', {str(path)!r}, '--workers', '{workers}'])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(code)\n"
            "sys.exit('a worker process was left running')\n"
        )
        done = run_in_fresh_interpreter(code)
        assert done.returncode == 2, done.stderr
        assert re.search(
            r"failure: worker process \d+ ended without reporting .*exit code 9\)", done.stderr
        ), done.stderr
        assert not (tmp_path / "out").exists()


def test_importing_the_package_loads_none_of_its_modules():
    done = run_in_fresh_interpreter(
        "import sys\n"
        "import phosmarket\n"
        "print(sorted(name for name in sys.modules if name.startswith('phosmarket.')))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_simulate_does_not_import_the_raw_pipeline(tmp_path):
    simulate_in_fresh_interpreter(tmp_path, "phosmarket.pipeline")


def test_cli_simulate_exits_1_when_inventory_constant_rounds_to_zero(tmp_path, capsys):
    path = write_config(tmp_path, theta=0.01)
    assert main(["simulate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "rounds the inventory constant to 0" in err
    assert not (tmp_path / "out").exists()


def test_cli_reports_runtime_failures_with_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, data_dir=tmp_path / "missing")
    assert main(["simulate", "--config", str(path)]) == 2
    assert "failure:" in capsys.readouterr().err


def drop(*cells):
    """A row filter that drops every row holding all of ``cells``."""
    return lambda row: set(cells) <= set(row)


def keep(*cells):
    """A row filter that drops every row not holding all of ``cells``."""
    return lambda row: not set(cells) <= set(row)


@pytest.mark.parametrize(
    ("overrides", "filters", "error"),
    [
        (
            dict(reference_market="mars"),
            {},
            "reference_market 'mars' is not a region of {flows} or {local_supply}",
        ),
        (dict(reference_year=1999), {}, "reference_year 1999 is not a year of {flows}"),
        (
            {},
            {"demand_series": drop("west")},
            "{demand_series}: region 'west' has 0 rows; "
            "it needs at least 5 rows, in consecutive years",
        ),
        (
            {},
            {"scenario_use": drop("BAU", "west")},
            "{scenario_use}: scenario 'BAU' has no positive use_mt for: west",
        ),
        (
            {},
            {"local_supply": drop("east", "2014")},
            "{local_supply}: reference_market 'east' has no local supply in 2014",
        ),
        (
            {},
            {"flows": drop("east", "2014")},
            "{flows}: reference_market 'east' receives no flow in 2014",
        ),
        (
            {},
            {"flows": keep("east"), "local_supply": keep("east")},
            "{flows} and {local_supply} name only region 'east'; "
            "the share-change regression needs at least 2",
        ),
        (
            dict(unit_kt=2000.0),
            {},
            "unit_kt 2000.0: half a goods unit, 1 Mt, exceeds the point demand "
            "(alpha * beta * use_mt) of: north (0.576868 Mt), south (0.367593 Mt), "
            "west (0.212208 Mt); lower unit_kt",
        ),
    ],
    ids=[
        "reference_market",
        "reference_year",
        "demand_series",
        "scenario_use",
        "local_supply",
        "reference_flow",
        "two_regions",
        "unit_kt",
    ],
)
def test_cli_reports_inputs_that_do_not_cover_the_run_with_exit_1(
    tmp_path, capsys, overrides, filters, error
):
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    for table, dropped in filters.items():
        path = data / f"{table}.csv"
        header, *lines = path.read_text().splitlines(keepends=True)
        kept = [line for line in lines if not dropped(line.rstrip("\n").split(","))]
        path.write_text(header + "".join(kept))
    path = write_config(tmp_path, data_dir=data, **overrides)
    assert main(["simulate", "--config", str(path)]) == 1
    tables = {name: data / f"{name}.csv" for name in experiment.INPUT_TABLES}
    assert capsys.readouterr().err == f"error: {error.format(**tables)}\n"
    assert not (tmp_path / "out").exists()


def copy_fixture_with_west_demand_years(tmp_path, keep) -> Path:
    """A copy of the fixture whose ``demand_series.csv`` keeps the ``west`` years ``keep`` admits."""
    data = tmp_path / "data"
    shutil.copytree(DATA, data)
    path = data / "demand_series.csv"
    header, *rows = path.read_text().splitlines(keepends=True)
    kept = [row for row in rows if not row.startswith("west,") or keep(int(row.split(",")[1]))]
    path.write_text(header + "".join(kept))
    return data


@pytest.mark.parametrize(
    ("keep", "problem"),
    [
        (lambda year: year <= 2008, "has 2 rows"),
        (lambda year: year <= 2010, "has 4 rows"),
        (lambda year: year != 2010, "has no row for 2010"),
    ],
    ids=["two_rows", "four_rows", "missing_year"],
)
def test_cli_names_a_short_or_gapped_demand_series_with_exit_1(tmp_path, capsys, keep, problem):
    data = copy_fixture_with_west_demand_years(tmp_path, keep)
    path = write_config(tmp_path, data_dir=data)
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {data / 'demand_series.csv'}: region 'west' {problem}; "
        "it needs at least 5 rows, in consecutive years\n"
    )
    assert not (tmp_path / "out").exists()


def test_five_consecutive_demand_rows_suffice(tmp_path):
    data = copy_fixture_with_west_demand_years(tmp_path, lambda year: 2011 <= year <= 2015)
    context = load_context(fixture_config(tmp_path, data_dir=data))
    west = context.demand_fits[context.regions.index("west")]
    assert len(west.z) == 3


def load_workloads():
    """``perfbench/workloads.py``, loaded as a module without changing it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [2, 7])
def test_paper_scale_variants_match_their_recorded_golden_digests(tmp_path, monkeypatch, seed):
    # The generated 9-region, 7-supplier world pins what the fixture cannot:
    # the m = 7 solve, the allocation's max-flow path and the 220-sign
    # trade-cost draw.  perfbench/run.py writes the inputs and checks the
    # report against perfbench/golden.json; neither file is changed.
    monkeypatch.chdir(ROOT)  # workloads reads tests/data/table1.csv by a relative path
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    spec.loader.exec_module(run)
    inputs = run.prepare("paper_scale", seed, tmp_path)
    assert (inputs.replications, load_config(inputs.config).workers) == (6, 1)
    assert main(["simulate", "--config", str(inputs.config)]) == 0
    assert run.check_report(inputs) == []


# (variant, suppliers, money_scale, unit_kt, theta) of generated worlds, toward
# the extremes money_scale 5 and 1000, unit_kt 5 and 20000, theta 0 and 20;
# unit_kt None keeps the world's own unit of about 200 units in all
GENERATED_WORLDS = [
    (0, 2, 5, 200.0, 0.0),
    (1, 7, 1000, 5.0, 0.0),
    (2, 3, 1000, 20000.0, 20.0),
    (3, 4, 1000, 50.0, 20.0),
    (4, 5, 1000, 200.0, 0.1),
    (5, 6, 10, 200.0, 2.0),
    (6, 7, 5, 2000.0, 0.0),
    (7, 7, 100, None, 2.0),
]


def test_generated_worlds_exit_0_with_a_verified_sample_or_1_with_one_error_line(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(ROOT)  # workloads reads tests/data/table1.csv by a relative path
    workloads = load_workloads()
    codes = []
    for variant, suppliers, money_scale, unit_kt, theta in GENERATED_WORLDS:
        values = workloads.write_world(variant, tmp_path / f"data{variant}", suppliers=suppliers)
        values.update(
            money_scale=money_scale, theta=theta, replications=4, output_dir=tmp_path / f"out{variant}"
        )
        if unit_kt is not None:
            values["unit_kt"] = unit_kt
        config = str(workloads.write_config(tmp_path / f"world{variant}.cfg", values))
        code = main(["simulate", "--config", config])
        error = capsys.readouterr().err
        if code == 0:
            assert error == ""
            assert main(["verify", "--config", config, "--sample", "1"]) == 0
        else:
            assert code == 1 and error.startswith("error: ") and error.count("\n") == 1, error
        codes.append(code)
    assert 0 in codes and 1 in codes


def cli_in_fresh_interpreter(*args):
    """Run ``phosmarket`` with ``args`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "phosmarket.cli", *map(str, args)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("table", ["fertilizer_use.csv", "crop_production.csv", "eu_members.csv"])
def test_cli_pipeline_names_a_missing_crop_table_with_exit_1(tmp_path, table):
    raw = tmp_path / "raw"
    shutil.copytree(ROOT / "tests" / "data" / "raw_small", raw)
    (raw / table).unlink()
    done = cli_in_fresh_interpreter("pipeline", "--raw-dir", raw, "--out-dir", tmp_path / "out")
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error:") and str(raw / table) in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


MALFORMED_TABLES = pytest.mark.parametrize(
    ("command", "source", "table", "column"),
    [
        ("simulate", DATA, "flows.csv", "kt"),
        ("pipeline", ROOT / "tests" / "data" / "raw_small", "trade_flows.csv", "mass_tonnes"),
    ],
)


def cli_error_on_edited_table(tmp_path, command, source, table, edit) -> tuple[Path, str]:
    """Run ``command`` on a copy of ``source`` whose ``table`` lines went through ``edit``.

    The run must exit 1 with an ``error:`` line, no traceback and no output;
    returns the edited table's path and the error text.
    """
    data = tmp_path / "data"
    shutil.copytree(source, data)
    path = data / table
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    if command == "pipeline":
        args = ["pipeline", "--raw-dir", data, "--out-dir", tmp_path / "out"]
    else:
        args = [command, "--config", write_config(tmp_path, data_dir=data)]
    done = cli_in_fresh_interpreter(*args)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()
    return path, done.stderr


@MALFORMED_TABLES
def test_cli_reports_a_missing_column_with_exit_1(tmp_path, command, source, table, column):
    def rename(lines):
        names = ["renamed" if name == column else name for name in lines[0].rstrip("\n").split(",")]
        return [",".join(names) + "\n", *lines[1:]]

    path, error = cli_error_on_edited_table(tmp_path, command, source, table, rename)
    assert str(path) in error and column in error


@MALFORMED_TABLES
def test_cli_reports_a_short_row_with_exit_1(tmp_path, command, source, table, column):
    def drop_cell(lines):
        cells = lines[1].rstrip("\n").split(",")
        del cells[lines[0].rstrip("\n").split(",").index(column)]
        return [lines[0], ",".join(cells) + "\n", *lines[2:]]

    path, error = cli_error_on_edited_table(tmp_path, command, source, table, drop_cell)
    assert f"{path}, line 2:" in error


@MALFORMED_TABLES
def test_cli_reports_a_nan_cell_with_exit_1(tmp_path, command, source, table, column):
    def nan_cell(lines):
        cells = lines[1].rstrip("\n").split(",")
        cells[lines[0].rstrip("\n").split(",").index(column)] = "nan"
        return [lines[0], ",".join(cells) + "\n", *lines[2:]]

    path, error = cli_error_on_edited_table(tmp_path, command, source, table, nan_cell)
    assert f"{path}, line 2, column {column}: 'nan' is not a finite number >= 0" in error


@MALFORMED_TABLES
def test_cli_reports_a_repeated_row_with_exit_1(tmp_path, command, source, table, column):
    def repeat_row(lines):
        return [*lines, lines[1]]

    path, error = cli_error_on_edited_table(tmp_path, command, source, table, repeat_row)
    last = len((source / table).read_text().splitlines()) + 1
    assert f"{path}, line {last}: repeats the key of line 2" in error


@pytest.mark.parametrize("command", ["simulate", "calibrate", "verify"])
@pytest.mark.parametrize(
    ("kept_year", "rows", "years"), [(None, 0, 0), ("2013", 11, 1)], ids=["no_rows", "one_year"]
)
def test_cli_names_a_flows_table_without_two_years_with_exit_1(
    tmp_path, command, kept_year, rows, years
):
    def keep_year(lines):
        return [lines[0], *(line for line in lines[1:] if line.split(",")[2] == kept_year)]

    path, error = cli_error_on_edited_table(tmp_path, command, DATA, "flows.csv", keep_year)
    assert error == (
        f"error: {path}: has {rows} rows in {years} years; "
        "the trade-cost fit needs rows in at least 2 years\n"
    )


@pytest.mark.parametrize("command", ["simulate", "calibrate", "verify"])
@pytest.mark.parametrize(
    ("table", "column", "problem"),
    [
        (
            "scenario_use.csv",
            "use_mt",
            "scenario 'BAU' has no positive use_mt for: west",
        ),
        ("demand_series.csv", "dapmap_mt", "series for west: all values must be positive"),
    ],
    ids=["zero_use", "zero_series"],
)
def test_cli_names_the_table_that_zeroes_a_region_with_exit_1(
    tmp_path, command, table, column, problem
):
    # a west demand of 0 in the scenario, or in the history the fit reads
    def zero_west(lines):
        index = lines[0].rstrip("\n").split(",").index(column)
        edited = [lines[0]]
        for line in lines[1:]:
            cells = line.rstrip("\n").split(",")
            if "west" in cells:
                cells[index] = "0"
            edited.append(",".join(cells) + "\n")
        return edited

    path, error = cli_error_on_edited_table(tmp_path, command, DATA, table, zero_west)
    assert error == f"error: {path}: {problem}\n"
