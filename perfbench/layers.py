"""Per-layer metrics from a traced in-process run.

The program is not changed.  :class:`Patch` replaces, in each module's
namespace, every function that the module imports from another phosmarket
module (and ``bs.*``/``metrics.*`` reached through a module object) by a
wrapper that records a span; the public entry points of ``experiment`` are
wrapped the same way.  So a span sits at each layer boundary: experiment ->
bootstrap / auction / metrics / core, and auction or bootstrap -> core.
Calls inside one module are not traced.

A span is ``(name, start_ns, end_ns, parent, replication, ticks)``.  Spans
stay in memory and are written to ``spans.jsonl`` at the end.  ``ticks``
is set on calls to a function with a public ``trace=`` list argument (the
ascending auction): it is the number of markup vectors the auction visited.

The run, in order: import time of ``phosmarket.cli`` in fresh interpreters;
``load_context``; a traced pass over the workload's replications, each
replication also run untraced for the tracing overhead; ``aggregate`` and
``emit_tables`` (whose report must match the golden digest); an untraced
2-worker ``run_experiment`` in a fresh process; the solver scaling sweep on
generated instances; and more traced passes, at least one, until the run's
seconds are used, each of which must repeat the first pass's counts.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import run
import workloads
from phosmarket import auction, bootstrap, core, experiment, metrics, pipeline
from phosmarket.config import ExperimentConfig, load_config

MODULES = (experiment, bootstrap, auction, metrics, core, pipeline)
ENTRY_POINTS = ("load_context", "assemble_draw", "run_replication", "aggregate", "emit_tables", "run_experiment")
REPEATS = 5  # calls of load_context, aggregate and emit_tables, and import launches
SWEEP_DRAWS = 3
# label -> (suppliers, money_scale, total demand units); n = 9 regions
SWEEP = {
    "m4": (4, 100, 200),
    "m5": (5, 100, 200),
    "m6": (6, 100, 200),
    "m7": (7, 100, 200),
    "fine_grid": (4, 1000, 1000),
}


def layer_of(fn: object) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2]


class Tracer:
    """In-memory spans around wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._replication: int | None = None

    def wrap(self, name: str, fn):
        takes_trace = "trace" in inspect.signature(fn).parameters
        is_replication = name == "experiment.run_replication"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ticks = None
            if takes_trace and kwargs.get("trace") is None:
                ticks = kwargs["trace"] = []
            span = [name, 0, 0, self._stack[-1] if self._stack else None, self._replication, None]
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            outer = self._replication
            if is_replication:
                self._replication = span[4] = args[1] if len(args) > 1 else kwargs["replication"]
            span[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                self._replication = outer
                if ticks is not None:
                    span[5] = len(ticks)

        return traced

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "replication", "ticks")
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **dict(zip(keys, span))}) + "\n")


class Patch:
    """Wrappers for every cross-module call, swapped in and out as a unit."""

    def __init__(self, tracer: Tracer) -> None:
        self.swaps: list[tuple[dict, str, object, object]] = []
        wrappers: dict[int, object] = {}

        def wrapped(fn):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = tracer.wrap(f"{layer_of(fn)}.{fn.__name__}", fn)
            return wrappers[id(fn)]

        for module in MODULES:
            namespace = vars(module)
            for name, value in namespace.items():
                if isinstance(value, types.FunctionType) and value.__module__.startswith("phosmarket."):
                    own = value.__module__ == module.__name__
                    if (own and name in ENTRY_POINTS and module is experiment) or (
                        not own and not name.startswith("_")
                    ):
                        self.swaps.append((namespace, name, value, wrapped(value)))
                elif isinstance(value, types.ModuleType) and value in MODULES and value is not module:
                    proxy = types.ModuleType(value.__name__)
                    for attr, target in vars(value).items():
                        if isinstance(target, types.FunctionType) and not attr.startswith("_"):
                            target = wrapped(target)
                        setattr(proxy, attr, target)
                    self.swaps.append((namespace, name, value, proxy))

    def apply(self) -> None:
        for namespace, name, _, traced in self.swaps:
            namespace[name] = traced

    def restore(self) -> None:
        for namespace, name, original, _ in self.swaps:
            namespace[name] = original


def ms(ns: int) -> float:
    return ns / 1e6


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18] if len(values) > 1 else values[0]


@dataclasses.dataclass
class Pass:
    """Per-replication timings and counts of one traced pass."""

    replication_ms: list[float]
    assemble_ms: list[float]
    solve_ms: list[float]
    verify_ms: list[float]
    structure_ms: list[float]
    ticks: list[int]
    require_valid_calls: int
    results: list

    def counts(self) -> dict[str, int]:
        return {
            "auction.ticks_total": sum(self.ticks),
            "bootstrap.demand_rejections": sum(r.draw.rejections for r in self.results),
            "core.require_valid_calls": self.require_valid_calls,
            "auction.maxflow_path_count": sum(map(needs_maxflow, self.results)),
        }


def traced_pass(
    tracer: Tracer, patch: Patch, context, replications: int, untraced_ms: list[float] | None = None
) -> Pass:
    """Run every replication traced; with ``untraced_ms``, pair each with an untraced run.

    A pair runs its traced and untraced calls back to back, alternating which
    goes first, so slow drift of the machine's speed affects both alike.
    """
    first = len(tracer.spans)
    results = []
    for b in range(replications):
        if untraced_ms is not None and b % 2:
            untraced_ms.append(untraced(context, b))
        patch.apply()
        results.append(experiment.run_replication(context, b))
        patch.restore()
        if untraced_ms is not None and not b % 2:
            untraced_ms.append(untraced(context, b))
    spans = tracer.spans[first:]
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)
    out = Pass([], [], [], [], [], [], 0, results)
    for index, span in enumerate(spans, first):
        if span[0] == "core.require_valid" and span[4] is not None:
            out.require_valid_calls += 1
        if span[0] != "experiment.run_replication":
            continue
        parts = children.get(index, [])

        def total(pick) -> float:
            return ms(sum(c[2] - c[1] for c in parts if pick(c[0])))

        out.replication_ms.append(ms(span[2] - span[1]))
        out.assemble_ms.append(total(lambda n: n == "experiment.assemble_draw"))
        out.solve_ms.append(
            total(lambda n: n.startswith("auction.") and n != "auction.verify_equilibrium")
        )
        out.verify_ms.append(total(lambda n: n == "auction.verify_equilibrium"))
        out.structure_ms.append(total(lambda n: n.startswith("metrics.")))
        out.ticks += [c[5] for c in parts if c[5] is not None]
    return out


def untraced(context, replication: int) -> float:
    start = time.perf_counter_ns()
    experiment.run_replication(context, replication)
    return ms(time.perf_counter_ns() - start)


def needs_maxflow(result) -> bool:
    """Whether the minimal demanded bundles at the terminal markups fail to clear.

    ``_allocate`` then leaves its fast path for the max-flow search.
    """
    inst = result.draw.instance()
    bundles = [auction.demand_bundle(j, result.markups, inst).z for j in range(inst.n)]
    sold = [sum(z[i] for z in bundles) for i in range(inst.m)]
    return not all(
        sold[i] <= inst.s[i] and (sold[i] > 0 or result.markups[i] == 0) for i in range(inst.m)
    )


def import_seconds() -> list[float]:
    code = "import time; t = time.perf_counter(); import phosmarket.cli; print(time.perf_counter() - t)"
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", code],
                env=run.child_env(),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for _ in range(REPEATS)
    ]


def sweep(variant: int, rundir: Path) -> dict[str, float]:
    """Median solve time of generated instances per (m, money_scale, units)."""
    medians = {}
    for label, (m, scale, units) in SWEEP.items():
        values = workloads.write_world(
            variant, rundir / f"sweep-{label}", suppliers=m, money_scale=scale, units=units
        )
        config = ExperimentConfig(
            output_dir=rundir / "unused", replications=SWEEP_DRAWS, **values
        )
        context = experiment.load_context(config)
        times = []
        for b in range(SWEEP_DRAWS):
            draw = experiment.assemble_draw(context, b)
            workloads.check_draw(b, draw.a, list(draw.d), scale)
            inst = draw.instance()
            start = time.perf_counter_ns()
            experiment.run_english_auction(inst)
            times.append(ms(time.perf_counter_ns() - start))
        medians[label] = statistics.median(times)
    return medians


def parallel_seconds(inputs: run.Inputs, rundir: Path) -> float:
    """Wall time of an untraced 2-worker ``run_experiment`` in a fresh process.

    The report it emits goes to ``inputs.output_dir``.  A separate process
    keeps the pool's resource tracker from outliving this benchmark.
    """
    code, _, _, _, _ = run.run_to_end(
        [sys.executable, "-c", PARALLEL, str(inputs.config)],
        run.child_env(),
        rundir / "parallel.out",
        rundir / "parallel.err",
    )
    if code:
        raise RuntimeError((rundir / "parallel.err").read_text(encoding="utf-8"))
    return float((rundir / "parallel.out").read_text(encoding="utf-8"))


PARALLEL = """
import dataclasses, sys, time
from phosmarket.config import ExperimentConfig, load_config
from phosmarket.experiment import emit_tables, run_experiment
config = dataclasses.replace(load_config(sys.argv[1]), workers=2)
start = time.perf_counter()
report = run_experiment(config)
print(time.perf_counter() - start)
emit_tables(report, config.output_dir)
"""


def traced_run(inputs: run.Inputs, rundir: Path, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics; ``attempted``/``failed`` count the checks made.

    After the fixed steps, further traced passes run until ``seconds`` have
    passed; each must repeat the first pass's counts.
    """
    began = time.monotonic()
    checks: list[tuple[str, bool]] = []
    import_s = statistics.median(import_seconds())
    config = dataclasses.replace(load_config(inputs.config), workers=1)
    replications = config.replications

    tracer = Tracer()
    patch = Patch(tracer)
    patch.apply()
    contexts = [experiment.load_context(config) for _ in range(REPEATS)]
    patch.restore()
    context = contexts[-1]
    load_ms = [ms(s[2] - s[1]) for s in tracer.spans if s[0] == "experiment.load_context"]
    untraced_ms: list[float] = []
    passes = [traced_pass(tracer, patch, context, replications, untraced_ms)]
    first = passes[0]
    for r in first.results:
        workloads.check_draw(r.draw.replication, r.draw.a, list(r.draw.d), inputs.money_scale)

    mark = len(tracer.spans)
    patch.apply()
    for _ in range(REPEATS):
        report = experiment.aggregate(context, first.results)
        experiment.emit_tables(report, inputs.output_dir)
    patch.restore()
    checks.append(("traced report matches golden digest", not run.check_report(inputs)))
    tail = tracer.spans[mark:]
    aggregate_ms = [ms(s[2] - s[1]) for s in tail if s[0] == "experiment.aggregate"]
    emit_ms = [ms(s[2] - s[1]) for s in tail if s[0] == "experiment.emit_tables"]

    parallel_s = parallel_seconds(inputs, rundir)
    checks.append(("2-worker report matches golden digest", not run.check_report(inputs)))
    serial_s = sum(untraced_ms) / 1e3
    solve_sweep = sweep(inputs.variant, rundir)

    while len(passes) < 2 or time.monotonic() - began < seconds:
        passes.append(traced_pass(tracer, patch, context, replications))
        checks.append(
            (
                f"traced pass {len(passes)} repeats the counts and results of pass 1",
                passes[-1].counts() == first.counts() and passes[-1].results == first.results,
            )
        )
    tracer.write(rundir / "spans.jsonl")

    def pooled(field: str) -> list[float]:
        return [value for one in passes for value in getattr(one, field)]

    counts = first.counts()
    parts = sum(
        sum(pooled(field)) for field in ("assemble_ms", "solve_ms", "verify_ms", "structure_ms")
    )
    print(
        f"traced passes: {len(passes)} x {replications} replications; the parts cover "
        f"{parts / sum(pooled('replication_ms')):.4f} of experiment.run_replication"
    )
    print(
        f"parallel efficiency base: serial replication sum {serial_s:.3f} s over "
        f"2 workers x 2-worker run_experiment {parallel_s:.3f} s"
    )
    for name, ok in checks:
        print(f"check {'ok' if ok else 'FAILED'}: {name}")
    result = {
        "cli.import_s": (import_s, "s"),
        "experiment.load_context_ms": (statistics.median(load_ms), "ms"),
        "experiment.run_replication_ms.p50": (statistics.median(pooled("replication_ms")), "ms"),
        "experiment.run_replication_ms.p95": (p95(pooled("replication_ms")), "ms"),
        "experiment.aggregate_ms": (statistics.median(aggregate_ms), "ms"),
        "experiment.emit_tables_ms": (statistics.median(emit_ms), "ms"),
        "experiment.parallel_overhead_s": (parallel_s - serial_s / 2, "s"),
        "experiment.parallel_efficiency": (serial_s / (2 * parallel_s), "ratio"),
        "bootstrap.assemble_draw_ms.p50": (statistics.median(pooled("assemble_ms")), "ms"),
        "bootstrap.assemble_draw_ms.p95": (p95(pooled("assemble_ms")), "ms"),
        "bootstrap.demand_rejections": (counts["bootstrap.demand_rejections"], "count"),
        "auction.solve_ms.p50": (statistics.median(pooled("solve_ms")), "ms"),
        "auction.solve_ms.p95": (p95(pooled("solve_ms")), "ms"),
        "auction.ticks.p50": (statistics.median(first.ticks), "count"),
        "auction.ticks_total": (counts["auction.ticks_total"], "count"),
        "auction.verify_ms.p50": (statistics.median(pooled("verify_ms")), "ms"),
        "auction.maxflow_path_frac": (counts["auction.maxflow_path_count"] / replications, "ratio"),
        "auction.maxflow_path_count": (counts["auction.maxflow_path_count"], "count"),
        **{f"auction.solve_ms.{label}": (value, "ms") for label, value in solve_sweep.items()},
        "core.require_valid_calls_per_replication": (
            counts["core.require_valid_calls"] / replications,
            "count",
        ),
        "metrics.structure_ms.p50": (statistics.median(pooled("structure_ms")), "ms"),
        "trace.overhead_frac": (sum(first.replication_ms) / sum(untraced_ms) - 1, "ratio"),
    }
    return result, len(checks), sum(not ok for _, ok in checks)
