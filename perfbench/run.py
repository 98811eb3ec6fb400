"""Benchmark of ``phosmarket simulate``, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fixture_serial --seed 1 --seconds 38 --trace 0

With ``--trace 0`` the benchmark launches the real command line in a
subprocess again and again until ``--seconds`` have passed (at least three
times), checks every report against its recorded golden digest and reports
the median end-to-end metrics.  With ``--trace 1`` it runs the same inputs
in process with a span around every call that crosses a module boundary,
and reports the per-layer metrics (see ``layers.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = Path(".perfbench")
GOLDEN = HERE / "golden.json"
MIN_LAUNCHES = 3

# workload -> (dataset whose golden digest applies, workers)
WORKLOADS = {
    "fixture_serial": ("fixture", 1),
    "fixture_parallel": ("fixture", 2),
    "paper_scale": ("paper_scale", 1),
}


@dataclass(frozen=True)
class Inputs:
    """One workload's generated config and what its report must match."""

    config: Path
    output_dir: Path
    dataset: str
    variant: int
    replications: int
    money_scale: int


def prepare(workload: str, seed: int, rundir: Path, workers: int | None = None) -> Inputs:
    """Write the config (and, for ``paper_scale``, the tables) for one seed."""
    dataset, default_workers = WORKLOADS[workload]
    workers = default_workers if workers is None else workers
    variant = workloads.variant_of(seed)
    output_dir = rundir / "report"
    if dataset == "fixture":
        values = workloads.fixture_config(variant, workers, output_dir)
    else:
        values = workloads.write_world(variant, rundir / "data")
        values.update(
            replications=workloads.PAPER_REPLICATIONS,
            workers=workers,
            output_dir=output_dir,
        )
    config = workloads.write_config(rundir / "simulate.cfg", values)
    return Inputs(
        config=config,
        output_dir=output_dir,
        dataset=dataset,
        variant=variant,
        replications=int(values["replications"]),
        money_scale=int(values["money_scale"]),
    )


def report_digest(output_dir: Path) -> str:
    """Digest over every report file (all CSVs plus ``manifest.txt``)."""
    digest = hashlib.sha256()
    for path in sorted(output_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:32]


def golden_digest(dataset: str, variant: int) -> str | None:
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(dataset, {}).get(str(variant))


def child_env(**extra: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **extra)


def become_subreaper() -> None:
    """Adopt orphaned descendants (the multiprocessing resource tracker).

    They can then be waited for, and their CPU time and peak RSS counted.
    """
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


@dataclass(frozen=True)
class Launch:
    code: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def run_to_end(
    command: list[str], env: dict[str, str], stdout: Path, stderr: Path
) -> tuple[int, float, float, float, float]:
    """Run ``command``; wait for it and every process it left behind.

    Returns the exit code, the ``time.monotonic()`` reading at launch, the
    wall time until the command exited, and the CPU seconds and peak RSS
    (MB) of it and all its descendants.
    """
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    rss_kb = usage.ru_maxrss
    while True:  # reap adopted descendants
        try:
            _, _, orphan = os.wait4(-1, 0)
        except ChildProcessError:
            break
        cpu += orphan.ru_utime + orphan.ru_stime
        rss_kb = max(rss_kb, orphan.ru_maxrss)
    return proc.returncode, start, wall, cpu, rss_kb / 1024.0


def launch(inputs: Inputs, rundir: Path) -> Launch:
    """Run ``simulate`` once and note when its first replication started."""
    marks = rundir / "marks"
    shutil.rmtree(marks, ignore_errors=True)
    shutil.rmtree(inputs.output_dir, ignore_errors=True)
    marks.mkdir(parents=True)
    command = [sys.executable, str(HERE / "launch_cli.py"), "simulate", "--config", str(inputs.config)]
    stderr = rundir / "stderr.txt"
    code, launched, wall, cpu, rss_mb = run_to_end(
        command, child_env(PERFBENCH_MARKS=str(marks)), rundir / "stdout.txt", stderr
    )
    starts = [float(path.read_text(encoding="utf-8")) for path in marks.iterdir()]
    return Launch(
        code=code,
        wall_s=wall,
        setup_s=min(starts) - launched if starts else None,
        cpu_s=cpu,
        peak_rss_mb=rss_mb,
        stderr=stderr.read_text(encoding="utf-8", errors="replace"),
    )


def check_report(inputs: Inputs) -> list[str]:
    """Problems with the report in ``inputs.output_dir`` (empty when correct)."""
    expected = golden_digest(inputs.dataset, inputs.variant)
    if expected is None:
        return [f"no golden digest recorded for {inputs.dataset} variant {inputs.variant}"]
    if not (inputs.output_dir / "manifest.txt").exists():
        return ["report has no manifest.txt"]
    digest = report_digest(inputs.output_dir)
    if digest != expected:
        return [f"report digest {digest} != golden {expected}"]
    workloads.check_draws(inputs.output_dir / "replications.csv", inputs.money_scale)
    return []


def warm_up() -> None:
    """Compile the package's bytecode so no timed step pays for it."""
    subprocess.run(
        [sys.executable, "-c", "import phosmarket.cli"], env=child_env(), check=True
    )


def end_to_end(inputs: Inputs, rundir: Path, seconds: float) -> tuple[dict, int, int]:
    """Launch ``simulate`` until ``seconds`` have passed; median metrics."""
    good: list[Launch] = []
    attempted = failed = 0
    began = time.monotonic()
    while attempted < MIN_LAUNCHES or time.monotonic() - began < seconds:
        attempted += 1
        result = launch(inputs, rundir)
        problems = [f"exit code {result.code}: {result.stderr.strip()}"] if result.code else []
        if not problems and result.setup_s is None:
            problems = ["no replication started"]
        problems = problems or check_report(inputs)
        if problems:
            failed += 1
            print(f"launch {attempted} FAILED: " + "; ".join(problems))
            continue
        good.append(result)
        print(
            f"launch {attempted}: wall {result.wall_s:.3f} s, setup {result.setup_s:.3f} s, "
            f"cpu {result.cpu_s:.3f} s, peak rss {result.peak_rss_mb:.1f} MB"
        )
    metrics = {}
    if good:
        rates = [inputs.replications / (r.wall_s - r.setup_s) for r in good]  # type: ignore[operator]
        metrics = {
            "wall_s": (statistics.median([r.wall_s for r in good]), "s"),
            "setup_s": (statistics.median([r.setup_s for r in good]), "s"),  # type: ignore[misc]
            "replications_per_s": (statistics.median(rates), "1/s"),
            "cpu_s": (statistics.median([r.cpu_s for r in good]), "s"),
            "peak_rss_mb": (statistics.median([r.peak_rss_mb for r in good]), "MB"),
        }
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} launches)")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phosmarket" / "cli.py").is_file() or not workloads.TABLE1.is_file():
        print("error: run from the root of a phosmarket checkout", file=sys.stderr)
        return 2

    become_subreaper()
    warm_up()
    rundir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    inputs = prepare(args.workload, args.seed, rundir)
    print(
        f"workload {args.workload}: variant {inputs.variant}, "
        f"{inputs.replications} replications, config {inputs.config}"
    )
    if args.trace:
        sys.path.insert(0, str(SRC))
        import layers

        metrics, attempted, failed = layers.traced_run(inputs, rundir, args.seconds)
    else:
        metrics, attempted, failed = end_to_end(inputs, rundir, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
