"""Record the golden report digest of every input variant.

Run from the root of a checkout, only when a change alters the reports on
purpose; say so where the change is described:

    python3 perfbench/record_goldens.py

Each variant's report comes from the real command line with 2 workers
(reports do not depend on the worker count) and its digest goes to
``perfbench/golden.json``.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.become_subreaper()
    golden: dict[str, dict[str, str]] = {}
    for workload in ("fixture_serial", "paper_scale"):
        dataset = run.WORKLOADS[workload][0]
        golden[dataset] = {}
        for variant in range(workloads.VARIANTS):
            rundir = run.WORK / f"golden-{dataset}-{variant}"
            inputs = run.prepare(workload, variant, rundir, workers=2)
            result = run.launch(inputs, rundir)
            if result.code:
                raise SystemExit(f"{dataset} variant {variant}: {result.stderr}")
            workloads.check_draws(inputs.output_dir / "replications.csv", inputs.money_scale)
            golden[dataset][str(variant)] = run.report_digest(inputs.output_dir)
            print(dataset, variant, golden[dataset][str(variant)], flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
