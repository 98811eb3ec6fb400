"""Run the ``phosmarket`` command line, noting when replications start.

This file stands in for the installed ``phosmarket`` console script, which
the benchmark cannot install inside its checkout: like that script it
imports ``phosmarket.cli.main`` at top level and calls it under the
``__main__`` check, so spawned pool workers, which re-import the main
module, import the same modules.

When ``PERFBENCH_MARKS`` names a directory, each process writes the
``time.monotonic()`` reading at the start of its first replication to a
file named after its pid there.  That is one clock read per process, so the
run is otherwise untraced.

    PYTHONPATH=src python3 perfbench/launch_cli.py simulate --config FILE
"""

import os
import sys
import time

from phosmarket import experiment
from phosmarket.cli import main

_MARKS = os.environ.get("PERFBENCH_MARKS")
if _MARKS:
    _run_replication = experiment.run_replication

    def _first_marked(context, replication):
        started = time.monotonic()
        experiment.run_replication = _run_replication
        with open(os.path.join(_MARKS, str(os.getpid())), "w", encoding="utf-8") as handle:
            handle.write(repr(started))
        return _run_replication(context, replication)

    experiment.run_replication = _first_marked

if __name__ == "__main__":
    sys.exit(main())
