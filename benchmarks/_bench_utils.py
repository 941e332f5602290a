"""Shared helpers for the benchmark harness.

Every benchmark prints the rows it regenerates (the table/figure series the
paper reports) so that running ``pytest benchmarks/ --benchmark-only -s``
reproduces both the numbers and the timing.

When the ``BENCH_RESULTS_JSON`` environment variable names a file, every
:func:`emit` additionally appends one JSON line
``{"benchmark": ..., "rows": [...], "wall_time": ...}`` to it, so the perf
trajectory across PRs is machine-readable.

The seed and scenario sizes shared by the scaling-oriented benchmarks live
here (``BENCH_SEED``, ``BENCH_SCALING_CLIENT_COUNTS``,
``BENCH_CLUSTER_CLIENTS``) so scaling curves stay comparable across PRs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

# the frozen baselines and the reference-path benches import the test oracles
# (``graph_reference``, ``online_reference``) by bare module name, the way
# ``tests/conftest.py`` makes them importable for the test suite
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "reference"))

#: Root seed shared by the client-count and shard-count scaling benchmarks.
BENCH_SEED = 13

#: Client counts swept by the offline client-count scaling benchmark.
BENCH_SCALING_CLIENT_COUNTS = (10, 25, 50, 100)

#: Scenario size for the cluster shard-count scaling benchmark.
BENCH_CLUSTER_CLIENTS = 64


def emit(
    title: str,
    rows: Sequence[Dict[str, object]],
    benchmark: Optional[str] = None,
    wall_time: Optional[float] = None,
) -> None:
    """Print a result table produced by a benchmark run.

    ``benchmark`` (defaulting to ``title``) and ``wall_time`` feed the
    machine-readable record appended when ``BENCH_RESULTS_JSON`` is set.
    """
    from repro.experiments.reporting import format_table

    print()
    print(format_table(list(rows), title=title))
    record_result(benchmark if benchmark is not None else title, rows, wall_time)


def record_result(
    benchmark: str, rows: Sequence[Dict[str, object]], wall_time: Optional[float] = None
) -> None:
    """Append one ``{benchmark, rows, wall_time}`` JSON line if configured.

    The destination is the file named by the ``BENCH_RESULTS_JSON``
    environment variable; without it this is a no-op.
    """
    path = os.environ.get("BENCH_RESULTS_JSON")
    if not path:
        return
    record = {
        "benchmark": benchmark,
        "rows": [dict(row) for row in rows],
        "wall_time": wall_time,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, default=str) + "\n")
