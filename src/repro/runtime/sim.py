"""SimBackend: the deterministic in-process execution backend.

The frozen replay of :class:`~repro.runtime.procs.ProcBackend` — one wave
carrying the whole :class:`~repro.runtime.base.ClusterWorkload`, then the
close — on a :class:`~repro.runtime.procs.ShardCoordinator` that hosts every
shard in this process (``num_workers=0``): each shard's
:class:`~repro.runtime.host._ShardHost` runs on its own virtual-time loop and
its emissions stream into the coordinator's
:class:`~repro.cluster.merge.StreamingMerger`.  No fork, no queues, no
supervisor, and the same shard host as every other runtime, so its merged
order equals the procs runtime's by construction.

This backend is the parity oracle the bench and the tests compare against.
The chaos fault machinery runs elsewhere: ``repro.workloads.chaos`` drives a
:class:`~repro.cluster.sharded.ShardedSequencer` on one shared loop.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClusterWorkload, LiveClusterSpec, RuntimeBackend, RuntimeOutcome
from repro.runtime.procs import ShardCoordinator


class SimBackend(RuntimeBackend):
    """Run a cluster workload with every shard hosted in this process."""

    name = "sim"

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._telemetry = telemetry

    def run(self, workload: ClusterWorkload) -> RuntimeOutcome:
        """Sequence the workload on in-process shard hosts and merge live."""
        started = time.perf_counter()
        coordinator = ShardCoordinator(
            LiveClusterSpec.from_workload(workload), num_workers=0, telemetry=self._telemetry
        )
        return coordinator.run_frozen(workload, self.name, started)


__all__ = ["SimBackend"]
