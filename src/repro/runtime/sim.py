"""SimBackend: the deterministic event-loop execution backend.

The original execution substrate, rehomed behind
:class:`~repro.runtime.base.RuntimeBackend`: one
:class:`~repro.simulation.event_loop.EventLoop` hosts every shard's
:class:`~repro.core.online.OnlineTommySequencer` inside a
:class:`~repro.cluster.sharded.ShardedSequencer`, the workload's messages are
replayed at their frozen true times, and shard emissions stream into the
live :class:`~repro.cluster.merge.StreamingMerger`.

This backend is the parity/chaos oracle: its merged order is the reference
the real-process backend (:mod:`repro.runtime.procs`) must reproduce
bitwise, and it remains the only backend on which the chaos fault machinery
operates (faults need the deterministic clock).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.cluster.harness import replay_messages
from repro.cluster.sharded import ShardedSequencer
from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClockHandle, ClusterWorkload, RuntimeBackend, RuntimeOutcome
from repro.simulation.event_loop import EventLoop


class SimBackend(RuntimeBackend):
    """Run a cluster workload inside one deterministic event loop."""

    name = "sim"

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._telemetry = telemetry
        self._loop = EventLoop()

    @property
    def clock(self) -> ClockHandle:
        """Simulated-time clock of the loop backing the current/next run."""
        return self._loop.clock

    @property
    def loop(self) -> EventLoop:
        """The event loop backing the current/next run."""
        return self._loop

    def run(self, workload: ClusterWorkload) -> RuntimeOutcome:
        """Replay the workload through a sharded cluster on one loop."""
        loop = self._loop
        if loop.processed_events:
            # each run gets a pristine clock so replay times line up with the
            # workload's frozen true times
            loop = self._loop = EventLoop()
        cluster = ShardedSequencer(
            loop,
            workload.client_distributions,
            num_shards=workload.num_shards,
            config=workload.config,
            policy=workload.policy,
            telemetry=self._telemetry,
            merge_topology=workload.merge_topology,
            merge_fanout=workload.merge_fanout,
        )
        heartbeat = workload.closing_heartbeat()
        heartbeat_time, heartbeat_timestamp = heartbeat if heartbeat is not None else (None, None)
        started = time.perf_counter()
        replay_messages(
            loop,
            cluster,
            workload.messages_by_true_time(),
            workload.client_ids,
            delay=workload.replay_delay,
            heartbeat_time=heartbeat_time,
            heartbeat_timestamp=heartbeat_timestamp,
        )
        loop.run()
        cluster.flush()
        merge = cluster.live_merge()
        wall_seconds = time.perf_counter() - started
        return RuntimeOutcome(
            backend=self.name,
            merge=merge,
            shard_batches=cluster.shard_batches(),
            message_count=len(workload.messages),
            wall_seconds=wall_seconds,
            num_workers=1,
            telemetry=self._telemetry,
            details={
                "loop": loop.stats(),
                "sim_end_time": loop.clock.now(),
                "emitted_counts": cluster.emitted_counts(),
                "observability": cluster.observability_report(),
            },
        )


__all__ = ["SimBackend"]
