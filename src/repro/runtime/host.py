"""The one shard host: a shard's sequencer on a private loop, driven by waves.

Every runtime sequences a shard the same way.  A :class:`_ShardHost` owns one
:class:`~repro.core.online.OnlineTommySequencer` on its own
:class:`~repro.simulation.event_loop.EventLoop` and executes two commands:

* ``("wave", items_by_shard, run_to)`` — :func:`run_wave`: schedule the
  shard's new arrivals and advance strictly below ``run_to``;
* ``("close", heartbeat_time, heartbeat_timestamp)`` — :func:`run_close`:
  inject the global closing heartbeats, run to completion and flush.

Each emission is posted as ``("batch", shard, batch)``; the close returns
the shard's summary, which the caller posts as ``("done", shard, summary)``.
Where the host lives is the
:class:`~repro.runtime.procs.ShardCoordinator`'s choice: in a worker process,
posting onto the result queue, or — ``num_workers=0``, the ``sim`` runtimes —
in the coordinator's own process, posting onto a local channel.  Either way
the shard executes the identical event sequence, so the sim and procs
runtimes agree by construction.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.online import OnlineTommySequencer
from repro.network.message import Heartbeat, TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import LiveClusterSpec
from repro.simulation.event_loop import EventLoop

Arrival = Union[TimestampedMessage, Heartbeat]

#: ``checkpoint(point)`` hook a host calls at ``"start"`` (before it builds
#: anything), ``"mid"`` (after its first emission) and ``"end"`` (after the
#: final flush, before its summary is posted).
Checkpoint = Callable[[str], None]


def run_wave(loop: EventLoop, receiver, items: Iterable[Arrival], run_to: Optional[float]) -> None:
    """Schedule ``items`` as arrivals, then advance strictly below ``run_to``.

    Arrivals land at ``max(true_time, now)`` with priority ``-1`` so
    they beat same-instant emission checks.  The advance is exclusive: a
    well-behaved source may still send another message *at* its current
    watermark, and that twin must be schedulable before anything at that
    instant executes.  ``run_to=None`` schedules without advancing.
    """
    now = loop.now
    for item in items:
        loop.schedule_at(max(item.true_time, now), receiver.receive, item, priority=-1)
    if run_to is not None:
        loop.run(until=math.nextafter(run_to, -math.inf))


def run_close(
    loop: EventLoop,
    receiver,
    client_ids: Iterable[str],
    heartbeat_time: Optional[float],
    heartbeat_timestamp: Optional[float],
) -> None:
    """Inject the closing heartbeats (sorted clients) and run to completion.

    The heartbeat instant is clamped to ``max(heartbeat_time, now)``: a
    source's ordinary trailing ``HEARTBEAT`` may already have advanced the
    loop past the closing horizon computed over admitted *messages*.
    """
    if heartbeat_time is not None and heartbeat_timestamp is not None:
        when = max(heartbeat_time, loop.now)
        for client_id in sorted(client_ids):
            heartbeat = Heartbeat(
                client_id=client_id, timestamp=heartbeat_timestamp, true_time=heartbeat_time
            )
            loop.schedule_at(when, receiver.receive, heartbeat, priority=-1)
    loop.run()


class _ShardHost:
    """One shard sequencer on a private loop; ``post`` carries its results."""

    def __init__(
        self,
        shard: int,
        spec: LiveClusterSpec,
        clients: Sequence[str],
        telemetry: Optional[Telemetry],
        post: Callable[[tuple], None],
        checkpoint: Optional[Checkpoint] = None,
    ) -> None:
        self.shard = shard
        self.telemetry = telemetry
        self._clients = clients
        self._post = post
        self._checkpoint = checkpoint
        self._checkpoint_at("start")
        self._loop = EventLoop()
        self._obs = resolve(telemetry)
        self._sequencer = OnlineTommySequencer(
            self._loop,
            {client: spec.client_distributions[client] for client in clients},
            config=spec.config,
            known_clients=list(clients),
            name=f"cluster-shard-{shard}",
            telemetry=telemetry,
            shard_index=shard,
        )
        self._sequencer.subscribe_emissions(self._on_emit)
        self._received = 0
        self._streamed = 0
        self._busy = 0.0

    def _checkpoint_at(self, point: str) -> None:
        if self._checkpoint is not None:
            self._checkpoint(point)

    def _on_emit(self, emitted) -> None:
        self._post(("batch", self.shard, emitted.batch))
        self._streamed += 1
        if self._streamed == 1:
            self._checkpoint_at("mid")

    def receive(self, item: Arrival, arrival_time: Optional[float] = None) -> None:
        """Shard intake: record the ``shard_intake`` stage, then forward into
        the sequencer."""
        if self._obs.enabled and isinstance(item, TimestampedMessage):
            self._obs.stage("shard_intake", item, self._sequencer.now, shard=self.shard)
        self._sequencer.receive(item, arrival_time)

    def execute(self, command: tuple) -> Optional[dict]:
        """Run one ``"wave"`` or ``"close"`` command; a close returns the summary."""
        if command[0] == "wave":
            _, items_by_shard, run_to = command
            self.wave(items_by_shard.get(self.shard, ()), run_to)
            return None
        _, heartbeat_time, heartbeat_timestamp = command
        return self.close(heartbeat_time, heartbeat_timestamp)

    def wave(self, items: Sequence[Arrival], run_to: Optional[float]) -> None:
        started = time.perf_counter()
        self._received += sum(isinstance(item, TimestampedMessage) for item in items)
        run_wave(self._loop, self, items, run_to)
        self._busy += time.perf_counter() - started

    def close(self, heartbeat_time: Optional[float], heartbeat_timestamp: Optional[float]) -> dict:
        started = time.perf_counter()
        run_close(self._loop, self, self._clients, heartbeat_time, heartbeat_timestamp)
        self._sequencer.flush()
        self._checkpoint_at("end")
        return {
            "message_count": self._received,
            "batch_count": len(self._sequencer.emitted_batches),
            # busy time: spent inside this shard's schedule/run/flush calls
            "wall_seconds": self._busy + time.perf_counter() - started,
            "loop": self._loop.stats(),
            "engine": self._sequencer.engine_stats(),
        }


__all__ = ["Arrival", "Checkpoint", "run_close", "run_wave"]
