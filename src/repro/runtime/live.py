"""Live (non-frozen) workload dispatch: watermark waves into a runtime.

:class:`LiveDispatcher` is the coordinator-side intake loop for traffic that
does *not* exist up front: messages are submitted one at a time (by the
socket edge in :mod:`repro.edge`, or directly by tests), gated through the
same exactly-once :class:`~repro.cluster.intake.IntakeDedupeGate` the sharded
cluster uses, and sequenced incrementally by the one
:class:`~repro.runtime.procs.ShardCoordinator` (the very object the frozen
backends replay a workload through), fed one wave per watermark advance.
The runtime only places the shard hosts (:mod:`repro.runtime.host`):

* ``runtime="sim"`` — every shard hosted in this process (``num_workers=0``,
  as :class:`~repro.runtime.sim.SimBackend` does);
* ``runtime="procs"`` — shards hosted in worker processes (as
  :class:`~repro.runtime.procs.ProcBackend` does).

Parity contract: virtual time is carried on every submitted message
(``true_time``); each source (connection) promises per-source monotone
``true_time``\\ s (FIFO), so the global watermark — the min over open
sources' high-water marks — bounds every future arrival.  Buffered arrivals
are released up to the watermark in ``(true_time, timestamp, client_id,
sequence, submission)`` order and the runtime advances *strictly below* it,
so a frozen workload streamed through ``submit()`` executes the identical
event sequence as the one-wave frozen replay and yields a bitwise-equal
``RuntimeOutcome.fingerprint()`` (pinned in ``tests/edge`` /
``tests/runtime/test_live_dispatcher.py``).  With equal ``true_time`` ties
across *different* sources the relative order is submission order (the
generated workloads draw continuous unique times, so ties never arise
there).

Failure model: live procs workers fail fast — the coordinator runs with a
zero restart budget, so the ``advance()`` (or ``finish()``) whose poll sees a
dead worker raises :class:`~repro.runtime.procs.WorkerCrashed`, and so does
every later call.  Restart needs a replayable intake log (the ROADMAP
follow-up); once it exists only the budget changes.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.intake import IntakeDedupeGate
from repro.network.message import Heartbeat, TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import LiveClusterSpec, RuntimeOutcome
from repro.runtime.procs import RestartPolicy, ShardCoordinator

#: Runtime modes the live dispatcher can host.
LIVE_RUNTIMES: Tuple[str, ...] = ("sim", "procs")

_NEG_INF = float("-inf")


def _check_finite(item: TimestampedMessage | Heartbeat) -> None:
    """A NaN timestamp has no certainty window; an infinite vtime pins a watermark."""
    if not (math.isfinite(item.timestamp) and math.isfinite(item.true_time)):
        raise ValueError(f"non-finite time in {item!r}")


class LiveDispatcher:
    """Coordinator intake loop for live traffic on a selected runtime.

    Lifecycle: ``open_source`` per connection, ``submit``/``submit_heartbeat``
    per frame (synchronous admit/reject through the exactly-once gate — the
    returned bool is what the edge acks), ``advance`` after each intake burst
    (flushes the watermark-safe wave into the runtime), ``close_source`` on
    disconnect, then ``finish`` to drain with the frozen closing-heartbeat
    rule and collect a :class:`RuntimeOutcome`.
    """

    def __init__(
        self,
        spec: LiveClusterSpec,
        runtime: str = "sim",
        num_workers: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        dedupe_intake: bool = True,
        mp_context: str = "fork",
        poll_timeout: float = 0.1,
        join_timeout: float = 5.0,
    ) -> None:
        if runtime not in LIVE_RUNTIMES:
            raise ValueError(f"unknown live runtime {runtime!r}; expected one of {LIVE_RUNTIMES}")
        if runtime == "procs" and num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be positive when given")
        self._spec = spec
        self._runtime = runtime
        self._telemetry = telemetry
        self._obs = resolve(telemetry)
        self._gate = IntakeDedupeGate(
            enabled=dedupe_intake,
            telemetry=telemetry,
            clock=lambda: self._max_vtime if self._max_vtime is not None else 0.0,
        )
        self._started = time.perf_counter()
        # per-source virtual-time high-water marks (the watermark inputs)
        self._sources: Dict[str, float] = {}
        self._advanced_to = _NEG_INF
        # admitted-but-unscheduled items, in submission order
        self._buffer: List[Tuple[float, float, str, int, int, object]] = []
        self._buffer_seq = 0
        self._max_vtime: Optional[float] = None
        self._max_timestamp: Optional[float] = None
        self._admitted = 0
        self._late = 0
        self._finished: Optional[RuntimeOutcome] = None
        # fail fast: without a replayable intake log there is nothing to
        # re-send a replacement worker (ROADMAP), so no restart budget
        self._coordinator = ShardCoordinator(
            spec,
            num_workers=0 if runtime == "sim" else num_workers,
            telemetry=telemetry,
            mp_context=mp_context,
            poll_timeout=poll_timeout,
            join_timeout=join_timeout,
            restart_policy=RestartPolicy(max_restarts=0),
        )

    # ------------------------------------------------------------- properties
    @property
    def runtime(self) -> str:
        """The hosting runtime (``"sim"`` or ``"procs"``)."""
        return self._runtime

    @property
    def spec(self) -> LiveClusterSpec:
        """The static cluster shape this dispatcher hosts."""
        return self._spec

    @property
    def gate(self) -> IntakeDedupeGate:
        """The exactly-once admission gate (shared semantics with the cluster)."""
        return self._gate

    @property
    def admitted(self) -> int:
        """Messages admitted (gate-passed) so far."""
        return self._admitted

    @property
    def late_arrivals(self) -> int:
        """Messages that violated the watermark contract (clamped to now).

        Late arrivals are still sequenced (at the earliest possible virtual
        instant) but bitwise parity with the one-shot replay only holds when
        this stays zero — sources must keep per-source ``true_time``
        monotone.
        """
        return self._late

    @property
    def watermark(self) -> float:
        """Current global watermark (min over open sources; ``+inf`` if none)."""
        if not self._sources:
            return math.inf
        return min(self._sources.values())

    @property
    def open_sources(self) -> int:
        """Number of sources currently holding the watermark."""
        return len(self._sources)

    # ---------------------------------------------------------------- sources
    def open_source(self, source_id: str) -> None:
        """Register a source (connection); it now holds the global watermark."""
        if self._finished is not None:
            raise RuntimeError("dispatcher already finished")
        self._sources.setdefault(source_id, _NEG_INF)

    def close_source(self, source_id: str) -> None:
        """Release a source's watermark hold (its buffered traffic stays)."""
        self._sources.pop(source_id, None)

    # ----------------------------------------------------------------- intake
    def submit(self, source_id: str, message: TimestampedMessage) -> bool:
        """Gate and buffer one live message; returns ``True`` when admitted.

        The decision is synchronous so the edge can ack it: an admitted
        message *will* be sequenced exactly once; a rejected one is a
        duplicate (same ``(client_id, message_id)`` key or below the
        delivery horizon).  A non-finite ``timestamp`` or ``true_time`` is a
        ``ValueError``: it would cost the run, not the message.  An
        unprovisioned client or a source that is not open is a ``KeyError``.
        """
        self._note(source_id, message)
        if self._gate.is_duplicate(message):
            return False
        vtime = message.true_time
        self._buffer.append(
            (
                vtime,
                message.timestamp,
                message.client_id,
                int(message.sequence_number),
                self._buffer_seq,
                message,
            )
        )
        self._buffer_seq += 1
        self._admitted += 1
        self._max_vtime = vtime if self._max_vtime is None else max(self._max_vtime, vtime)
        self._max_timestamp = (
            message.timestamp
            if self._max_timestamp is None
            else max(self._max_timestamp, message.timestamp)
        )
        if self._obs.enabled:
            self._obs.count("live.messages_admitted")
        return True

    def submit_heartbeat(self, source_id: str, heartbeat: Heartbeat) -> None:
        """Buffer a live heartbeat; advances the source watermark and the
        gate's delivery horizon (idempotent; refused like :meth:`submit`)."""
        self._note(source_id, heartbeat)
        self._gate.is_duplicate(heartbeat)  # horizon advance only
        self._buffer.append(
            (
                heartbeat.true_time,
                heartbeat.timestamp,
                heartbeat.client_id,
                int(heartbeat.sequence_number),
                self._buffer_seq,
                heartbeat,
            )
        )
        self._buffer_seq += 1

    def _note(self, source_id: str, item: TimestampedMessage | Heartbeat) -> None:
        """Refuse ``item`` before any state changes, else raise its source's
        high-water mark: a source that is not open must not hold the
        watermark again."""
        if self._finished is not None:
            raise RuntimeError("dispatcher already finished")
        if item.client_id not in self._spec.client_distributions:
            raise KeyError(f"unknown client {item.client_id!r}")
        high = self._sources.get(source_id)
        if high is None:
            raise KeyError(f"source {source_id!r} is not open")
        _check_finite(item)
        if item.true_time > high:
            self._sources[source_id] = item.true_time

    # ---------------------------------------------------------------- advance
    def advance(self) -> float:
        """Flush the watermark-safe wave into the runtime; returns the watermark.

        Buffered items with ``true_time <= watermark`` are scheduled (sorted
        by ``(true_time, timestamp, client_id, sequence, submission)``) and
        the runtime advances strictly below ``watermark + delay``; everything
        above the watermark stays buffered for a later wave.
        """
        if self._finished is not None:
            raise RuntimeError("dispatcher already finished")
        watermark = self.watermark
        self._flush_wave(watermark)
        if self._obs.enabled and math.isfinite(watermark):
            self._obs.gauge("live.watermark", watermark)
        self._coordinator.drain(block=False)
        return watermark

    def _take_wave(self, watermark: float) -> List[object]:
        if not self._buffer:
            return []
        ready = [entry for entry in self._buffer if entry[0] <= watermark]
        if not ready:
            return []
        self._buffer = [entry for entry in self._buffer if entry[0] > watermark]
        ready.sort(key=lambda entry: entry[:5])
        return [entry[5] for entry in ready]

    def _flush_wave(self, watermark: float) -> None:
        wave = self._take_wave(watermark)
        run_to = watermark if math.isfinite(watermark) and watermark > self._advanced_to else None
        if not wave and run_to is None:
            return
        # the runtime's clock stands strictly below the last advance: an
        # arrival due before it broke its source's FIFO promise
        delay = self._spec.delay
        now = math.nextafter(self._advanced_to + delay, _NEG_INF)
        for item in wave:
            if item.true_time + delay < now:
                self._late += 1
                if self._obs.enabled:
                    self._obs.count("live.late_arrivals")
        self._coordinator.wave(wave, run_to)
        if run_to is not None:
            self._advanced_to = run_to

    # ----------------------------------------------------------------- finish
    def closing_heartbeat(self) -> Optional[Tuple[float, float]]:
        """``(true_time, beacon)`` of the drain heartbeats, frozen-rule shaped.

        Computed over *observed* admitted traffic exactly as
        :meth:`ClusterWorkload.closing_heartbeat` computes it over frozen
        messages: ``max(true_time) + delay + slack`` with beacon
        ``max(timestamp) + slack``.
        """
        if self._max_vtime is None or self._max_timestamp is None:
            return None
        return (
            self._max_vtime + self._spec.delay + self._spec.heartbeat_slack,
            self._max_timestamp + self._spec.heartbeat_slack,
        )

    def finish(self) -> RuntimeOutcome:
        """Drain everything, close the completeness horizon, collect the outcome.

        Remaining buffered traffic is flushed (sources no longer hold the
        watermark back), every provisioned client sends the closing
        heartbeat at the frozen-rule instant, and the runtime runs to
        completion.  Idempotent: later calls return the same outcome.
        """
        if self._finished is not None:
            return self._finished
        self._sources.clear()
        self._flush_wave(math.inf)
        heartbeat_time, heartbeat_timestamp = self.closing_heartbeat() or (None, None)
        self._coordinator.close_shards(heartbeat_time, heartbeat_timestamp)
        merge = self._coordinator.finish()
        details: Dict[str, object] = {
            "late_arrivals": self._late,
            "duplicates_rejected": self._gate.duplicates_suppressed,
            **self._coordinator.details(),
        }
        self._finished = RuntimeOutcome(
            backend=f"live-{self._runtime}",
            merge=merge,
            shard_batches=self._coordinator.shard_batches,
            message_count=self._admitted,
            wall_seconds=time.perf_counter() - self._started,
            num_workers=self._coordinator.num_workers,
            telemetry=self._telemetry,
            details=details,
        )
        return self._finished

    # ------------------------------------------------------------------ close
    def close(self) -> None:
        """Tear down live workers and queues (idempotent)."""
        self._coordinator.close()

    def __enter__(self) -> "LiveDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "LIVE_RUNTIMES",
    "LiveClusterSpec",
    "LiveDispatcher",
]
