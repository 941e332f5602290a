"""The telemetry hub: message-lifecycle stages, trace events and metrics.

One :class:`Telemetry` object is threaded (as an *injected hook*, never a
hard-coded timer) through the live stack — channels, transports, the sharded
cluster, per-shard sequencers, the streaming merger, the learning loop and
the chaos controller.  Components record

* **lifecycle stages** — one :class:`StageRecord` per message per stage of
  :data:`LIFECYCLE_STAGES` (client send → channel delivery → shard intake →
  engine append → emission check → batch emission → streaming-merge
  observation → merged-order commit), each carrying both the simulated time
  and a wall-clock stamp;
* **trace events** — instantaneous occurrences (fault firings, distribution
  refreshes, dedupe-gate hits) as :class:`EventRecord`;
* **metrics** — named counters/gauges/histograms on the embedded
  :class:`~repro.obs.registry.MetricsRegistry`.

Determinism: for a fixed seed the *simulated-time* projection of the
recorded stream (:meth:`Telemetry.sim_fingerprint`) is identical across
reruns; wall-clock stamps are measurement-only and excluded.

Disabled fast path
------------------
Every instrumented component defaults to the module-level
:data:`NO_TELEMETRY` singleton, whose methods are no-ops and whose
``enabled`` flag is ``False`` — hot paths guard with
``if self._obs.enabled:`` so a run without telemetry performs no record
construction, consumes no RNG draws and stays bitwise identical to an
uninstrumented build (parity-tested in ``tests/obs``).
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.obs.registry import MetricsRegistry, SnapshotSource

#: Message-lifecycle stages in pipeline order.
LIFECYCLE_STAGES: Tuple[str, ...] = (
    "client_send",
    "channel_deliver",
    "shard_intake",
    "engine_append",
    "emission_check",
    "batch_emit",
    "merge_observe",
    "merge_commit",
)

#: Stage name -> pipeline position.
STAGE_ORDER: Dict[str, int] = {stage: index for index, stage in enumerate(LIFECYCLE_STAGES)}


class StageRecord(NamedTuple):
    """One message hitting one lifecycle stage.

    Messages are identified by ``(client_id, sequence)`` — the per-client
    monotone sequence number assigned by the live
    :class:`~repro.network.transport.ClientEndpoint` — which is stable
    across reruns (unlike the process-global ``message_id``).
    """

    stage: str
    client_id: str
    sequence: int
    shard: Optional[int]
    sim_time: float
    wall_time: float

    def sim_view(self) -> Tuple[str, str, int, Optional[int], float]:
        """The record without its wall-clock stamp (determinism comparisons)."""
        return (self.stage, self.client_id, self.sequence, self.shard, self.sim_time)


class EventRecord(NamedTuple):
    """One instantaneous trace event (fault firing, refresh, gate hit...)."""

    kind: str
    name: str
    client_id: Optional[str]
    shard: Optional[int]
    sim_time: float
    wall_time: float
    details: Tuple[Tuple[str, object], ...]

    def sim_view(self) -> Tuple[object, ...]:
        """The record without its wall-clock stamp (determinism comparisons)."""
        return (self.kind, self.name, self.client_id, self.shard, self.sim_time, self.details)


class Telemetry:
    """Live telemetry collector: stages + events + metrics registry."""

    enabled: bool = True

    def __init__(
        self,
        stage_capacity: Optional[int] = None,
        event_capacity: Optional[int] = None,
    ) -> None:
        if stage_capacity is not None and stage_capacity < 1:
            raise ValueError("stage_capacity must be positive when given")
        if event_capacity is not None and event_capacity < 1:
            raise ValueError("event_capacity must be positive when given")
        self.registry = MetricsRegistry()
        self._stage_capacity = stage_capacity
        self._event_capacity = event_capacity
        self._stages: List[StageRecord] = []
        self._events: List[EventRecord] = []
        self._dropped_stages = 0
        self._dropped_events = 0

    # ---------------------------------------------------------------- records
    @property
    def stage_records(self) -> List[StageRecord]:
        """All recorded lifecycle stage records, in recording order."""
        return list(self._stages)

    @property
    def event_records(self) -> List[EventRecord]:
        """All recorded instantaneous events, in recording order."""
        return list(self._events)

    @property
    def dropped_stages(self) -> int:
        """Stage records discarded because ``stage_capacity`` was reached."""
        return self._dropped_stages

    @property
    def dropped_events(self) -> int:
        """Event records discarded because ``event_capacity`` was reached."""
        return self._dropped_events

    # ----------------------------------------------------------------- intake
    def stage(
        self,
        stage: str,
        message,
        sim_time: float,
        shard: Optional[int] = None,
        wall: Optional[float] = None,
    ) -> None:
        """Record ``message`` (a TimestampedMessage) reaching ``stage``.

        ``wall`` overrides the wall-clock stamp (e.g. the start of the
        emission check that emitted the batch); by default the current
        ``time.perf_counter()`` is stamped.
        """
        if self._stage_capacity is not None and len(self._stages) >= self._stage_capacity:
            self._dropped_stages += 1
            return
        self._stages.append(
            StageRecord(
                stage=stage,
                client_id=message.client_id,
                sequence=int(message.sequence_number),
                shard=shard,
                sim_time=float(sim_time),
                wall_time=time.perf_counter() if wall is None else float(wall),
            )
        )

    def event(
        self,
        kind: str,
        name: str,
        sim_time: float,
        client_id: Optional[str] = None,
        shard: Optional[int] = None,
        **details: object,
    ) -> None:
        """Record one instantaneous trace event."""
        if self._event_capacity is not None and len(self._events) >= self._event_capacity:
            self._dropped_events += 1
            return
        self._events.append(
            EventRecord(
                kind=kind,
                name=name,
                client_id=client_id,
                shard=shard,
                sim_time=float(sim_time),
                wall_time=time.perf_counter(),
                details=tuple(sorted(details.items())),
            )
        )

    # ---------------------------------------------------------------- metrics
    def count(self, name: str, amount: int = 1) -> None:
        """Increment the named registry counter."""
        self.registry.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Record one observation on the named registry histogram."""
        self.registry.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        """Set the named registry gauge."""
        self.registry.gauge(name).set(value)

    def attach(self, name: str, source: SnapshotSource) -> None:
        """Attach a snapshot source to the registry (see its docstring)."""
        self.registry.attach(name, source)

    def absorb(
        self,
        stages: List[StageRecord] = (),
        events: List[EventRecord] = (),
    ) -> None:
        """Fold externally recorded stage/event records into this hub.

        The cross-process merge path: real-runtime workers collect records
        into their own :class:`Telemetry` and ship the (picklable)
        ``StageRecord``/``EventRecord`` lists back with their results; the
        coordinator absorbs them here so exporters and ``sim_fingerprint()``
        see one unified stream.  Capacity limits still apply.
        """
        for record in stages:
            if self._stage_capacity is not None and len(self._stages) >= self._stage_capacity:
                self._dropped_stages += 1
                continue
            self._stages.append(StageRecord(*record))
        for record in events:
            if self._event_capacity is not None and len(self._events) >= self._event_capacity:
                self._dropped_events += 1
                continue
            self._events.append(EventRecord(*record))

    # ------------------------------------------------------------ determinism
    def sim_fingerprint(self) -> Tuple[Tuple[object, ...], ...]:
        """The full recorded stream with wall-clock fields stripped.

        Two runs with the same seed produce equal fingerprints; this is the
        property the determinism tests pin.
        """
        stages = tuple(record.sim_view() for record in self._stages)
        events = tuple(record.sim_view() for record in self._events)
        return stages + events


class NullTelemetry:
    """The disabled-telemetry fast path: every method is a no-op.

    Instrumented components hold a reference to :data:`NO_TELEMETRY` when no
    telemetry was injected; hot paths gate on :attr:`enabled` so the only
    residual cost is one attribute read per call site.
    """

    enabled: bool = False
    registry: Optional[MetricsRegistry] = None

    def stage(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def event(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def count(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def observe(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def gauge(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def attach(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def absorb(self, *args: object, **kwargs: object) -> None:
        """No-op."""

    def sim_fingerprint(self) -> Tuple[Tuple[object, ...], ...]:
        """Always empty."""
        return ()


#: Module-level no-op singleton shared by every uninstrumented component.
NO_TELEMETRY = NullTelemetry()


def resolve(telemetry: Optional[Telemetry]) -> "Telemetry | NullTelemetry":
    """``telemetry`` itself, or the shared no-op singleton when ``None``."""
    return telemetry if telemetry is not None else NO_TELEMETRY
