"""The runtime seam: backends that execute a cluster workload.

Everything above the simulation substrate used to be welded to the concrete
:class:`~repro.simulation.event_loop.EventLoop` /
:class:`~repro.network.transport.Transport` stack.  This module extracts the
seam into small protocols and a backend abstraction so the same workload can
run on different execution substrates:

* :class:`Scheduler` — the scheduling surface components program against
  (``now`` / ``schedule_at`` / ``schedule_after`` / ``cancel``).  The
  deterministic :class:`~repro.simulation.event_loop.EventLoop` satisfies it
  structurally; entities, channels and transports are annotated against the
  protocol rather than the concrete loop.
* :class:`ClockHandle` — the one sanctioned way to *read* time.  Harness and
  workload code must not reach into ``loop.now`` directly; they ask the
  backend (or the scheduler's :class:`SchedulerClock`) for a handle.
* :class:`RuntimeBackend` — the execution backend: given a
  :class:`ClusterWorkload` (messages generated *once*, timestamps frozen) it
  sequences every shard, merges the per-shard streams and returns a
  :class:`RuntimeOutcome`.  :class:`~repro.runtime.sim.SimBackend` hosts
  every shard in this process on its own virtual-time loop (the parity
  oracle); :class:`~repro.runtime.procs.ProcBackend` runs each shard in its
  own worker process so throughput scales with cores while the merged order
  stays bitwise identical (``RuntimeOutcome.fingerprint`` equality is the
  cross-backend parity contract, asserted in ``tests/runtime``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.cluster.merge import MergeOutcome, merge_fingerprint
from repro.cluster.recipe import build_router
from repro.cluster.router import ShardingPolicy, ShardRouter
from repro.core.config import TommyConfig
from repro.distributions.base import OffsetDistribution
from repro.network.message import SequencedBatch, TimestampedMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry
    from repro.workloads.scenario import Scenario

#: Names accepted by :func:`resolve_backend` (and the CLI ``--runtime`` flag).
RUNTIME_NAMES: Tuple[str, ...] = ("sim", "procs")

#: How far past the last message the closing heartbeats fire (virtual
#: seconds past its ``true_time``, clock seconds past its ``timestamp``).
HEARTBEAT_SLACK = 1e-3


@runtime_checkable
class ClockHandle(Protocol):
    """A read-only time source handed out by schedulers and backends."""

    def now(self) -> float:
        """Current time in seconds (simulated or wall, backend-defined)."""
        ...


@runtime_checkable
class Scheduler(Protocol):
    """The scheduling surface simulated components program against.

    :class:`~repro.simulation.event_loop.EventLoop` satisfies this
    structurally; components annotated against the protocol never need the
    concrete loop type.
    """

    @property
    def now(self) -> float: ...

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> Any: ...

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> Any: ...

    def cancel(self, event: Any) -> None: ...


class SchedulerClock:
    """The clock handle of a :class:`Scheduler` (simulated time)."""

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler: Scheduler) -> None:
        self._scheduler = scheduler

    def now(self) -> float:
        """Current simulated time of the underlying scheduler."""
        return self._scheduler.now


class WallClock:
    """A wall-clock handle (monotonic, ``time.perf_counter`` based)."""

    __slots__ = ()

    def now(self) -> float:
        """Current wall-clock reading in seconds (monotonic)."""
        return time.perf_counter()


def clock_of(scheduler: Scheduler) -> ClockHandle:
    """The scheduler's clock handle.

    Prefers a native ``clock`` attribute (the
    :class:`~repro.simulation.event_loop.EventLoop` exposes one) and wraps
    anything else in a :class:`SchedulerClock` — harness/workload code reads
    time through the returned handle instead of touching ``loop.now``.
    """
    native = getattr(scheduler, "clock", None)
    if native is not None and callable(getattr(native, "now", None)):
        return native
    return SchedulerClock(scheduler)


@dataclass(frozen=True)
class ClusterWorkload:
    """A cluster workload with timestamps generated *once*.

    The message tuple is the ground truth both backends replay: each message
    arrives at its ``true_time``, closing heartbeats fire at
    :meth:`closing_heartbeat`.  Because the timestamps are frozen at
    construction, running the same workload on the sim and the real-process
    backend is an apples-to-apples comparison — same inputs, same per-shard
    arrival schedule, bitwise-equal merged order.
    """

    messages: Tuple[TimestampedMessage, ...]
    client_distributions: Dict[str, OffsetDistribution]
    num_shards: int
    config: TommyConfig = field(default_factory=TommyConfig)
    policy: Optional[ShardingPolicy] = None
    merge_topology: str = "flat"
    merge_fanout: int = 2
    final_heartbeats: bool = True

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be at least 1, got {self.num_shards!r}")
        missing = {m.client_id for m in self.messages} - set(self.client_distributions)
        if missing:
            raise ValueError(f"messages from unregistered clients: {sorted(missing)}")

    @classmethod
    def from_scenario(
        cls,
        scenario: "Scenario",
        num_shards: int,
        config: Optional[TommyConfig] = None,
        policy: Optional[ShardingPolicy] = None,
        merge_topology: str = "flat",
        merge_fanout: int = 2,
    ) -> "ClusterWorkload":
        """Freeze an offline :class:`~repro.workloads.scenario.Scenario`.

        Wrappers carrying the scenario at ``.scenario`` (e.g.
        :class:`~repro.workloads.multiregion.MultiRegionScenario`) are
        unwrapped transparently.
        """
        scenario = getattr(scenario, "scenario", scenario)
        return cls(
            messages=tuple(scenario.messages),
            client_distributions=dict(scenario.client_distributions),
            num_shards=num_shards,
            config=config if config is not None else TommyConfig(),
            policy=policy,
            merge_topology=merge_topology,
            merge_fanout=merge_fanout,
        )

    @property
    def client_ids(self) -> Tuple[str, ...]:
        """All registered client ids (sorted)."""
        return tuple(sorted(self.client_distributions))

    def messages_by_true_time(self) -> List[TimestampedMessage]:
        """Messages sorted by ground-truth generation time (stable)."""
        return sorted(self.messages, key=lambda message: message.true_time)

    def closing_heartbeat(self) -> Optional[Tuple[float, float]]:
        """``(true_time, beacon_timestamp)`` of the closing heartbeats.

        Computed over the *whole* workload so every shard — whichever
        backend executes it — closes its completeness horizon at the same
        instant with the same beacon.  ``None`` when disabled or empty.
        """
        if not self.final_heartbeats or not self.messages:
            return None
        end_time = max(message.true_time for message in self.messages) + HEARTBEAT_SLACK
        beacon = max(message.timestamp for message in self.messages) + HEARTBEAT_SLACK
        return end_time, beacon

    def build_router(self) -> ShardRouter:
        """The routing table every backend shares (the one cluster recipe)."""
        return build_router(self.client_distributions, self.num_shards, self.policy)

    def shard_assignments(self) -> List[List[str]]:
        """Per-shard sorted client-id lists under :meth:`build_router`."""
        router = self.build_router()
        return [router.clients_of(shard) for shard in range(self.num_shards)]


@dataclass(frozen=True)
class LiveClusterSpec:
    """Static cluster shape: a :class:`ClusterWorkload` minus its messages.

    The provisioned client population (with offset distributions), shard
    count, sequencer config and merge topology.  The one spec type the procs
    coordinator and the live dispatcher are built from; a frozen workload
    maps onto it via :meth:`from_workload`.
    """

    client_distributions: Dict[str, OffsetDistribution]
    num_shards: int
    config: TommyConfig = field(default_factory=TommyConfig)
    policy: Optional[ShardingPolicy] = None
    merge_topology: str = "flat"
    merge_fanout: int = 2

    @classmethod
    def from_workload(cls, workload: ClusterWorkload) -> "LiveClusterSpec":
        """Adopt a frozen workload's shape."""
        return cls(
            client_distributions=dict(workload.client_distributions),
            num_shards=workload.num_shards,
            config=workload.config,
            policy=workload.policy,
            merge_topology=workload.merge_topology,
            merge_fanout=workload.merge_fanout,
        )

    def client_ids(self) -> Tuple[str, ...]:
        """All provisioned client ids (sorted)."""
        return tuple(sorted(self.client_distributions))


@dataclass(frozen=True)
class RuntimeOutcome:
    """What a backend produced for one workload run."""

    backend: str
    merge: MergeOutcome
    shard_batches: List[List[SequencedBatch]]
    message_count: int
    wall_seconds: float
    num_workers: int = 1
    telemetry: Optional["Telemetry"] = None
    details: Dict[str, object] = field(default_factory=dict)

    def fingerprint(self) -> List[Tuple[int, Tuple[Tuple[str, int], ...]]]:
        """Rank + message keys per merged batch — the parity contract.

        Two backends executed the same :class:`ClusterWorkload` correctly
        exactly when their fingerprints are equal.
        """
        return merge_fingerprint(self.merge)

    @property
    def messages_per_second(self) -> float:
        """Sequenced-and-merged messages per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.message_count / self.wall_seconds

    @property
    def lost_shards(self) -> Tuple[int, ...]:
        """Shards excluded from the merge after an exhausted restart budget.

        Empty for every backend/run that completed all shards; populated by
        :class:`~repro.runtime.procs.ProcBackend` under
        ``on_shard_loss="exclude"``.
        """
        return tuple(self.details.get("lost_shards", ()) or ())


class RuntimeBackend:
    """Base class for execution backends.

    A backend owns an endpoint lifecycle: ``run`` builds whatever endpoints
    it needs (in-process shard hosts or worker processes),
    executes the workload to completion and tears the endpoints down;
    ``close`` releases anything still held (idempotent — backends are
    context managers).
    """

    #: short identifier, also the CLI ``--runtime`` value
    name: str = "abstract"

    def run(self, workload: ClusterWorkload) -> RuntimeOutcome:
        """Execute ``workload`` to completion and return the outcome."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "RuntimeBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def resolve_backend(name: str, **kwargs: object) -> RuntimeBackend:
    """Construct the named backend (``"sim"`` or ``"procs"``).

    Keyword arguments are forwarded to the backend constructor; unknown
    names raise ``ValueError`` listing :data:`RUNTIME_NAMES`.
    """
    if name == "sim":
        from repro.runtime.sim import SimBackend

        return SimBackend(**kwargs)  # type: ignore[arg-type]
    if name == "procs":
        from repro.runtime.procs import ProcBackend

        return ProcBackend(**kwargs)  # type: ignore[arg-type]
    raise ValueError(f"unknown runtime {name!r}; expected one of {RUNTIME_NAMES}")


__all__ = [
    "HEARTBEAT_SLACK",
    "RUNTIME_NAMES",
    "ClockHandle",
    "Scheduler",
    "SchedulerClock",
    "WallClock",
    "clock_of",
    "ClusterWorkload",
    "LiveClusterSpec",
    "RuntimeOutcome",
    "RuntimeBackend",
    "resolve_backend",
]
