"""Online Tommy sequencing (paper §3.5 and Appendix C).

The online sequencer receives a stream of timestamped messages and
heartbeats and must decide *when* a batch can be emitted such that no later
arrival belongs in it or deserves a lower rank.  Two mechanisms interact:

* **Safe emission time (Q1).**  For every message ``k`` in the candidate
  batch a future time ``T^F_k`` is computed with
  ``P(T*_k < T^F_k) > p_safe``; the batch's safe emission time is
  ``T_b = max_k T^F_k``.  The batch is only emitted once the sequencer's
  clock reaches ``T_b`` and no newer pending message belongs to it.
* **Arrival completeness (Q2).**  With ordered per-client channels and a
  known client set, all messages timestamped <= ``t`` have arrived once every
  client has been heard from (message or heartbeat) with a timestamp > ``t``.
  A bounded-delay alternative waits ``max_network_delay`` instead.

Every new arrival is followed by an emission check over the pending set's
first tentative batch, so a high-uncertainty message automatically merges
with (and thereby delays) messages it cannot be confidently ordered against —
the Appendix C scenario.  The batch comes from the
:class:`~repro.core.engine.IncrementalPrecedenceEngine`: one vectorized
row/column append per arrival instead of an O(n^2) scalar recompute, and the
candidate batch is re-derived only when that arrival could have changed it —
while every member confidently precedes the newcomer the engine keeps it and
the check reads the candidate's cached safe-emission time and completeness
horizon.  The original recompute-everything path, which re-runs tentative
batching on every check and caches nothing, is the parity oracle
``ReferenceOnlineSequencer`` in ``tests/reference/online_reference.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import TommyConfig
from repro.core.engine import EngineStats, IncrementalPrecedenceEngine
from repro.core.probability import PrecedenceModel
from repro.core.relation import MessageKey
from repro.distributions.base import OffsetDistribution
from repro.network.message import Heartbeat, SequencedBatch, TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.sequencers.base import SequencingResult
from repro.simulation.entity import Entity
from repro.simulation.event_loop import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Scheduler


@dataclass(frozen=True)
class EmittedBatch:
    """An emitted batch plus its emission bookkeeping."""

    batch: SequencedBatch
    emitted_at: float
    safe_emission_time: float

    @property
    def rank(self) -> int:
        """Rank of the emitted batch."""
        return self.batch.rank

    @property
    def size(self) -> int:
        """Number of messages in the batch."""
        return self.batch.size

    def emission_latencies(self) -> List[float]:
        """Per-message latency from ground-truth generation to emission."""
        return [
            self.emitted_at - message.true_time
            for message in self.batch.messages
            if message.true_time is not None
        ]


class OnlineTommySequencer(Entity):
    """Streaming fair sequencer with safe batch emission."""

    def __init__(
        self,
        loop: Scheduler,
        client_distributions: Dict[str, OffsetDistribution],
        config: Optional[TommyConfig] = None,
        known_clients: Optional[Sequence[str]] = None,
        name: str = "tommy-online",
        telemetry: Optional[Telemetry] = None,
        shard_index: Optional[int] = None,
    ) -> None:
        super().__init__(loop, name)
        self._config = config if config is not None else TommyConfig()
        self._obs = resolve(telemetry)
        self._shard_index = shard_index
        self._check_wall: Optional[float] = None
        self._model = PrecedenceModel(
            method=self._config.probability_method,
            convolution_points=self._config.convolution_points,
        )
        for client_id, distribution in client_distributions.items():
            self._model.register_client(client_id, distribution)
        self._rng = np.random.default_rng(self._config.seed if self._config.seed is not None else 0)
        self._engine = IncrementalPrecedenceEngine(
            self._model,
            threshold=self._config.threshold,
            tie_epsilon=self._config.tie_epsilon,
            cycle_policy=self._config.cycle_policy,
            rng=self._rng,
        )
        self._known_clients = (
            set(known_clients) if known_clients is not None else set(client_distributions)
        )
        # key -> message in arrival order: an emission deletes its k keys
        self._pending: Dict[MessageKey, TimestampedMessage] = {}
        self._arrival_times: Dict[Tuple[str, int], float] = {}
        self._latest_client_timestamp: Dict[str, float] = {}
        # incremental completeness horizon: known clients never heard from,
        # plus a lazily recomputed minimum over the heard clients' latest
        # timestamps, so the per-emission-check completeness test is O(1)
        # instead of a scan over every known client
        self._unheard_clients = set(self._known_clients)
        self._floor_value = float("inf")
        self._floor_client: Optional[str] = None
        self._floor_stale = False
        # (engine candidate epoch, safe emission time, completeness horizon)
        self._candidate_bounds: Optional[Tuple[int, float, float]] = None
        self._emitted: List[EmittedBatch] = []
        self._next_rank = 0
        self._check_event: Optional[Event] = None
        self._extension_count = 0
        self._distribution_refreshes = 0
        self._on_emit: Optional[Callable[[EmittedBatch], None]] = None

    # ------------------------------------------------------------- properties
    @property
    def config(self) -> TommyConfig:
        """The sequencer configuration."""
        return self._config

    @property
    def model(self) -> PrecedenceModel:
        """Preceding-probability model."""
        return self._model

    @property
    def engine(self) -> IncrementalPrecedenceEngine:
        """The incremental precedence engine."""
        return self._engine

    def engine_stats(self) -> EngineStats:
        """Engine counters."""
        return self._engine.stats

    @property
    def pending_messages(self) -> List[TimestampedMessage]:
        """Messages received but not yet emitted."""
        return list(self._pending.values())

    @property
    def emitted_batches(self) -> List[EmittedBatch]:
        """Batches emitted so far, in rank order."""
        return list(self._emitted)

    @property
    def extension_count(self) -> int:
        """How many times a scheduled emission was deferred by new arrivals."""
        return self._extension_count

    @property
    def distribution_refreshes(self) -> int:
        """How many live distribution updates the sequencer has absorbed."""
        return self._distribution_refreshes

    def subscribe_emissions(self, callback: Optional[Callable[[EmittedBatch], None]]) -> None:
        """Register ``callback`` to be invoked with every emitted batch.

        The hook fires synchronously from :meth:`_emit` (timer-driven
        emissions and :meth:`flush` alike); the cluster uses it to feed the
        streaming cross-shard merger as batches appear instead of re-merging
        everything per drain.
        """
        self._on_emit = callback

    def register_client(self, client_id: str, distribution: OffsetDistribution) -> None:
        """Register a (new) client's clock-error distribution."""
        self._model.register_client(client_id, distribution)
        self._engine.invalidate_client(client_id)
        if client_id not in self._known_clients:
            self._known_clients.add(client_id)
            if client_id not in self._latest_client_timestamp:
                self._unheard_clients.add(client_id)

    def update_client_distribution(
        self, client_id: str, distribution: OffsetDistribution
    ) -> None:
        """Refresh a *known* client's distribution while the sequencer runs.

        This is the adaptive-registration entry point of the learned pipeline
        (paper §3.3/§5): a client re-estimates its offset distribution from
        sync probes and ships the new estimate mid-stream.  The engine drops
        the client's cached Gaussian parameters, pair-CDF tables and
        safe-emission quantiles, and rebuilds any live matrix rows involving
        the client, so the very next tentative batching reflects the update —
        exactly like a recompute per arrival would.
        """
        self.update_client_distributions({client_id: distribution})

    def update_client_distributions(
        self, distributions: Dict[str, OffsetDistribution]
    ) -> None:
        """Batch variant of :meth:`update_client_distribution`.

        All model registrations happen first and the engine invalidates (and
        rebuilds) once, so refreshing many clients costs one rebuild instead
        of one per client.
        """
        unknown = [
            client_id for client_id in distributions if not self._model.has_client(client_id)
        ]
        if unknown:
            raise KeyError(
                f"clients {unknown!r} are not registered; use register_client for new clients"
            )
        if not distributions:
            return
        for client_id, distribution in distributions.items():
            self._model.register_client(client_id, distribution)
        self._engine.invalidate_clients(distributions)
        self._distribution_refreshes += len(distributions)
        # the refreshed distributions can change safe-emission times and
        # tentative batching of the pending set, so re-run the emission check
        if self._pending:
            self._schedule_check()

    # ---------------------------------------------------------------- intake
    def receive(
        self, item: Union[TimestampedMessage, Heartbeat], arrival_time: Optional[float] = None
    ) -> None:
        """Handle an arriving message or heartbeat.

        Designed to be wired directly into
        :meth:`repro.network.transport.SequencerEndpoint.on_arrival`.  A
        message that is rejected (unregistered client, key already pending)
        raises before any state changes.
        """
        arrival = self.now if arrival_time is None else float(arrival_time)
        if isinstance(item, Heartbeat):
            self._note_client_progress(item.client_id, item.timestamp)
        elif isinstance(item, TimestampedMessage):
            self._check_admissible(item)
            key = item.key
            self._engine.add_message(item)
            self._pending[key] = item
            self._arrival_times[key] = arrival
            self._note_client_progress(item.client_id, item.timestamp)
            if self._obs.enabled:
                self._obs.stage("engine_append", item, arrival, shard=self._shard_index)
        else:
            raise TypeError(f"unsupported item type {type(item).__name__}")
        self._schedule_check()

    def _check_admissible(self, message: TimestampedMessage) -> None:
        """Raise unless ``message`` may join the pending set."""
        if not self._model.has_client(message.client_id):
            raise KeyError(
                f"client {message.client_id!r} has no registered clock-error distribution"
            )
        if message.key in self._pending:
            raise ValueError(f"message {message.key!r} is already pending")

    def _note_client_progress(self, client_id: str, timestamp: float) -> None:
        current = self._latest_client_timestamp.get(client_id)
        if current is None:
            self._latest_client_timestamp[client_id] = timestamp
            self._unheard_clients.discard(client_id)
            if timestamp < self._floor_value:
                self._floor_value = timestamp
                self._floor_client = client_id
        elif timestamp > current:
            self._latest_client_timestamp[client_id] = timestamp
            # raising any other client's latest cannot lower the minimum;
            # raising the floor client's invalidates the cached floor
            if client_id == self._floor_client:
                self._floor_stale = True
        self._known_clients.add(client_id)

    # ----------------------------------------------------- tentative batching
    def _tentative_groups(self) -> List[List[TimestampedMessage]]:
        """Batching of the current pending set.

        Always uses the *strict* batching rule: a batch boundary requires
        every straddling pair to be confident.  This is what makes a single
        high-uncertainty message pull later messages into its batch (the
        Appendix C scenario) and what makes emitting the first batch safe.
        """
        if not self._pending:
            return []
        return self._engine.tentative_groups()

    def _first_tentative_group(self) -> Optional[List[TimestampedMessage]]:
        """First tentative batch (the emission candidate), or ``None``.

        Identical to ``_tentative_groups()[0]`` — the engine computes it with
        a prefix scan instead of the full boundary pass, since the emission
        check never consumes the later groups, and keeps it between checks
        while no arrival could have changed it.
        """
        if not self._pending:
            return None
        return self._engine.first_tentative_group()

    def safe_emission_time(self, batch: Sequence[TimestampedMessage]) -> float:
        """``T_b = max_k T^F_k`` over the batch (paper §3.5)."""
        if not batch:
            raise ValueError("cannot compute a safe emission time for an empty batch")
        return max(
            self._engine.safe_emission_time(message, self._config.p_safe) for message in batch
        )

    def _completeness_floor(self) -> float:
        """Minimum latest-heard timestamp over the known clients.

        ``-inf`` while any known client has never been heard from.  The
        minimum is cached and only recomputed when the floor-defining client
        itself advances, so the per-check cost is O(1) amortised instead of
        a scan over every known client (``completeness_scan`` in
        ``tests/reference/online_reference.py``, kept as the parity oracle).
        """
        if self._unheard_clients:
            return -float("inf")
        if self._floor_stale:
            latest = self._latest_client_timestamp
            self._floor_client = min(latest, key=latest.__getitem__)
            self._floor_value = latest[self._floor_client]
            self._floor_stale = False
        return self._floor_value

    def _bounds(self, candidate: Sequence[TimestampedMessage]) -> Tuple[float, float]:
        """``(safe emission time, completeness horizon)`` of the candidate.

        Both are functions of the candidate's members and their clients'
        quantiles alone, and the engine's ``candidate_epoch`` moves whenever
        either can have changed, so they are computed once per epoch.
        """
        epoch = self._engine.candidate_epoch
        cached = self._candidate_bounds
        if cached is not None and cached[0] == epoch:
            return cached[1], cached[2]
        safe_time = self.safe_emission_time(candidate)
        horizon = max(message.timestamp for message in candidate)
        self._candidate_bounds = (epoch, safe_time, horizon)
        return safe_time, horizon

    def _completeness_satisfied(self, batch_horizon: float) -> bool:
        mode = self._config.completeness_mode
        if mode == "none":
            return True
        if mode == "heartbeat":
            if not self._known_clients:
                return True
            # On an ordered channel, having heard from a client at timestamp
            # >= horizon means none of its messages timestamped below the
            # horizon are still in flight (per-client FIFO + monotone
            # per-client timestamps).  Every known client clears the horizon
            # exactly when the minimum latest-heard timestamp does.
            return self._completeness_floor() >= batch_horizon
        # bounded_delay: all messages timestamped <= batch_horizon have arrived
        # once the sequencer clock passes batch_horizon + max one-way delay.
        return self.now >= batch_horizon + self._config.max_network_delay

    # ---------------------------------------------------------------- emission
    def _schedule_check(self, at: Optional[float] = None) -> None:
        when = self.now if at is None else max(float(at), self.now)
        if self._check_event is not None and not self._check_event.cancelled:
            if self._check_event.time <= when:
                self._extension_count += 1
            self.cancel(self._check_event)
        self._check_event = self.call_at(when, self._emission_check)

    def _emission_check(self) -> None:
        if not self._obs.enabled:
            self._run_emission_check()
            return
        # stamp the check's start so emitted messages can attribute their
        # "emission_check" stage to the decision that released them
        self._check_wall = time.perf_counter()
        self._obs.count("sequencer.emission_checks")
        try:
            self._run_emission_check()
        finally:
            self._obs.observe(
                "sequencer.emission_check_wall_ms",
                (time.perf_counter() - self._check_wall) * 1e3,
            )
            self._check_wall = None

    def _run_emission_check(self) -> None:
        self._check_event = None
        emitted_any = True
        while emitted_any and self._pending:
            emitted_any = False
            candidate = self._first_tentative_group()
            if not candidate:
                return
            safe_time, horizon = self._bounds(candidate)
            if self.now >= safe_time and self._completeness_satisfied(horizon):
                self._emit(candidate, safe_time)
                emitted_any = True
            elif self.now < safe_time:
                self._schedule_check(safe_time)
                return
            elif self._config.completeness_mode == "bounded_delay":
                # completeness will be satisfied by the passage of time alone
                self._schedule_check(horizon + self._config.max_network_delay)
                return
            else:
                # waiting on completeness; a future heartbeat/message will
                # trigger the next check
                return

    def _emit(self, candidate: List[TimestampedMessage], safe_time: float) -> None:
        batch = SequencedBatch(rank=self._next_rank, messages=tuple(candidate), emitted_at=self.now)
        emitted = EmittedBatch(batch=batch, emitted_at=self.now, safe_emission_time=safe_time)
        self._emitted.append(emitted)
        self._next_rank += 1
        emitted_keys = {message.key for message in candidate}
        # release per-message bookkeeping: without this the arrival-time dict
        # (and the engine's matrix row) would grow for the sequencer's lifetime
        for key in emitted_keys:
            del self._pending[key]
            self._arrival_times.pop(key, None)
        self._engine.remove_messages(emitted_keys)
        if self._obs.enabled:
            for message in candidate:
                self._obs.stage(
                    "emission_check",
                    message,
                    self.now,
                    shard=self._shard_index,
                    wall=self._check_wall,
                )
                self._obs.stage("batch_emit", message, self.now, shard=self._shard_index)
            self._obs.count("sequencer.batches_emitted")
            self._obs.observe("sequencer.batch_size", len(candidate))
        if self._on_emit is not None:
            self._on_emit(emitted)

    # ------------------------------------------------------------- durability
    def snapshot(self) -> Dict[str, object]:
        """Picklable checkpoint of the sequencer's live ordering state.

        Captures everything a replacement process needs to continue the
        emission stream bitwise-identically: the pending set with its arrival
        times, the per-client completeness horizon, the next emission rank and
        the RNG state (cycle resolution draws must continue where they left
        off).  Emitted batches are deliberately *not* captured — the durable
        history lives downstream in the merged order — so the checkpoint size
        is bounded by the pending set, not the stream length (ROADMAP
        durability item).
        """
        return {
            "pending": tuple(self._pending.values()),
            "arrival_times": dict(self._arrival_times),
            "latest_client_timestamp": dict(self._latest_client_timestamp),
            "known_clients": tuple(sorted(self._known_clients)),
            "unheard_clients": tuple(sorted(self._unheard_clients)),
            "next_rank": self._next_rank,
            "extension_count": self._extension_count,
            "distribution_refreshes": self._distribution_refreshes,
            "rng_state": self._rng.bit_generator.state,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Rehydrate a :meth:`snapshot` into this (fresh) sequencer.

        The sequencer must not have received any traffic yet: restore rebuilds
        the pending set (re-appending it into the incremental engine), the
        completeness horizon and the RNG stream, then re-arms the emission
        check so batches continue from the checkpoint's next rank.  Feeding
        the post-checkpoint arrival stream afterwards reproduces the original
        run's remaining emissions bitwise (parity-tested in ``tests/core``).
        """
        if self._pending or self._emitted or self._latest_client_timestamp:
            raise ValueError("restore() requires a fresh sequencer with no traffic received")
        self._rng.bit_generator.state = state["rng_state"]
        self._known_clients = set(state["known_clients"])
        self._latest_client_timestamp = dict(state["latest_client_timestamp"])
        self._unheard_clients = set(state["unheard_clients"])
        self._floor_value = float("inf")
        self._floor_client = None
        self._floor_stale = bool(self._latest_client_timestamp)
        pending = list(state["pending"])
        self._pending = {message.key: message for message in pending}
        self._arrival_times = dict(state["arrival_times"])
        for message in pending:
            self._engine.add_message(message)
        self._next_rank = int(state["next_rank"])
        self._extension_count = int(state["extension_count"])
        self._distribution_refreshes = int(state["distribution_refreshes"])
        if self._pending:
            self._schedule_check()

    def halt(self) -> None:
        """Stop processing: cancel any scheduled emission check.

        Models a crashed sequencer process (used by cluster shard failover);
        pending messages stay readable so a failover controller can replay
        them elsewhere, but no further batches are emitted.
        """
        if self._check_event is not None:
            self.cancel(self._check_event)
            self._check_event = None

    def flush(self) -> List[EmittedBatch]:
        """Force-emit everything still pending (end of an experiment run).

        The remaining messages are batched exactly as the offline pipeline
        would batch them, ignoring safe-emission waits and completeness.
        """
        for group in self._tentative_groups():
            self._emit(group, safe_time=self.now)
        return self.emitted_batches

    # ------------------------------------------------------------------ views
    def arrival_time_of(self, message: TimestampedMessage) -> Optional[float]:
        """Arrival time of a still-pending ``message`` at the sequencer.

        Bookkeeping is released on emission, so emitted messages return
        ``None``.
        """
        return self._arrival_times.get(message.key)

    def result(self) -> SequencingResult:
        """The emitted batches as a :class:`SequencingResult`."""
        batches = tuple(emitted.batch for emitted in self._emitted)
        metadata = {
            "sequencer": "tommy-online",
            "p_safe": self._config.p_safe,
            "threshold": self._config.threshold,
            "completeness_mode": self._config.completeness_mode,
            "extensions": self._extension_count,
            "distribution_refreshes": self._distribution_refreshes,
            "pending": len(self._pending),
            "engine": self._engine.stats.as_dict(),
        }
        return SequencingResult(batches=batches, metadata=metadata)

    def emission_latencies(self) -> List[float]:
        """Per-message generation-to-emission latencies across all emitted batches."""
        latencies: List[float] = []
        for emitted in self._emitted:
            latencies.extend(emitted.emission_latencies())
        return latencies
