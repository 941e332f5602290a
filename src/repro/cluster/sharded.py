"""The sharded fair-sequencing cluster.

:class:`ShardedSequencer` runs one
:class:`~repro.core.online.OnlineTommySequencer` per shard on a shared
:class:`~repro.simulation.EventLoop`.  Clients are routed to shards by a
:class:`~repro.cluster.router.ShardRouter`; each shard sequences only its own
clients, so per-arrival cost drops from O(n^2) over the whole pending set to
O((n/S)^2) per shard.  The cluster-wide order is recovered afterwards by the
probabilistic :class:`~repro.cluster.merge.CrossShardMerger`.

Failover: when a shard-heartbeat interval is configured, every live shard
ticks a heartbeat on the loop and a monitor watches for silence.  A shard
whose heartbeat goes stale is declared dead; its clients are drained onto the
least-loaded survivors and its pending (unemitted) messages — plus anything
that arrived for it while it was silently down — are replayed into the new
owners.  Batches the dead shard emitted before crashing remain part of the
cluster history and participate in the final merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.intake import IntakeDedupeGate
from repro.cluster.merge import CrossShardMerger, MergeOutcome, StreamingMerger
from repro.cluster.recipe import build_merge, build_router
from repro.cluster.router import ShardingPolicy, ShardRouter
from repro.cluster.tree import MergeTopology
from repro.core.config import TommyConfig
from repro.core.engine import EngineStats
from repro.core.online import EmittedBatch, OnlineTommySequencer
from repro.distributions.base import OffsetDistribution
from repro.network.message import Heartbeat, SequencedBatch, TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.runtime.base import Scheduler
from repro.sequencers.base import SequencingResult
from repro.simulation.entity import Entity
from repro.sync.probe import SyncProbe
from repro.sync.refresh import DistributionRefreshLoop


@dataclass(frozen=True)
class FailoverEvent:
    """Record of one shard failover."""

    shard: int
    detected_at: float
    clients_moved: int
    messages_replayed: int


@dataclass(frozen=True)
class RejoinEvent:
    """Record of one shard rejoining the cluster after a crash."""

    shard: int
    rejoined_at: float
    clients_reclaimed: int


@dataclass
class ShardState:
    """Mutable per-shard bookkeeping."""

    index: int
    sequencer: OnlineTommySequencer
    alive: bool = True
    crashed: bool = False
    last_heartbeat: float = 0.0
    backlog: List[Union[TimestampedMessage, Heartbeat]] = field(default_factory=list)
    #: batches emitted by previous incarnations of this shard (before a
    #: crash + rejoin); they stay part of the cluster history and the merge
    retired: List[EmittedBatch] = field(default_factory=list)
    #: how many times the shard has rejoined with a fresh sequencer process
    generation: int = 0


class ShardedSequencer(Entity):
    """A cluster of per-shard online Tommy sequencers with cross-shard merge.

    The chaos harness's live cluster (the runtimes host shards through
    :mod:`repro.runtime.host` instead).  The entity is named ``"cluster"``
    and shard ``i``'s sequencer ``"cluster-shard-i"``.  :meth:`attach_learning`
    refreshes distributions with the learner's default estimator.
    """

    #: Seen-key count past which :meth:`observability_report` flags the
    #: exactly-once gate's memory growth.  With the delivery-horizon pruning
    #: rule (the default) the retained set stays bounded by the per-client
    #: in-flight window, so tripping this warning means pruning is disabled
    #: (``dedupe_prune_horizon=False``) or traffic carries no usable
    #: per-client sequence numbers.  Overridable per instance in tests.
    DEDUPE_WARN_THRESHOLD = 1_000_000

    def __init__(
        self,
        loop: Scheduler,
        client_distributions: Dict[str, OffsetDistribution],
        num_shards: int,
        config: Optional[TommyConfig] = None,
        policy: Optional[ShardingPolicy] = None,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        dedupe_intake: bool = False,
        dedupe_prune_horizon: bool = True,
        telemetry: Optional[Telemetry] = None,
        merge_topology: str = "flat",
        merge_fanout: int = 2,
    ) -> None:
        super().__init__(loop, "cluster")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive when given")
        self._config = config if config is not None else TommyConfig()
        self._telemetry = telemetry
        self._obs = resolve(telemetry)
        self._distributions = dict(client_distributions)
        self._router = build_router(self._distributions, num_shards, policy)

        self._shards: List[ShardState] = []
        for index in range(num_shards):
            shard_clients = self._router.clients_of(index)
            sequencer = OnlineTommySequencer(
                loop,
                {client: self._distributions[client] for client in shard_clients},
                config=self._config,
                known_clients=shard_clients,
                name=f"cluster-shard-{index}",
                telemetry=telemetry,
                shard_index=index,
            )
            self._shards.append(
                ShardState(index=index, sequencer=sequencer, last_heartbeat=self.now)
            )

        self._merge_topology_kind = merge_topology
        self._merge_fanout = int(merge_fanout)
        self._merger, self._topology, self._streaming = build_merge(
            self._distributions,
            self._config,
            self._router,
            merge_topology=merge_topology,
            merge_fanout=merge_fanout,
            telemetry=telemetry,
        )
        # live merged order: every shard emission streams into an incremental
        # merger, so draining the cluster is a linearisation of maintained
        # state instead of an O(everything) re-merge; merge() stays available
        # as the offline parity oracle
        for shard in self._shards:
            shard.sequencer.subscribe_emissions(self._emission_observer(shard.index))

        self._failover_events: List[FailoverEvent] = []
        self._rejoin_events: List[RejoinEvent] = []
        self._retired_engine_stats = EngineStats()
        self._refresh_loop: Optional[DistributionRefreshLoop] = None
        self._distribution_refreshes = 0
        # exactly-once intake: with dedupe enabled, a (client, message) key
        # is accepted at the cluster boundary once; faulty networks that
        # duplicate deliveries cannot double-sequence a message.  The gate
        # (delivery-horizon pruning rule included) lives in
        # cluster.intake.IntakeDedupeGate so the live ingestion edge can
        # share the exact same admission semantics at submit time.
        self._gate = IntakeDedupeGate(
            enabled=dedupe_intake,
            prune_horizon=dedupe_prune_horizon,
            telemetry=telemetry,
            clock=lambda: self.now,
        )
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else (3.0 * heartbeat_interval if heartbeat_interval is not None else None)
        )
        self._monitor_running = False
        if heartbeat_interval is not None:
            for shard in self._shards:
                self.call_after(heartbeat_interval, self._shard_heartbeat_tick, shard.index)
            self.call_after(heartbeat_interval, self._monitor_tick)
            self._monitor_running = True
        if self._obs.enabled:
            # fold the pre-existing stats surfaces into registry snapshots
            # (re-read at snapshot time, so they track the live cluster)
            self._obs.attach("cluster.engine", self.engine_stats)
            self._obs.attach("cluster.learning", self.learning_stats)
            self._obs.attach("cluster.loop", loop)
            self._obs.attach("cluster.merge", self.merge_report)

    # ------------------------------------------------------------- properties
    @property
    def num_shards(self) -> int:
        """Number of shards (including failed ones)."""
        return len(self._shards)

    @property
    def router(self) -> ShardRouter:
        """The client-to-shard routing table."""
        return self._router

    @property
    def config(self) -> TommyConfig:
        """Per-shard sequencer configuration."""
        return self._config

    @property
    def merger(self) -> CrossShardMerger:
        """The cross-shard merger (cluster-wide precedence model)."""
        return self._merger

    @property
    def streaming_merger(self) -> StreamingMerger:
        """The live incremental merger every shard emission streams into."""
        return self._streaming

    @property
    def merge_topology(self) -> Optional[MergeTopology]:
        """The hierarchical merge tree (``None`` for the flat merge)."""
        return self._topology

    def merge_report(self) -> Dict[str, object]:
        """Merge-layer topology + per-node pruning/kernel accounting.

        ``nodes`` carries one row per merge node: the streaming merger's
        attribution of every priced pair to its lowest common ancestor.
        Attached to the metrics registry as ``cluster.merge``.
        """
        return {
            "topology": self._merge_topology_kind,
            "fanout": self._merge_fanout if self._topology is not None else self.num_shards,
            "depth": self._topology.depth if self._topology is not None else 1,
            "cross_pairs_evaluated": self._streaming.cross_pairs_evaluated,
            "cross_pairs_pruned": self._streaming.cross_pairs_pruned,
            "nodes": self._streaming.node_report(),
        }

    def _emission_observer(self, shard_index: int):
        def observe(emitted: EmittedBatch) -> None:
            self._streaming.observe_batch(shard_index, emitted.batch)

        return observe

    @property
    def shards(self) -> List[ShardState]:
        """Per-shard states (live view, do not mutate)."""
        return list(self._shards)

    @property
    def alive_shards(self) -> List[int]:
        """Indices of shards currently considered alive."""
        return [shard.index for shard in self._shards if shard.alive]

    @property
    def failover_events(self) -> List[FailoverEvent]:
        """Failovers performed so far."""
        return list(self._failover_events)

    def sequencer_of(self, shard: int) -> OnlineTommySequencer:
        """The online sequencer backing ``shard``."""
        return self._shards[shard].sequencer

    def register_client(self, client_id: str, distribution: OffsetDistribution) -> None:
        """Register a new client cluster-wide and route it to a shard.

        Sharding policies are unaware of failovers, so an assignment landing
        on a dead shard is immediately redirected to a live one.
        """
        self._distributions[client_id] = distribution
        self._merger.register_client(client_id, distribution)
        shard = self._live_owner(client_id)
        self._shards[shard].sequencer.register_client(client_id, distribution)

    def update_client_distribution(
        self, client_id: str, distribution: OffsetDistribution
    ) -> None:
        """Refresh a known client's distribution cluster-wide.

        The owner shard's online sequencer absorbs the update (invalidating
        its engine caches and rebuilding live rows) and the cross-shard
        merger re-prices future batch precedences with the new distribution.
        (``register_client`` first prices the streaming merger's pending
        rows, under the outgoing model; ``refresh_client`` then reprices.)
        """
        if client_id not in self._distributions:
            raise KeyError(
                f"client {client_id!r} is not registered; use register_client for new clients"
            )
        self._distributions[client_id] = distribution
        self._merger.register_client(client_id, distribution)
        self._streaming.refresh_client(client_id)
        shard = self._live_owner(client_id)
        self._shards[shard].sequencer.update_client_distribution(client_id, distribution)
        self._distribution_refreshes += 1

    # --------------------------------------------------------------- learning
    def attach_learning(
        self,
        method: str = "empirical",
        window: int = 256,
        refresh_every: int = 32,
        min_observations: int = 8,
    ) -> DistributionRefreshLoop:
        """Attach a probe-driven refresh loop feeding this cluster.

        Probes delivered to :meth:`observe_probe` accumulate in per-client
        learners; every ``refresh_every`` probes a client's distribution is
        re-estimated and pushed through :meth:`update_client_distribution`.
        """
        self._refresh_loop = DistributionRefreshLoop(
            self,
            method=method,
            window=window,
            refresh_every=refresh_every,
            min_observations=min_observations,
            telemetry=self._telemetry,
        )
        return self._refresh_loop

    @property
    def refresh_loop(self) -> Optional[DistributionRefreshLoop]:
        """The attached refresh loop, if any."""
        return self._refresh_loop

    def observe_probe(self, probe: SyncProbe) -> None:
        """Feed one sync probe into the attached learning loop."""
        if self._refresh_loop is None:
            raise ValueError("no learning loop attached; call attach_learning first")
        self._refresh_loop.observe_probe(probe)

    def learning_stats(self) -> Dict[str, object]:
        """Cluster-wide refresh accounting (for result metadata and sweeps)."""
        stats: Dict[str, object] = {
            "distribution_refreshes": self._distribution_refreshes,
            "per_shard_refreshes": [
                shard.sequencer.distribution_refreshes for shard in self._shards
            ],
        }
        if self._refresh_loop is not None:
            stats.update(self._refresh_loop.stats.as_dict())
        return stats

    def _live_owner(self, client_id: str) -> int:
        """The client's owner shard, rerouted off dead shards if needed.

        Crashed-but-undetected shards still count as owners (their inbox is
        the backlog, replayed at detection); only drained shards are dead.
        """
        owner = self._router.assign(client_id)
        if self._shards[owner].alive:
            return owner
        alive = [shard.index for shard in self._shards if shard.alive]
        if not alive:
            raise ValueError(f"no alive shard left to own client {client_id!r}")
        loads = self._router.loads
        target = min(alive, key=lambda index: (loads[index], index))
        self._router.reassign(client_id, target)
        self._shards[target].sequencer.register_client(
            client_id, self._distributions[client_id]
        )
        return target

    # ----------------------------------------------------------------- intake
    @property
    def duplicates_suppressed(self) -> int:
        """Messages rejected by the exactly-once intake gate so far."""
        return self._gate.duplicates_suppressed

    @property
    def dedupe_keys_pruned(self) -> int:
        """Seen keys released by the delivery-horizon pruning rule so far."""
        return self._gate.keys_pruned

    def _is_duplicate(self, item: Union[TimestampedMessage, Heartbeat]) -> bool:
        """Exactly-once gate at the cluster boundary (messages only).

        Delegates to :class:`~repro.cluster.intake.IntakeDedupeGate`.
        Internal routing and failover replay bypass this gate
        (:meth:`_route` and friends): a replayed pending message was already
        admitted once and must reach its new owner.
        """
        return self._gate.is_duplicate(item)

    def receive(
        self, item: Union[TimestampedMessage, Heartbeat], arrival_time: Optional[float] = None
    ) -> None:
        """Route an arriving message or heartbeat to its owner shard.

        Signature-compatible with
        :meth:`repro.core.online.OnlineTommySequencer.receive`, so a cluster
        can replace a single sequencer wherever one is wired in.
        """
        if self._is_duplicate(item):
            return
        self._route(item, arrival_time)

    def receive_at(
        self,
        shard_index: int,
        item: Union[TimestampedMessage, Heartbeat],
        arrival_time: Optional[float] = None,
    ) -> None:
        """Deliver ``item`` to a specific shard's fan-in endpoint.

        This is the hook per-shard :class:`~repro.network.transport.Transport`
        endpoints are wired to.  A crashed-but-undetected shard buffers the
        item (replayed at failover); a drained shard forwards through the
        router to the client's new owner.
        """
        if self._is_duplicate(item):
            return
        self._route_at(shard_index, item, arrival_time)

    def _route(
        self, item: Union[TimestampedMessage, Heartbeat], arrival_time: Optional[float] = None
    ) -> None:
        self._route_at(self._live_owner(item.client_id), item, arrival_time)

    def _route_at(
        self,
        shard_index: int,
        item: Union[TimestampedMessage, Heartbeat],
        arrival_time: Optional[float] = None,
    ) -> None:
        shard = self._shards[shard_index]
        if shard.crashed and shard.alive:
            # down but not yet detected: the item is in the dead shard's inbox
            shard.backlog.append(item)
            return
        if not shard.alive:
            # already failed over: reroute to the client's live owner (which
            # may itself be crashed-but-undetected, in which case it backlogs)
            self._route_at(self._live_owner(item.client_id), item, arrival_time)
            return
        if not shard.sequencer.model.has_client(item.client_id):
            # stale channel: after a crash + rejoin the shard is alive again
            # but did not reclaim this client — respect the router instead of
            # handing the fresh sequencer a client it never registered
            owner = self._live_owner(item.client_id)
            if owner != shard_index:
                self._route_at(owner, item, arrival_time)
                return
            if item.client_id in self._distributions:
                shard.sequencer.register_client(
                    item.client_id, self._distributions[item.client_id]
                )
        if self._obs.enabled and isinstance(item, TimestampedMessage):
            self._obs.stage("shard_intake", item, self.now, shard=shard_index)
        shard.sequencer.receive(item, arrival_time)

    # --------------------------------------------------------------- failover
    def fail_shard(self, shard_index: int) -> None:
        """Simulate a crash of ``shard_index`` (stops heartbeats and emission).

        Detection and client reassignment happen via the heartbeat monitor
        when one is configured, or immediately via :meth:`force_failover`.
        """
        shard = self._shards[shard_index]
        if shard.crashed:
            return
        shard.crashed = True
        shard.sequencer.halt()

    def force_failover(self, shard_index: int) -> FailoverEvent:
        """Declare ``shard_index`` dead right now and reassign its clients."""
        self.fail_shard(shard_index)
        return self._failover(shard_index)

    def _shard_heartbeat_tick(self, shard_index: int, generation: int = 0) -> None:
        shard = self._shards[shard_index]
        # a tick armed for a previous incarnation must not re-arm: a rejoin
        # starts its own loop, and without the generation guard a pre-crash
        # tick still pending at rejoin time would run a second, permanent
        # heartbeat loop for the shard
        if shard.generation != generation or shard.crashed or not shard.alive:
            return
        shard.last_heartbeat = self.now
        self.call_after(
            self._heartbeat_interval, self._shard_heartbeat_tick, shard_index, generation
        )

    def _monitor_tick(self) -> None:
        for shard in self._shards:
            if shard.alive and self.now - shard.last_heartbeat > self._heartbeat_timeout:
                # a stale shard with nobody to take its clients (total cluster
                # failure) stays degraded rather than aborting the run
                has_survivor = any(
                    other.alive and other.index != shard.index for other in self._shards
                )
                if has_survivor:
                    self._failover(shard.index)
        if any(shard.alive for shard in self._shards):
            self.call_after(self._heartbeat_interval, self._monitor_tick)
        else:
            self._monitor_running = False

    def _failover(self, shard_index: int) -> FailoverEvent:
        shard = self._shards[shard_index]
        if not shard.alive:
            raise ValueError(f"shard {shard_index} already failed over")
        # prefer healthy shards; crashed-but-undetected ones are a last
        # resort (their backlog carries the replay until their own failover)
        survivors = [
            other.index
            for other in self._shards
            if other.alive and not other.crashed and other.index != shard_index
        ]
        if not survivors:
            survivors = [
                other.index for other in self._shards if other.alive and other.index != shard_index
            ]
        if not survivors:
            raise ValueError("cannot fail over the last alive shard")
        shard.crashed = True
        shard.alive = False
        shard.sequencer.halt()

        moved = self._router.drain(shard_index, survivors)
        for client_id, target in moved.items():
            self._shards[target].sequencer.register_client(
                client_id, self._distributions[client_id]
            )

        # the dead shard is never flushed again, so replaying its pending and
        # backlogged items into the survivors cannot double-count them; the
        # replay bypasses the exactly-once gate (the items were already
        # admitted once) but still respects a crashed target's backlog
        replayed = 0
        backlog = shard.backlog
        shard.backlog = []
        for item in list(shard.sequencer.pending_messages) + backlog:
            replayed += int(isinstance(item, TimestampedMessage))
            self._route(item, self.now)

        event = FailoverEvent(
            shard=shard_index,
            detected_at=self.now,
            clients_moved=len(moved),
            messages_replayed=replayed,
        )
        self._failover_events.append(event)
        return event

    @property
    def rejoin_events(self) -> List[RejoinEvent]:
        """Shard rejoins performed so far."""
        return list(self._rejoin_events)

    def rejoin_shard(self, shard_index: int, clients: Sequence[str] = ()) -> RejoinEvent:
        """Bring a failed-over shard back with a fresh sequencer process.

        The crashed incarnation's emitted batches are retired into the
        shard's history (they remain part of the cluster-wide merge); the
        fresh sequencer starts empty and, when ``clients`` are given, those
        clients are reclaimed from their failover owners (new arrivals route
        here; messages already pending on the temporary owner are emitted
        there and ordered by the cross-shard merge).  Heartbeats and the
        emission subscription are re-armed.
        """
        shard = self._shards[shard_index]
        if shard.alive and not shard.crashed:
            raise ValueError(f"shard {shard_index} is alive; nothing to rejoin")
        if shard.alive and shard.crashed:
            # crashed but not yet detected: complete the failover first so
            # pending and backlog replay onto the survivors, not the fresh
            # process (which never saw them)
            self._failover(shard_index)

        self._retired_engine_stats = self._retired_engine_stats.merge(
            shard.sequencer.engine_stats()
        )
        shard.retired.extend(shard.sequencer.emitted_batches)
        shard.generation += 1

        reclaimed = [client_id for client_id in clients if client_id in self._distributions]
        sequencer = OnlineTommySequencer(
            self._loop,
            {client_id: self._distributions[client_id] for client_id in reclaimed},
            config=self._config,
            known_clients=reclaimed,
            name=f"{self.name}-shard-{shard_index}-gen{shard.generation}",
            telemetry=self._telemetry,
            shard_index=shard_index,
        )
        shard.sequencer = sequencer
        shard.backlog = []
        shard.alive = True
        shard.crashed = False
        shard.last_heartbeat = self.now
        for client_id in reclaimed:
            self._router.reassign(client_id, shard_index)
        sequencer.subscribe_emissions(self._emission_observer(shard_index))
        if self._heartbeat_interval is not None:
            self.call_after(
                self._heartbeat_interval,
                self._shard_heartbeat_tick,
                shard_index,
                shard.generation,
            )
            if not self._monitor_running:
                self.call_after(self._heartbeat_interval, self._monitor_tick)
                self._monitor_running = True

        event = RejoinEvent(
            shard=shard_index, rejoined_at=self.now, clients_reclaimed=len(reclaimed)
        )
        self._rejoin_events.append(event)
        return event

    # ---------------------------------------------------------------- results
    def pending_messages(self) -> List[TimestampedMessage]:
        """Messages received by live shards but not yet emitted."""
        pending: List[TimestampedMessage] = []
        for shard in self._shards:
            if shard.alive:
                pending.extend(shard.sequencer.pending_messages)
        return pending

    def flush(self) -> None:
        """Force-emit everything still pending on live shards."""
        for shard in self._shards:
            if shard.alive:
                shard.sequencer.flush()

    def shard_batches(self) -> List[List[SequencedBatch]]:
        """Per-shard emitted batch streams (inputs to the merge).

        A shard that crashed and rejoined contributes its retired history
        followed by the fresh incarnation's emissions — the same stream the
        streaming merger observed live.
        """
        return [
            [emitted.batch for emitted in shard.retired]
            + [emitted.batch for emitted in shard.sequencer.emitted_batches]
            for shard in self._shards
        ]

    def emitted_counts(self) -> List[int]:
        """Number of messages emitted by each shard (all incarnations)."""
        return [
            sum(emitted.batch.size for emitted in shard.retired)
            + sum(emitted.batch.size for emitted in shard.sequencer.emitted_batches)
            for shard in self._shards
        ]

    def engine_stats(self) -> EngineStats:
        """Cluster-wide engine counters: every shard plus the merger.

        Reading the merger's settles the streaming merger's pending rows first.
        """
        combined = self._retired_engine_stats
        for shard in self._shards:
            combined = combined.merge(shard.sequencer.engine_stats())
        return combined.merge(self._merger.engine_stats)

    def merge(self) -> MergeOutcome:
        """Merge every shard's emitted batches into the cluster-wide order.

        The offline parity oracle: reprices the whole merge from the emitted
        streams, whatever the topology (a merge tree attributes pairs, it
        does not price them), and adds that repricing to the merger's
        counters.  :meth:`live_merge` linearises the incrementally maintained
        state instead and is byte-identical.
        """
        return self._merger.merge(self.shard_batches())

    def live_merge(self) -> MergeOutcome:
        """The cluster-wide order from the live streaming merger.

        Cross-shard batch pairs are priced in blocks while the shards emit,
        so this prices at most the one pending block and then linearises and
        coalesces maintained state — no re-merge of the full history.
        """
        return self._streaming.result()

    def result(self) -> SequencingResult:
        """The merged cluster-wide order as a :class:`SequencingResult`.

        Linearises the live merge, so repeated calls price nothing new.
        """
        outcome = self.live_merge()
        metadata = dict(outcome.result.metadata)
        metadata.update(
            {
                "sequencer": "tommy-cluster",
                "num_shards": self.num_shards,
                "policy": self._router.policy.name,
                "failovers": len(self._failover_events),
                "rejoins": len(self._rejoin_events),
                "duplicates_suppressed": self._gate.duplicates_suppressed,
                "engine": self.engine_stats().as_dict(),
                "learning": self.learning_stats(),
            }
        )
        return SequencingResult(batches=outcome.result.batches, metadata=metadata)

    def emission_latencies(self) -> List[float]:
        """Generation-to-emission latencies across every shard (all incarnations)."""
        latencies: List[float] = []
        for shard in self._shards:
            for emitted in shard.retired:
                latencies.extend(emitted.emission_latencies())
            latencies.extend(shard.sequencer.emission_latencies())
        return latencies

    def emitted_batches(self) -> List[EmittedBatch]:
        """All per-shard emitted batches (unmerged), shard-major order."""
        batches: List[EmittedBatch] = []
        for shard in self._shards:
            batches.extend(shard.retired)
            batches.extend(shard.sequencer.emitted_batches)
        return batches

    def observability_report(self) -> Dict[str, object]:
        """One unified snapshot of every stats surface the cluster owns.

        Folds the engine counters, learning accounting, event-loop stats and
        cluster topology into a single nested dictionary; with telemetry
        injected, the full metrics-registry snapshot (including any attached
        chaos/refresh sources) rides along under ``"telemetry"``.
        """
        report: Dict[str, object] = {
            "cluster": {
                "num_shards": self.num_shards,
                "alive_shards": self.alive_shards,
                "policy": self._router.policy.name,
                "failovers": len(self._failover_events),
                "rejoins": len(self._rejoin_events),
                "duplicates_suppressed": self._gate.duplicates_suppressed,
                # exactly-once gate memory: with delivery-horizon pruning
                # (the default) the retained set is bounded by the per-client
                # in-flight window; keys below a client's delivered-sequence
                # horizon are released and re-deliveries in the pruned region
                # are rejected by the horizon comparison alone.  The warning
                # flag now only trips when pruning is off or ineffective
                # (no usable per-client sequence numbers)
                "dedupe_seen_keys": self._gate.seen_key_count,
                "dedupe_keys_pruned": self._gate.keys_pruned,
                "dedupe_growth_warning": (
                    self._gate.enabled
                    and self._gate.seen_key_count > self.DEDUPE_WARN_THRESHOLD
                ),
                "emitted_counts": self.emitted_counts(),
            },
            "engine": self.engine_stats().as_dict(),
            "learning": self.learning_stats(),
            # scheduler stats when the substrate exposes them (the sim loop
            # does; a protocol-only scheduler may not)
            "loop": self._loop.as_dict() if hasattr(self._loop, "as_dict") else {},
            "merge": self.merge_report(),
        }
        if self._obs.enabled and self._obs.registry is not None:
            report["telemetry"] = self._obs.registry.snapshot()
        return report
