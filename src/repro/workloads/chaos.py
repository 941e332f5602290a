"""The chaos workload: a live sharded cluster under a fault schedule.

Unlike the offline replay workloads, this one drives the *full* live stack —
client endpoints with steppable clocks, per-client channels with fault
hooks, per-shard transports, the heartbeat-monitored sharded cluster with
exactly-once intake and streaming cross-shard merge, plus a probe-driven
learning loop — and injects a :class:`~repro.chaos.faults.FaultSchedule`
through the :class:`~repro.chaos.controller.ChaosController`.

:func:`standard_fault_schedule` maps a fault *name* and an *intensity* knob
onto concrete primitives sized relative to the run (clock spread, network
delay, message gap), so the chaos sweep can compare degradation across
fault families on one axis.  Everything is seeded: the same
``(fault, intensity, shards, clients, seed)`` tuple produces a
bit-identical :class:`ChaosReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.controller import ChaosController
from repro.chaos.faults import (
    ClockStep,
    DelaySpike,
    Fault,
    FaultSchedule,
    LinkPartition,
    MessageDuplication,
    MessageLoss,
    MessageReorder,
    ShardCrash,
    SyncBlackout,
)
from repro.clocks.drift import SteppedDrift
from repro.clocks.local import LocalClock
from repro.cluster.harness import ClusterTransport
from repro.cluster.merge import merge_fingerprint
from repro.cluster.sharded import ShardedSequencer
from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.metrics.ras import rank_agreement_score
from repro.network.link import UniformJitterDelay
from repro.simulation.event_loop import EventLoop
from repro.simulation.random_source import RandomSource
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.learned import synthesize_probe

#: Fault names understood by :func:`standard_fault_schedule`, in report order.
FAULT_NAMES = (
    "none",
    "partition",
    "blackhole",
    "loss",
    "duplication",
    "reorder",
    "delay",
    "clock_step",
    "blackout",
    "crash",
)


@dataclass(frozen=True)
class ChaosReport:
    """Deterministic outcome of one chaos run (no wall-clock fields)."""

    fault: str
    intensity: float
    shards: int
    clients: int
    seed: int
    messages_sent: int
    messages_delivered: int
    messages_lost: int
    messages_duplicated: int
    duplicates_suppressed: int
    messages_held: int
    messages_delayed: int
    clock_steps: int
    probes_suppressed: int
    distribution_refreshes: int
    failovers: int
    rejoins: int
    messages_replayed: int
    merged_batches: int
    merged_cross_shard: int
    pruned_pairs: int
    exactly_once: bool
    streaming_parity: bool
    ras_normalized: float

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary for report tables (identical for identical seeds)."""
        return {
            "fault": self.fault,
            "intensity": self.intensity,
            "shards": self.shards,
            "clients": self.clients,
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "lost": self.messages_lost,
            "duplicated": self.messages_duplicated,
            "dup_suppressed": self.duplicates_suppressed,
            "held": self.messages_held,
            "delayed": self.messages_delayed,
            "clock_steps": self.clock_steps,
            "probes_suppressed": self.probes_suppressed,
            "refreshes": self.distribution_refreshes,
            "failovers": self.failovers,
            "rejoins": self.rejoins,
            "replayed": self.messages_replayed,
            "batches": self.merged_batches,
            "merged_cross_shard": self.merged_cross_shard,
            "pruned_pairs": self.pruned_pairs,
            "exactly_once": self.exactly_once,
            "streaming_parity": self.streaming_parity,
            "ras_normalized": round(self.ras_normalized, 4),
        }


@dataclass(frozen=True)
class ChaosSettings:
    """Shape of the underlying healthy workload (faults come on top)."""

    num_clients: int = 24
    num_shards: int = 4
    messages_per_client: int = 4
    gap: float = 25e-3
    clock_std: float = 15e-3
    base_delay: float = 2e-3
    delay_jitter: float = 1e-3
    probes_per_client: int = 32
    heartbeat_interval: Optional[float] = None  # defaults to ``gap``
    seed: int = 7
    merge_topology: str = "flat"
    merge_fanout: int = 2

    def __post_init__(self) -> None:
        if self.num_clients < 2:
            raise ValueError("num_clients must be at least 2")
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if self.messages_per_client < 1:
            raise ValueError("messages_per_client must be at least 1")


def standard_fault_schedule(
    fault: str,
    intensity: float,
    horizon: float,
    client_ids: Tuple[str, ...],
    settings: ChaosSettings,
) -> FaultSchedule:
    """The named fault family scaled by ``intensity`` over ``[0, horizon]``.

    Windows sit mid-run (so healthy behaviour brackets the fault), blast
    radii and magnitudes grow with ``intensity``, and magnitudes are sized
    relative to the workload (clock spread / network delay / message gap) so
    one intensity axis is comparable across fault families.
    """
    if fault not in FAULT_NAMES:
        raise ValueError(f"unknown fault {fault!r}; expected one of {FAULT_NAMES}")
    if intensity <= 0:
        raise ValueError(f"intensity must be positive, got {intensity!r}")
    if fault == "none":
        return FaultSchedule([])

    start = 0.3 * horizon
    duration = min((0.2 + 0.2 * intensity) * horizon, 0.65 * horizon)
    subset = client_ids[: max(2, math.ceil(len(client_ids) * min(0.25 * intensity, 0.75)))]
    faults: List[Fault] = []
    if fault == "partition":
        faults.append(LinkPartition(start=start, duration=duration, clients=subset, mode="hold"))
    elif fault == "blackhole":
        faults.append(LinkPartition(start=start, duration=duration, clients=subset, mode="drop"))
    elif fault == "loss":
        probability = min(0.15 * intensity, 0.9)
        faults.append(MessageLoss(start=start, duration=duration, probability=probability))
    elif fault == "duplication":
        probability = min(0.25 * intensity, 0.9)
        faults.append(MessageDuplication(start=start, duration=duration, probability=probability))
    elif fault == "reorder":
        faults.append(
            MessageReorder(start=start, duration=duration, jitter=2.0 * settings.gap * intensity)
        )
    elif fault == "delay":
        faults.append(
            DelaySpike(
                start=start,
                duration=duration,
                clients=subset,
                extra_delay=10.0 * settings.base_delay * intensity,
            )
        )
    elif fault == "clock_step":
        step = 4.0 * settings.clock_std * intensity
        faults.append(ClockStep(start=0.4 * horizon, clients=subset, step=step))
        faults.append(ClockStep(start=0.6 * horizon, clients=subset[:1], step=-0.5 * step))
    elif fault == "blackout":
        # a clock step the learning loop *cannot* see: probes black out over
        # the step, so refreshed distributions go stale exactly when needed
        step = 4.0 * settings.clock_std * intensity
        faults.append(ClockStep(start=0.4 * horizon, clients=subset, step=step))
        faults.append(SyncBlackout(start=0.3 * horizon, duration=0.6 * horizon, clients=subset))
    elif fault == "crash":
        if settings.num_shards < 2:
            raise ValueError("the crash fault needs at least 2 shards to fail over")
        heartbeat = settings.heartbeat_interval if settings.heartbeat_interval else settings.gap
        rejoin_after = max(0.25 * horizon, 8.0 * heartbeat)
        faults.append(
            ShardCrash(
                start=start, shard=settings.num_shards - 1, rejoin_after=rejoin_after
            )
        )
        if intensity >= 2.0 and settings.num_shards >= 3:
            faults.append(ShardCrash(start=0.55 * horizon, shard=0))
    return FaultSchedule(faults)


def run_chaos_scenario(
    fault: str = "partition",
    intensity: float = 1.0,
    settings: Optional[ChaosSettings] = None,
    learning: bool = True,
    telemetry=None,
) -> ChaosReport:
    """Run one live cluster scenario under the named fault and score it.

    The merged cluster-wide order is scored (RAS) against the ground truth
    of the messages that *reached* it — lost messages are reported, not
    scored — and checked for exactly-once delivery plus streaming/offline
    merge parity.  Deterministic: same arguments, same report.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) is measurement-only: it
    is threaded into every instrumented component but consumes no RNG draws
    and alters no scheduling, so the report is bit-identical with or without
    it (parity-tested in ``tests/obs``).
    """
    settings = settings if settings is not None else ChaosSettings()
    source = RandomSource(settings.seed)
    workload_rng = source.stream("chaos:workload")

    client_ids = tuple(f"client-{index:03d}" for index in range(settings.num_clients))
    distributions = {
        client_id: GaussianDistribution(
            float(workload_rng.normal(0.0, 0.1 * settings.clock_std)),
            max(float(workload_rng.uniform(0.4, 1.2)) * settings.clock_std, 1e-9),
        )
        for client_id in client_ids
    }
    arrivals = UniformGapArrivals(
        messages_per_client=settings.messages_per_client, gap=settings.gap, jitter_fraction=0.3
    ).generate(client_ids, workload_rng)
    horizon = max(max(times) for times in arrivals.values() if times)
    heartbeat = settings.heartbeat_interval if settings.heartbeat_interval else settings.gap
    schedule = standard_fault_schedule(fault, intensity, horizon, client_ids, settings)

    max_network_delay = 2.0 * (settings.base_delay + settings.delay_jitter)
    loop = EventLoop()
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=settings.num_shards,
        config=TommyConfig(
            completeness_mode="bounded_delay",
            max_network_delay=max_network_delay,
            seed=settings.seed,
        ),
        heartbeat_interval=heartbeat,
        heartbeat_timeout=3.0 * heartbeat,
        dedupe_intake=True,
        telemetry=telemetry,
        merge_topology=settings.merge_topology,
        merge_fanout=settings.merge_fanout,
    )
    transport = ClusterTransport(loop, cluster, source.stream, telemetry=telemetry)
    drifts: Dict[str, SteppedDrift] = {}
    controller = ChaosController(
        loop, schedule, seed=source.spawn("chaos:faults").seed, telemetry=telemetry
    )
    for client_id in client_ids:
        drift = SteppedDrift()
        drifts[client_id] = drift
        clock = LocalClock(
            loop,
            distributions[client_id],
            source.stream(f"clock:{client_id}"),
            drift=drift,
        )
        transport.add_client(
            client_id,
            clock,
            delay_model=UniformJitterDelay(settings.base_delay, settings.delay_jitter),
            ordered=True,
        )
        controller.register_clock(client_id, drift)
    transport.install_chaos(controller)
    controller.arm()

    endpoints = transport.clients()
    for client_id, times in arrivals.items():
        for when in times:
            loop.schedule_at(when, endpoints[client_id].send, None)

    if learning:
        cluster.attach_learning(method="empirical", window=64, refresh_every=8)
        probe_rng = source.stream("chaos:probes")
        probe_gap = max(horizon, 1e-9) / settings.probes_per_client

        def feed_probe(client_id: str, when: float) -> None:
            if not controller.probe_allowed(client_id, when):
                return
            offset = float(distributions[client_id].sample(probe_rng))
            offset += drifts[client_id].offset_at(when)
            round_trip = 2.0 * settings.base_delay * float(probe_rng.uniform(0.8, 1.2))
            cluster.observe_probe(synthesize_probe(client_id, offset, round_trip, when=when))

        for client_id in client_ids:
            for index in range(settings.probes_per_client):
                when = (index + 0.5) * probe_gap
                loop.schedule_at(when, feed_probe, client_id, when)

    end = max(horizon, schedule.horizon) + max_network_delay + 10.0 * settings.gap
    loop.run(until=end)
    cluster.flush()

    merge = cluster.merge()
    streaming_parity = merge_fingerprint(cluster.live_merge()) == merge_fingerprint(merge)

    merged_keys = [
        message.key for batch in merge.result.batches for message in batch.messages
    ]
    delivered_keys = set(merged_keys)
    sent_messages = [
        message
        for client_id in client_ids
        for message in endpoints[client_id].sent_messages
    ]
    delivered_messages = [message for message in sent_messages if message.key in delivered_keys]
    ras = rank_agreement_score(merge.result, delivered_messages)

    stats = controller.stats
    obs_report = cluster.observability_report()
    cluster_snapshot = obs_report["cluster"]
    learning_snapshot = obs_report["learning"]
    return ChaosReport(
        fault=fault,
        intensity=float(intensity),
        shards=settings.num_shards,
        clients=settings.num_clients,
        seed=settings.seed,
        messages_sent=len(sent_messages),
        messages_delivered=len(delivered_messages),
        messages_lost=len(sent_messages) - len(delivered_messages),
        messages_duplicated=stats.messages_duplicated,
        duplicates_suppressed=int(cluster_snapshot["duplicates_suppressed"]),
        messages_held=stats.messages_held,
        messages_delayed=stats.messages_delayed,
        clock_steps=stats.clock_steps,
        probes_suppressed=stats.probes_suppressed,
        distribution_refreshes=int(learning_snapshot["distribution_refreshes"]),
        failovers=int(cluster_snapshot["failovers"]),
        rejoins=int(cluster_snapshot["rejoins"]),
        messages_replayed=sum(event.messages_replayed for event in cluster.failover_events),
        merged_batches=merge.batch_count,
        merged_cross_shard=merge.merged_cross_shard,
        pruned_pairs=merge.cross_pairs_pruned,
        exactly_once=len(merged_keys) == len(delivered_keys),
        streaming_parity=streaming_parity,
        ras_normalized=ras.normalized_score,
    )
