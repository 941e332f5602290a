"""Failover under live streaming merge, driven through the chaos hooks.

The contract: killing a shard mid-stream (heartbeat detection, client
drain, pending replay onto survivors — and optionally a rejoin with a
fresh sequencer) must leave every delivered message in the merged
cluster-wide order exactly once, with the incrementally maintained
streaming merge byte-identical to the offline ``merge()`` re-merge.
"""

import numpy as np
import pytest

from repro.chaos import ChaosController, FaultSchedule, ShardCrash
from repro.clocks.local import LocalClock
from repro.cluster import ClusterTransport, LoadAwareSharding, ShardedSequencer
from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop
from repro.simulation.random_source import RandomSource


def fingerprint(outcome):
    return [
        (batch.rank, tuple(message.key for message in batch.messages))
        for batch in outcome.result.batches
    ]


def build_live_cluster(schedule, num_clients=10, num_shards=2, seed=23, max_delay=10.0):
    """A live transport-driven cluster with the chaos schedule armed.

    ``max_delay`` large keeps arrivals pending (safe-emission waits), so a
    crash finds undrained messages to replay.
    """
    loop = EventLoop()
    source = RandomSource(seed)
    rng = source.stream("workload")
    distributions = {
        f"c{i:02d}": GaussianDistribution(0.0, float(rng.uniform(0.002, 0.01)))
        for i in range(num_clients)
    }
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=num_shards,
        policy=LoadAwareSharding(),
        config=TommyConfig(completeness_mode="bounded_delay", max_network_delay=max_delay),
        heartbeat_interval=0.05,
        heartbeat_timeout=0.12,
        dedupe_intake=True,
    )
    transport = ClusterTransport(loop, cluster, source.stream)
    for client_id, distribution in distributions.items():
        transport.add_client(
            client_id, LocalClock(loop, distribution, source.stream(f"clock:{client_id}"))
        )
    controller = ChaosController(loop, schedule, seed=seed)
    transport.install_chaos(controller)
    controller.arm()
    return loop, cluster, transport, controller


def send_stream(loop, transport, gap=0.02, per_client=4):
    endpoints = transport.clients()
    for position, client_id in enumerate(sorted(endpoints)):
        for index in range(per_client):
            when = position * gap / len(endpoints) + index * gap
            loop.schedule_at(when, endpoints[client_id].send, None)
    return endpoints


def all_sent(endpoints):
    return [
        message
        for client_id in sorted(endpoints)
        for message in endpoints[client_id].sent_messages
    ]


def test_shard_killed_midstream_replays_exactly_once_with_streaming_parity():
    schedule = FaultSchedule([ShardCrash(start=0.04, shard=0)])
    loop, cluster, transport, controller = build_live_cluster(schedule)
    endpoints = send_stream(loop, transport)
    loop.run(until=2.0)
    cluster.flush()

    assert controller.stats.shard_crashes == 1
    assert len(cluster.failover_events) == 1
    event = cluster.failover_events[0]
    assert event.messages_replayed > 0  # the crash caught undrained messages

    offline = cluster.merge()
    live = cluster.live_merge()
    assert fingerprint(live) == fingerprint(offline)

    sent = all_sent(endpoints)
    merged_keys = [
        message.key for batch in offline.result.batches for message in batch.messages
    ]
    # exactly once: nothing lost, nothing double-sequenced through the replay
    assert sorted(merged_keys) == sorted(message.key for message in sent)
    assert len(merged_keys) == len(set(merged_keys))


def test_crash_then_rejoin_keeps_history_and_parity():
    # crash after the shard has emitted (history to retire), rejoin after
    # heartbeat detection (~crash + timeout + monitor period), with traffic
    # continuing past the rejoin so the fresh incarnation emits too
    schedule = FaultSchedule([ShardCrash(start=0.12, shard=1, rejoin_after=0.3)])
    loop, cluster, transport, controller = build_live_cluster(schedule, max_delay=0.05)
    endpoints = send_stream(loop, transport, gap=0.06, per_client=10)
    loop.run(until=3.0)
    cluster.flush()

    assert controller.stats.shard_crashes == 1
    assert controller.stats.shard_rejoins == 1
    assert len(cluster.rejoin_events) == 1
    rejoined = cluster.shards[1]
    assert rejoined.alive and not rejoined.crashed
    assert rejoined.generation == 1
    # pre-crash emissions were retired into the shard's history and the
    # fresh incarnation emitted on top of them
    assert rejoined.retired, "pre-crash emissions must be retired, not lost"
    assert len(cluster.shard_batches()[1]) > len(rejoined.retired)

    offline = cluster.merge()
    live = cluster.live_merge()
    assert fingerprint(live) == fingerprint(offline)

    sent = all_sent(endpoints)
    merged_keys = [
        message.key for batch in offline.result.batches for message in batch.messages
    ]
    assert sorted(merged_keys) == sorted(message.key for message in sent)
    assert len(merged_keys) == len(set(merged_keys))


def test_rejoined_shard_accepts_reclaimed_client_traffic():
    loop = EventLoop()
    distributions = {f"c{i}": GaussianDistribution(0.0, 0.001) for i in range(4)}
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=2,
        policy=LoadAwareSharding(),
        config=TommyConfig(completeness_mode="none"),
    )
    victims = cluster.router.clients_of(0)
    cluster.force_failover(0)
    event = cluster.rejoin_shard(0, clients=victims)
    assert event.clients_reclaimed == len(victims)
    assert cluster.router.clients_of(0) == sorted(victims)
    message = TimestampedMessage(client_id=victims[0], timestamp=0.1, true_time=0.1)
    cluster.receive(message, arrival_time=0.1)
    assert [m.key for m in cluster.sequencer_of(0).pending_messages] == [message.key]
    cluster.flush()
    assert fingerprint(cluster.live_merge()) == fingerprint(cluster.merge())


def test_rejoin_requires_a_crashed_shard():
    loop = EventLoop()
    distributions = {f"c{i}": GaussianDistribution(0.0, 0.001) for i in range(4)}
    cluster = ShardedSequencer(loop, distributions, num_shards=2)
    with pytest.raises(ValueError):
        cluster.rejoin_shard(0)


def test_dedupe_intake_suppresses_duplicates_but_not_replay():
    loop = EventLoop()
    distributions = {f"c{i}": GaussianDistribution(0.0, 0.001) for i in range(4)}
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=2,
        policy=LoadAwareSharding(),
        config=TommyConfig(completeness_mode="bounded_delay", max_network_delay=10.0),
        dedupe_intake=True,
    )
    message = TimestampedMessage(client_id="c0", timestamp=0.01, true_time=0.01)
    cluster.receive(message, arrival_time=0.01)
    cluster.receive(message, arrival_time=0.02)  # duplicated delivery
    assert cluster.duplicates_suppressed == 1
    owner = cluster.router.shard_of("c0")
    assert len(cluster.sequencer_of(owner).pending_messages) == 1
    # failover replay re-routes the same (already seen) message without loss
    cluster.force_failover(owner)
    assert cluster.failover_events[0].messages_replayed == 1
    survivor = 1 - owner
    assert [m.key for m in cluster.sequencer_of(survivor).pending_messages] == [message.key]
    assert cluster.duplicates_suppressed == 1


def test_stale_channel_to_rejoined_shard_reroutes_non_reclaimed_clients():
    # a shard rejoins WITHOUT reclaiming its old clients; deliveries still
    # addressed to it (stale channels target their original shard forever)
    # must reroute to the clients' current owners instead of crashing the
    # fresh sequencer with an unknown client
    loop = EventLoop()
    distributions = {f"c{i}": GaussianDistribution(0.0, 0.001) for i in range(4)}
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=2,
        policy=LoadAwareSharding(),
        config=TommyConfig(completeness_mode="bounded_delay", max_network_delay=10.0),
    )
    victims = cluster.router.clients_of(1)
    cluster.force_failover(1)
    cluster.rejoin_shard(1)  # nobody reclaimed
    message = TimestampedMessage(client_id=victims[0], timestamp=0.1, true_time=0.1)
    cluster.receive_at(1, message, arrival_time=0.1)
    owner = cluster.router.shard_of(victims[0])
    assert owner == 0
    assert [m.key for m in cluster.sequencer_of(0).pending_messages] == [message.key]
    assert cluster.sequencer_of(1).pending_messages == []
    cluster.flush()
    assert fingerprint(cluster.live_merge()) == fingerprint(cluster.merge())


def test_rejoin_does_not_double_arm_the_heartbeat_loop():
    # a pre-crash heartbeat tick still pending at rejoin time must die with
    # its generation instead of running a second permanent timer loop
    loop = EventLoop()
    distributions = {f"c{i}": GaussianDistribution(0.0, 0.001) for i in range(4)}
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=2,
        policy=LoadAwareSharding(),
        config=TommyConfig(completeness_mode="none"),
        heartbeat_interval=0.05,
        heartbeat_timeout=0.12,
    )
    loop.run(until=0.2)
    cluster.force_failover(1)
    cluster.rejoin_shard(1)  # immediate rejoin: the old tick is still queued
    executed_before = loop.stats()["executed"]
    loop.run(until=2.2)
    # both shards tick at the same rate: one heartbeat + tick pair per shard
    # per interval plus the monitor (~3 events per interval, 40 intervals)
    executed = loop.stats()["executed"] - executed_before
    assert executed <= 3 * 40 + 10, f"{executed} events: duplicated heartbeat loop"
