"""Cluster-wide live learning: per-shard refresh + merger re-pricing."""

import numpy as np
import pytest

from repro.cluster.sharded import ShardedSequencer
from repro.core.config import TommyConfig
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop
from repro.workloads.learned import synthesize_probe


def build_cluster(num_clients=8, num_shards=2):
    loop = EventLoop()
    distributions = {
        f"client-{i:02d}": GaussianDistribution(0.0, 5.0) for i in range(num_clients)
    }
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=num_shards,
        config=TommyConfig(p_safe=0.99, completeness_mode="none", convolution_points=512),
    )
    return loop, cluster


def test_update_client_distribution_reaches_owner_shard_and_merger():
    loop, cluster = build_cluster()
    client = "client-03"
    refreshed = EmpiricalDistribution.from_samples(
        np.random.default_rng(0).normal(0.0, 0.01, 200), bins=64
    )
    cluster.update_client_distribution(client, refreshed)
    owner = cluster.router.assign(client)
    assert cluster.sequencer_of(owner).model.distribution_for(client) is refreshed
    assert cluster.streaming_merger.model.distribution_for(client) is refreshed
    assert cluster.learning_stats()["distribution_refreshes"] == 1
    assert cluster.learning_stats()["per_shard_refreshes"][owner] == 1
    with pytest.raises(KeyError):
        cluster.update_client_distribution("ghost", refreshed)


def test_attached_refresh_loop_feeds_the_cluster():
    loop, cluster = build_cluster()
    refresh = cluster.attach_learning(refresh_every=8, min_observations=4)
    assert cluster.refresh_loop is refresh
    rng = np.random.default_rng(1)
    for _ in range(8):
        cluster.observe_probe(synthesize_probe("client-01", float(rng.normal(0, 0.01)), 0.001))
    stats = cluster.learning_stats()
    assert stats["refreshes"] == 1
    assert stats["distribution_refreshes"] == 1
    # the learned (tight) estimate replaced the wide prior on the owner shard
    owner = cluster.router.assign("client-01")
    learned = cluster.sequencer_of(owner).model.distribution_for("client-01")
    assert isinstance(learned, EmpiricalDistribution)
    assert learned.std < 1.0


def test_observe_probe_requires_attached_loop():
    loop, cluster = build_cluster()
    with pytest.raises(ValueError):
        cluster.observe_probe(synthesize_probe("client-00", 0.0, 0.001))


def test_refreshed_cluster_sequences_and_merges():
    """End to end: refresh distributions, stream messages, merge shards."""
    loop, cluster = build_cluster(num_clients=6, num_shards=2)
    cluster.attach_learning(refresh_every=8, min_observations=4)
    rng = np.random.default_rng(2)
    clients = sorted(f"client-{i:02d}" for i in range(6))
    for client in clients:
        for _ in range(8):
            cluster.observe_probe(
                synthesize_probe(client, float(rng.normal(0.0, 0.05)), 0.001)
            )
    t = 0.0
    for k in range(30):
        t += float(rng.exponential(0.05))
        client = clients[int(rng.integers(6))]
        loop.schedule_at(
            t,
            cluster.receive,
            TimestampedMessage(
                client_id=client,
                timestamp=t + float(rng.normal(0.0, 0.05)),
                true_time=t,
                message_id=930_000 + k,
            ),
        )
    loop.run(until=t + 20.0)
    cluster.flush()
    result = cluster.result()
    assert sum(batch.size for batch in result.batches) == 30
    assert result.metadata["learning"]["refreshes"] == 6
    # every shard sequenced with learned (empirical) distributions: the
    # engines price pairs through tables, never scalar fallbacks
    assert cluster.engine_stats().scalar_evaluations == 0
    assert cluster.engine_stats().table_evaluations > 0


def test_direct_model_registration_does_not_serve_stale_merge_tables():
    """Regression: refreshing a client through ``merger.model.register_client``
    (the pre-learning registration path) must invalidate the merger's cached
    difference-CDF tables, not silently re-serve the old distribution."""
    from merge_reference import batch_precedence

    from repro.network.message import SequencedBatch

    loop, cluster = build_cluster(num_clients=4, num_shards=2)
    merger = cluster.streaming_merger
    rng = np.random.default_rng(3)
    for client in ("client-00", "client-01"):
        merger.model.register_client(
            client, EmpiricalDistribution.from_samples(rng.normal(0.0, 0.2, 200), bins=64)
        )
    batch_a = SequencedBatch(
        rank=0,
        messages=(TimestampedMessage("client-00", 10.0, message_id=940_001),),
    )
    batch_b = SequencedBatch(
        rank=0,
        messages=(TimestampedMessage("client-01", 10.05, message_id=940_002),),
    )
    # priced through the merger's own table cache, as its kernel reads it
    before = batch_precedence(batch_a, batch_b, merger.model, tables=merger._tables)
    # refresh through the model directly (bypassing merger.register_client)
    merger.model.register_client(
        "client-00",
        EmpiricalDistribution.from_samples(rng.normal(2.0, 0.1, 200), bins=64),
    )
    after = batch_precedence(batch_a, batch_b, merger.model, tables=merger._tables)
    # eps = reported - true, so client-00's timestamps now run two units
    # ahead of true time: message a was truly generated ~2 units before b
    # and the refreshed table must price that as near certainty
    assert after != before
    assert after > 0.9
