"""Property tests for the incremental streaming cross-shard merger.

The contract: a :class:`StreamingMerger` observing per-shard batch streams
in *any* interleaving (respecting each shard's own rank order) produces
byte-identical output to the offline :meth:`CrossShardMerger.merge` over
the same streams — mid-stream and at the end, for Gaussian and grid-backed
clients, through the cyclic fallback, and across distribution refreshes.
"""

from unittest import mock

import numpy as np
import pytest
from merge_reference import reference_forward_matrix

from repro.cluster import merge as merge_module
from repro.cluster.merge import CrossShardMerger
from repro.cluster.sharded import ShardedSequencer
from repro.cluster.tree import MergeTopology
from repro.core import engine as engine_module
from repro.core.config import TommyConfig
from repro.core.probability import PrecedenceModel
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage
from repro.simulation.event_loop import EventLoop


def fingerprint(outcome):
    return [
        (
            batch.rank,
            tuple(message.key for message in batch.messages),
            batch.emitted_at,
        )
        for batch in outcome.result.batches
    ]


def build_model(num_shards, clients_per_shard, rng, empirical_fraction=0.0):
    model = PrecedenceModel()
    shard_clients = []
    for shard in range(num_shards):
        clients = []
        for local in range(clients_per_shard):
            client_id = f"s{shard}-c{local}"
            if rng.random() < empirical_fraction:
                samples = rng.normal(float(rng.normal(0, 0.002)), float(rng.uniform(0.002, 0.01)), 600)
                model.register_client(
                    client_id, EmpiricalDistribution.from_samples(samples, bins=64)
                )
            else:
                model.register_client(
                    client_id,
                    GaussianDistribution(
                        float(rng.normal(0, 0.002)), float(rng.uniform(0.002, 0.01))
                    ),
                )
            clients.append(client_id)
        shard_clients.append(clients)
    return model, shard_clients


def build_streams(shard_clients, batches_per_shard, rng, gap=0.015, spread=1.0, sizes=(1, 4)):
    streams = []
    message_id = int(rng.integers(40_000_000, 50_000_000))
    for shard, clients in enumerate(shard_clients):
        stream = []
        for index in range(batches_per_shard):
            base = index * gap + float(rng.uniform(0.0, spread * gap))
            messages = []
            for _ in range(int(rng.integers(*sizes))):
                timestamp = base + float(rng.uniform(0, 0.5 * gap))
                messages.append(
                    TimestampedMessage(
                        client_id=clients[int(rng.integers(len(clients)))],
                        timestamp=timestamp,
                        true_time=timestamp,
                        message_id=message_id,
                    )
                )
                message_id += 1
            stream.append(SequencedBatch(rank=index, messages=tuple(messages), emitted_at=base))
        streams.append(stream)
    return streams


def random_interleaving(streams, rng):
    cursors = [0] * len(streams)
    order = []
    while True:
        available = [s for s, stream in enumerate(streams) if cursors[s] < len(stream)]
        if not available:
            return order
        shard = available[int(rng.integers(len(available)))]
        order.append((shard, streams[shard][cursors[shard]]))
        cursors[shard] += 1


def observed_prefix(observations, count, num_shards):
    prefix = [[] for _ in range(num_shards)]
    for shard, batch in observations[:count]:
        prefix[shard].append(batch)
    return prefix


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("empirical_fraction", [0.0, 0.5])
def test_streaming_equals_offline_under_random_interleavings(seed, empirical_fraction):
    rng = np.random.default_rng(100 + seed)
    num_shards = 3
    model, shard_clients = build_model(num_shards, 2, rng, empirical_fraction)
    streams = build_streams(shard_clients, 5, rng)

    streaming = CrossShardMerger(model, seed=seed).streaming_merger(num_shards=num_shards)
    observations = random_interleaving(streams, rng)
    for position, (shard, batch) in enumerate(observations):
        streaming.observe_batch(shard, batch)
        if position % 4 == 3:  # mid-stream parity, batches in arbitrary shard order
            prefix = observed_prefix(observations, position + 1, num_shards)
            oracle = CrossShardMerger(model, seed=seed).merge(prefix)
            assert fingerprint(streaming.result()) == fingerprint(oracle)
    oracle = CrossShardMerger(model, seed=seed).merge(streams)
    live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    assert live.result.metadata["shards"] == oracle.result.metadata["shards"]
    assert live.merged_cross_shard == oracle.merged_cross_shard
    assert live.cycles_broken == oracle.cycles_broken


@pytest.mark.parametrize("empirical_fraction", [0.0, 1.0])
def test_streaming_matrix_is_bitwise_identical_to_offline_kernel(empirical_fraction):
    # not just the same order: the offline matrix and the maintained one must
    # both match the unpruned per-pair reference float for float, so threshold
    # comparisons can never diverge even at knife-edge probabilities
    rng = np.random.default_rng(42)
    num_shards = 3
    model, shard_clients = build_model(num_shards, 2, rng, empirical_fraction)
    streams = build_streams(shard_clients, 4, rng)
    reference = reference_forward_matrix(streams, model)
    offline = CrossShardMerger(model, seed=0)._priced(streams)
    assert np.array_equal(offline.forward_matrix(), reference, equal_nan=True)
    streaming = CrossShardMerger(model, seed=0).streaming_merger(num_shards=num_shards)
    for shard, batch in random_interleaving(streams, rng):
        streaming.observe_batch(shard, batch)
    assert np.array_equal(streaming.forward_matrix(), reference, equal_nan=True)


def test_streaming_parity_through_the_cyclic_fallback():
    # adversarial within-shard order forces a cycle (the Kahn pass stalls
    # and the matrix cycle breaker runs); parity must survive it
    model = PrecedenceModel()
    for client in ("a", "b"):
        model.register_client(client, GaussianDistribution(0.0, 0.5))
    shard0 = [
        SequencedBatch(rank=0, messages=(TimestampedMessage(client_id="a", timestamp=10.0),)),
        SequencedBatch(rank=1, messages=(TimestampedMessage(client_id="a", timestamp=0.0),)),
    ]
    shard1 = [SequencedBatch(rank=0, messages=(TimestampedMessage(client_id="b", timestamp=5.0),))]
    streams = [shard0, shard1]
    oracle = CrossShardMerger(model, seed=7).merge(streams)
    assert oracle.cycles_broken >= 1
    streaming = CrossShardMerger(model, seed=7).streaming_merger(num_shards=2)
    for shard, batch in [(1, shard1[0]), (0, shard0[0]), (0, shard0[1])]:
        streaming.observe_batch(shard, batch)
    assert fingerprint(streaming.result()) == fingerprint(oracle)
    assert streaming.result().cycles_broken == oracle.cycles_broken


@pytest.mark.parametrize("seed", [11, 12])
def test_merge_invariant_under_shard_index_permutation(seed):
    # permuting shard indices relabels the nodes; with distinct, separable
    # timestamps the deterministic tie-break never engages and the merged
    # message order is invariant
    rng = np.random.default_rng(seed)
    model, shard_clients = build_model(3, 2, rng)
    streams = build_streams(shard_clients, 4, rng, gap=0.2, spread=0.1)

    def merged_keys(shard_streams):
        outcome = CrossShardMerger(model, seed=0).merge(shard_streams)
        return [tuple(m.key for m in batch.messages) for batch in outcome.result.batches]

    baseline_keys = merged_keys(streams)
    for permutation in ([1, 2, 0], [2, 1, 0], [0, 2, 1]):
        permuted = [streams[shard] for shard in permutation]
        assert merged_keys(permuted) == baseline_keys


def test_streaming_refresh_client_reprices_pairs():
    rng = np.random.default_rng(5)
    model, shard_clients = build_model(2, 1, rng)
    streams = build_streams(shard_clients, 3, rng)
    streaming = CrossShardMerger(model, seed=0).streaming_merger(num_shards=2)
    for shard, batch in random_interleaving(streams, rng):
        streaming.observe_batch(shard, batch)
    # refresh one client mid-stream: a much wider clock error makes formerly
    # confident cross-shard pairs uncertain
    refreshed = "s0-c0"
    model.register_client(refreshed, GaussianDistribution(0.0, 5.0))
    repriced = streaming.refresh_client(refreshed)
    assert repriced > 0
    oracle = CrossShardMerger(model, seed=0).merge(streams)
    live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    # repricing replaces a pair's evaluated/pruned classification instead of
    # double-counting it, so the accounting matches the oracle too
    assert live.cross_pairs_pruned == oracle.cross_pairs_pruned
    assert live.cross_pairs_evaluated == oracle.cross_pairs_evaluated
    assert live.result.metadata == {
        **oracle.result.metadata,
        "merge_wall_seconds": live.result.metadata["merge_wall_seconds"],
    }


def test_closed_form_parameters_are_read_once_per_client_until_a_refresh():
    rng = np.random.default_rng(6)
    model, shard_clients = build_model(2, 2, rng)
    streams = build_streams(shard_clients, 6, rng)
    merger = CrossShardMerger(model, seed=0)
    streaming = merger.streaming_merger(num_shards=2)
    observations = random_interleaving(streams, rng)
    with mock.patch.object(
        engine_module, "_gaussian_params", wraps=engine_module._gaussian_params
    ) as derive:
        for shard, batch in observations[:6]:
            streaming.observe_batch(shard, batch)
    assert streaming.pending_nodes == 6  # nothing priced: every call was a row store
    messages = [message for _, batch in observations[:6] for message in batch.messages]
    assert derive.call_count == len({message.client_id for message in messages}) < len(messages)
    # a registration through the merger reaches the rows observed after it
    refreshed = messages[0].client_id
    wider = GaussianDistribution(0.0, 5.0)
    merger.register_client(refreshed, wider)
    for shard, batch in observations[6:]:
        streaming.observe_batch(shard, batch)
    assert streaming._client_params[refreshed] == (wider.mean, wider.variance)
    # a registration on the model alone is picked up by refresh_client
    narrower = GaussianDistribution(0.0, 0.001)
    model.register_client(refreshed, narrower)
    streaming.refresh_client(refreshed)
    assert streaming._client_params[refreshed] == (narrower.mean, narrower.variance)
    oracle = CrossShardMerger(model, seed=0).merge(streams)
    assert fingerprint(streaming.result()) == fingerprint(oracle)


def test_cluster_live_merge_matches_offline_merge():
    rng = np.random.default_rng(9)
    distributions = {
        f"client-{i}": GaussianDistribution(float(rng.normal(0, 0.002)), float(rng.uniform(0.004, 0.01)))
        for i in range(8)
    }
    loop = EventLoop()
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=2,
        config=TommyConfig(completeness_mode="none", p_safe=0.9),
    )
    clients = sorted(distributions)
    t = 0.0
    for k in range(60):
        t += float(rng.exponential(0.01))
        client = clients[int(rng.integers(len(clients)))]
        message = TimestampedMessage(client_id=client, timestamp=t, true_time=t)
        loop.schedule_at(t, cluster.receive, message)
    loop.run()
    cluster.flush()
    live = cluster.live_merge()
    offline = cluster.merge()
    assert fingerprint(live) == fingerprint(offline)
    assert live.result.metadata["shards"] == cluster.num_shards


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_refresh_pruning_is_bitwise_identical_to_full_repricing(seed):
    # window pruning must only skip pairs whose stored entry cannot move: the
    # refreshed state equals a fresh offline merge — every pair repriced from
    # scratch — over the refreshed model, float for float and count for count
    model, shard_clients = build_model(3, 2, np.random.default_rng(seed))
    # time-localised long streams: most history prunes against a refresh
    streams = build_streams(shard_clients, 24, np.random.default_rng(seed + 100), gap=0.05)
    streaming = CrossShardMerger(model, seed=seed).streaming_merger(num_shards=3)
    for shard, batch in random_interleaving(streams, np.random.default_rng(seed + 200)):
        streaming.observe_batch(shard, batch)
    refreshed = "s0-c0"
    model.register_client(refreshed, GaussianDistribution(0.001, 0.005))
    repriced = streaming.refresh_client(refreshed)

    full = CrossShardMerger(model, seed=seed)._priced(streams)
    assert np.array_equal(streaming.forward_matrix(), full.forward_matrix(), equal_nan=True)
    assert np.array_equal(
        streaming.forward_matrix(), reference_forward_matrix(streams, model), equal_nan=True
    )
    oracle = CrossShardMerger(model, seed=seed).merge(streams)
    live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    assert live.cross_pairs_evaluated == oracle.cross_pairs_evaluated
    assert live.cross_pairs_pruned == oracle.cross_pairs_pruned
    # the pruned refresh did strictly less work than repricing every pair of
    # a refreshed node, and counted exactly the pairs it skipped
    touched = [
        (shard, index)
        for shard, stream in enumerate(streams)
        for index, batch in enumerate(stream)
        if refreshed in batch.clients
    ]
    involved = {
        frozenset((node, (shard, index)))
        for node in touched
        for shard, stream in enumerate(streams)
        for index in range(len(stream))
        if shard != node[0]
    }
    assert streaming.refresh_pairs_skipped > 0
    assert repriced + streaming.refresh_pairs_skipped == len(involved)


#: EngineStats fields that count whole kernel rectangles, requested pairs or
#: not.  The table-backed kernel groups a call's pairs into rectangles, so on a
#: population with grid-backed clients these depend on how pairs are grouped
#: into calls (``merge()`` and a streaming replay of the same streams never
#: agreed on them).  The closed-form pass counts exact pairs: on an
#: all-Gaussian population every field is schedule-invariant.
RECTANGLE_COUNTERS = {"vectorized_evaluations", "table_evaluations", "pair_tables_built"}


def with_budget(budget):
    """Patch the flush cadence: when a pending block is priced."""
    return mock.patch.object(merge_module, "_CHUNK_ELEMENTS", budget)


def with_slice(elements):
    """Patch the kernel slice: how many elements one kernel pass evaluates."""
    return mock.patch.object(merge_module, "_SLICE_ELEMENTS", elements)


def invariant_stats(stats, gaussian, drop=()):
    dropped = set(drop) | (set() if gaussian else RECTANGLE_COUNTERS)
    return {name: value for name, value in stats.as_dict().items() if name not in dropped}


def refresh_distribution(kind, mean, sigma, rng):
    if kind == "gaussian":
        return GaussianDistribution(mean, sigma)
    return EmpiricalDistribution.from_samples(rng.normal(mean, sigma, 600), bins=64)


def refreshed_merger_run(before, after, tree, budget):
    """Observe half, refresh one client with rows possibly pending, observe the rest."""
    rng = np.random.default_rng(77)
    num_shards = 4
    model, shard_clients = build_model(num_shards, 2, rng)
    refreshed = shard_clients[1][0]
    model.register_client(refreshed, refresh_distribution(before, 0.001, 0.004, rng))
    streams = build_streams(shard_clients, 6, rng)
    topology = MergeTopology.balanced(num_shards, 2) if tree else None
    observations = random_interleaving(streams, rng)
    half = len(observations) // 2
    assert any(refreshed in batch.clients for _, batch in observations[:half])
    assert any(refreshed in batch.clients for _, batch in observations[half:])
    with with_budget(budget):
        merger = CrossShardMerger(model, seed=0)
        streaming = merger.streaming_merger(num_shards=num_shards, topology=topology)
        for shard, batch in observations[:half]:
            streaming.observe_batch(shard, batch)
        pending = streaming.pending_nodes
        merger.register_client(refreshed, refresh_distribution(after, -0.002, 0.008, rng))
        repriced = streaming.refresh_client(refreshed)
        for shard, batch in observations[half:]:
            streaming.observe_batch(shard, batch)
        matrix = streaming.forward_matrix()
    return {
        "streams": streams,
        "model": model,
        "streaming": streaming,
        "matrix": matrix,
        "pending": pending,
        "repriced": [repriced],
        "stats": streaming.stats,
    }


def refreshed_cluster_run(before, after, tree, budget):
    """The same through a live cluster: ``update_client_distribution`` mid-run."""
    rng = np.random.default_rng(78)
    distributions = {
        f"client-{i}": GaussianDistribution(
            float(rng.normal(0, 0.002)), float(rng.uniform(0.004, 0.01))
        )
        for i in range(8)
    }
    refreshed = "client-3"
    distributions[refreshed] = refresh_distribution(before, 0.001, 0.004, rng)
    loop = EventLoop()
    with with_budget(budget):
        cluster = ShardedSequencer(
            loop,
            distributions,
            num_shards=4,
            config=TommyConfig(completeness_mode="none", p_safe=0.9),
            merge_topology="binary" if tree else "flat",
        )
        streaming = cluster.streaming_merger
        clients = sorted(distributions)
        t = 0.0
        for message_id in range(80):
            t += float(rng.exponential(0.01))
            message = TimestampedMessage(
                client_id=clients[message_id % len(clients)],
                timestamp=t,
                true_time=t,
                message_id=message_id,
            )
            loop.schedule_at(t, cluster.receive, message)
        pending = {}
        repriced = []
        register = cluster.merger.model.register_client
        refresh_client = streaming.refresh_client

        def recording_register(client_id, distribution):
            pending["at the model swap"] = streaming.pending_nodes
            register(client_id, distribution)

        def recording_refresh(client_id):
            repriced.append(refresh_client(client_id))
            return repriced[-1]

        def refresh():
            pending["before the refresh"] = streaming.pending_nodes
            cluster.update_client_distribution(
                refreshed, refresh_distribution(after, -0.002, 0.008, rng)
            )

        with (
            mock.patch.object(cluster.merger.model, "register_client", recording_register),
            mock.patch.object(streaming, "refresh_client", recording_refresh),
        ):
            loop.schedule_at(t / 2, refresh)
            loop.run()
            cluster.flush()
        matrix = streaming.forward_matrix()
    # the table-backed kernel reads the model at pricing time: nothing may still
    # be pending when the merge model changes
    assert pending["at the model swap"] == 0
    streams = cluster.shard_batches()
    assert any(refreshed in batch.clients for stream in streams for batch in stream)
    return {
        "streams": streams,
        "model": cluster.merger.model,
        "streaming": streaming,
        "matrix": matrix,
        "pending": pending["before the refresh"],
        "repriced": repriced,
        "stats": cluster.engine_stats(),
    }


@pytest.mark.parametrize(
    "run", [refreshed_merger_run, refreshed_cluster_run], ids=["refresh_client", "cluster"]
)
@pytest.mark.parametrize("tree", [False, True], ids=["flat", "binary"])
@pytest.mark.parametrize(
    "before,after",
    [("gaussian", "gaussian"), ("gaussian", "empirical"), ("empirical", "gaussian")],
)
def test_observations_after_a_midstream_refresh_use_the_refreshed_model(before, after, tree, run):
    # the kernel's flattened per-message parameters are a cache of the model:
    # a refresh must rewrite them (and flip the closed-form / table choice), or
    # every batch observed *after* the refresh is priced with the old model.
    # And rows still pending when the refresh arrives must end up where
    # pricing them on arrival (budget 1) would have left them.
    blocks = run(before, after, tree, merge_module._CHUNK_ELEMENTS)
    per_batch = run(before, after, tree, 1)
    assert blocks["pending"] > 0 == per_batch["pending"]

    streams, model, streaming = blocks["streams"], blocks["model"], blocks["streaming"]
    assert np.array_equal(
        blocks["matrix"], reference_forward_matrix(streams, model), equal_nan=True
    )
    assert np.array_equal(blocks["matrix"], per_batch["matrix"], equal_nan=True)
    oracle = CrossShardMerger(model, seed=0).merge(streams)
    live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    assert live.cross_pairs_evaluated == oracle.cross_pairs_evaluated
    assert live.cross_pairs_pruned == oracle.cross_pairs_pruned

    settled = per_batch["streaming"]
    assert blocks["repriced"] == per_batch["repriced"] and blocks["repriced"][0] > 0
    assert streaming.refresh_pairs_skipped == settled.refresh_pairs_skipped
    assert streaming.cross_pairs_evaluated == settled.cross_pairs_evaluated
    assert streaming.cross_pairs_pruned == settled.cross_pairs_pruned
    assert streaming.node_report() == settled.node_report()
    gaussian = before == after == "gaussian"
    assert invariant_stats(blocks["stats"], gaussian) == invariant_stats(
        per_batch["stats"], gaussian
    )


def test_refresh_pruning_tracks_window_status_flips():
    # a refresh that *changes* a pair's overlap status (certain -> uncertain)
    # must reprice it even though it was pruned before
    rng = np.random.default_rng(2)
    model, shard_clients = build_model(2, 1, rng)
    streams = build_streams(shard_clients, 6, rng, gap=1.0, spread=0.1)  # far apart: all pruned
    streaming = CrossShardMerger(model, seed=2).streaming_merger(num_shards=2)
    for shard, batch in random_interleaving(streams, rng):
        streaming.observe_batch(shard, batch)
    assert streaming.cross_pairs_pruned > 0
    before_pruned = streaming.cross_pairs_pruned
    # a huge clock error makes every window overlap: nothing may stay pruned
    model.register_client("s0-c0", GaussianDistribution(0.0, 50.0))
    repriced = streaming.refresh_client("s0-c0")
    assert repriced > 0
    assert streaming.cross_pairs_pruned < before_pruned
    oracle = CrossShardMerger(model, seed=2).merge(streams)
    assert fingerprint(streaming.result()) == fingerprint(oracle)
    assert streaming.result().cross_pairs_pruned == oracle.cross_pairs_pruned
