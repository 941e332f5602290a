"""Merge tree tests: topology shapes, attribution and bitwise parity.

The contract: a tree-mode :class:`StreamingMerger` produces byte-identical
output to the offline :func:`~repro.cluster.merge.merge_streams` over the same streams —
for any topology kind, any fanout, any kernel element budget, any
observation interleaving, across distribution refreshes, and through
mid-run shard crash + rejoin.  The only thing a topology adds is *where*
each cross-shard pair is counted (its LCA node); it never touches the float
the one rule and the one kernel produce, which the unpruned per-pair
reference in ``tests/reference`` pins.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from merge_reference import offline_priced, reference_forward_matrix

from repro.cluster.merge import CertaintyWindows, StreamingMerger, merge_streams
from repro.cluster.router import RegionAffineSharding
from repro.cluster.sharded import ShardedSequencer
from repro.cluster.tree import MergeTopology
from repro.core.config import TommyConfig
from repro.core.probability import PrecedenceModel
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage
from repro.obs.export import chrome_trace_events
from repro.obs.telemetry import Telemetry
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


def build_streams(shard_clients, batches_per_shard, rng, gap=0.015, spread=1.0):
    streams = []
    message_id = int(rng.integers(40_000_000, 50_000_000))
    for shard, clients in enumerate(shard_clients):
        stream = []
        for index in range(batches_per_shard):
            base = index * gap + float(rng.uniform(0.0, spread * gap))
            messages = []
            for _ in range(int(rng.integers(1, 4))):
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


SIX_SHARD_REGIONS = {
    0: ("region-0", "region-4"),
    1: ("region-1", "region-5"),
    2: ("region-2",),
    3: ("region-3",),
    4: (),
    5: (),
}


def topology_for(kind, num_shards, fanout):
    region_map = {
        shard: SIX_SHARD_REGIONS.get(shard, ()) for shard in range(num_shards)
    }
    return MergeTopology.build(kind, num_shards, fanout=fanout, region_map=region_map)


# --------------------------------------------------------------- topology shape


def test_balanced_binary_topology_shape():
    topology = MergeTopology.balanced(6, fanout=2)
    assert topology.num_shards == 6
    assert topology.kind == "binary"
    assert topology.fanout == 2
    assert topology.depth == 3
    root = topology.root
    assert tuple(sorted(root.shards)) == (0, 1, 2, 3, 4, 5)
    for node in topology.interior_nodes:
        assert 2 <= len(node.children) <= 2 or node is root
        # children precede their parent in node order
        assert all(child < node.node_id for child in node.children)
    for shard in range(6):
        path = topology.path(shard)
        assert path[0] == topology.leaf(shard).node_id
        assert path[-1] == root.node_id
        assert topology.leaf(shard).is_leaf


def test_flat_topology_is_one_interior_node():
    topology = MergeTopology.flat(5)
    assert topology.depth == 1
    assert len(topology.interior_nodes) == 1
    assert topology.interior_nodes[0] is topology.root
    assert all(topology.lca(a, b) == topology.root.node_id for a in range(5) for b in range(5) if a != b)


def test_lca_is_symmetric_and_minimal():
    topology = MergeTopology.balanced(8, fanout=2)
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            lca = topology.lca(a, b)
            assert lca == topology.lca(b, a)
            node = topology.nodes[lca]
            assert a in node.shards and b in node.shards
            # minimal: no child of the LCA contains both shards
            for child in node.children:
                child_shards = set(topology.nodes[child].shards)
                assert not ({a, b} <= child_shards)


def test_single_child_chunks_pass_through_without_interior_node():
    # 5 leaves at fanout 4 leave a singleton chunk; it must join the next
    # level directly instead of minting a pointless one-child aggregator
    topology = MergeTopology.balanced(5, fanout=4)
    assert all(len(node.children) >= 2 for node in topology.interior_nodes)
    assert topology.depth == 2


def test_region_affine_order_groups_shared_region_shards():
    topology = MergeTopology.region_affine(SIX_SHARD_REGIONS, 6, fanout=2)
    assert topology.kind == "region"
    # leaves are ordered by (has-regions, region tuple, shard): regionful
    # shards first in region-rank order, empty shards trail
    leaf_order = [node.shards[0] for node in topology.nodes if node.is_leaf]
    assert leaf_order == sorted(
        range(6), key=lambda s: (0 if SIX_SHARD_REGIONS[s] else 1, SIX_SHARD_REGIONS[s], s)
    )
    # first-level siblings therefore pair region-adjacent shards
    level_one = [node for node in topology.interior_nodes if node.level == 1]
    assert any(set(node.shards) == {0, 1} for node in level_one)


def test_describe_covers_every_node():
    topology = MergeTopology.balanced(6, fanout=3)
    rows = topology.describe()
    assert len(rows) == len(topology.nodes)
    assert sum(1 for row in rows if row["children"] == 0) == 6
    assert rows[-1]["level"] == topology.depth


def test_build_rejects_unknown_kind_and_bad_sizes():
    with pytest.raises(ValueError, match="unknown merge topology"):
        MergeTopology.build("ring", 4)
    with pytest.raises(ValueError):
        MergeTopology.balanced(0)
    with pytest.raises(ValueError):
        MergeTopology.balanced(4, fanout=1)


# ----------------------------------------------------- attribution and parity


def window_attribution(model, streams, topology):
    """Per-node (pruned, kernel) pair counts, computed without the merger.

    The window comparison is spelled out pair by pair here on purpose: it
    is the independent statement of what the production rule and the
    topology's ``attribute`` must add up to.
    """
    windows = CertaintyWindows(model)
    nodes = [
        (shard, *windows.batch_window(batch))
        for shard, stream in enumerate(streams)
        for batch in stream
    ]
    pruned = {node.node_id: 0 for node in topology.interior_nodes}
    kernel = dict(pruned)
    for shard_a, earliest_a, latest_a in nodes:
        for shard_b, earliest_b, latest_b in nodes:
            if shard_a < shard_b:
                apart = earliest_b > latest_a or earliest_a > latest_b
                (pruned if apart else kernel)[topology.lca(shard_a, shard_b)] += 1
    return pruned, kernel


def observe_all(model, streams, topology, rng):
    streaming = StreamingMerger(model, seed=0, topology=topology)
    for shard, batch in random_interleaving(streams, rng):
        streaming.observe_batch(shard, batch)
    return streaming


@pytest.mark.parametrize("empirical_fraction", [0.0, 0.5])
@pytest.mark.parametrize(
    "kind,fanout",
    [("flat", 2), ("binary", 2), ("binary", 3), ("region", 2)],
)
def test_tree_merge_is_bitwise_identical_to_flat_merge(kind, fanout, empirical_fraction):
    # the topology attributes, it does not price: a tree-mode merger gives
    # the flat merge's order and counters, its per-node counts sum to the
    # totals, and they equal the attribution of the offline window masks
    rng = np.random.default_rng(17)
    num_shards = 6
    model, shard_clients = build_model(num_shards, 2, rng, empirical_fraction)
    streams = build_streams(shard_clients, 5, rng)
    flat = merge_streams(streams, model, seed=0)
    topology = topology_for(kind, num_shards, fanout)
    tree = observe_all(model, streams, topology, rng).result()
    assert fingerprint(tree) == fingerprint(flat)
    assert tree.cross_pairs_evaluated == flat.cross_pairs_evaluated
    assert tree.cross_pairs_pruned == flat.cross_pairs_pruned
    assert tree.merged_cross_shard == flat.merged_cross_shard
    assert tree.cycles_broken == flat.cycles_broken
    report = observe_all(model, streams, topology, rng).node_report()
    assert sum(row["pruned_pairs"] for row in report) == flat.cross_pairs_pruned
    assert sum(row["kernel_pairs"] for row in report) == flat.cross_pairs_evaluated
    pruned, kernel = window_attribution(model, streams, topology)
    assert {row["node"]: row["pruned_pairs"] for row in report} == pruned
    assert {row["node"]: row["kernel_pairs"] for row in report} == kernel


def test_attribute_counts_pairs_at_their_lowest_common_ancestor():
    topology = MergeTopology.balanced(4, 2)
    shards_a = np.array([0, 0, 2, 1, 3])
    shards_b = np.array([1, 2, 3, 0, 0])
    counts = topology.attribute(shards_a, shards_b)
    assert counts.shape == (len(topology.nodes),)
    expected = np.zeros(len(topology.nodes), dtype=int)
    for a, b in zip(shards_a, shards_b):
        expected[topology.lca(int(a), int(b))] += 1
    assert counts.tolist() == expected.tolist()
    assert not any(counts[node.node_id] for node in topology.nodes if node.is_leaf)
    empty = topology.attribute(np.array([], dtype=int), np.array([], dtype=int))
    assert empty.tolist() == [0] * len(topology.nodes)


def assert_matrices_match_reference(model, streams, num_shards, rng):
    reference = reference_forward_matrix(streams, model)
    offline = offline_priced(streams, model, seed=0)
    assert np.array_equal(offline.forward_matrix(), reference, equal_nan=True)
    streaming = observe_all(model, streams, MergeTopology.balanced(num_shards, 2), rng)
    assert np.array_equal(streaming.forward_matrix(), reference, equal_nan=True)
    assert streaming.cross_pairs_evaluated == offline.cross_pairs_evaluated
    assert streaming.cross_pairs_pruned == offline.cross_pairs_pruned


def test_tree_forward_matrix_is_bitwise_identical_to_flat_kernel():
    # not just the same order: every forward probability — whole grid at once
    # or row by row under a tree — must match the per-pair reference float
    # for float, so threshold comparisons can never diverge
    rng = np.random.default_rng(23)
    num_shards = 6
    model, shard_clients = build_model(num_shards, 2, rng, empirical_fraction=0.5)
    streams = build_streams(shard_clients, 4, rng)
    assert_matrices_match_reference(model, streams, num_shards, rng)


def test_tree_forward_matrix_uniform_batches_bitwise_identical_to_flat_kernel():
    # uniform per-batch message counts take the broadcast fast path of the
    # closed-form pass (no per-element division); it must produce the same
    # bits as the reference, and as the generic path it replaces
    rng = np.random.default_rng(29)
    num_shards = 6
    model, shard_clients = build_model(num_shards, 2, rng)
    streams = []
    message_id = 70_000_000
    for shard, clients in enumerate(shard_clients):
        stream = []
        for index in range(4):
            base = index * 0.015 + float(rng.uniform(0.0, 0.015))
            messages = []
            for _ in range(3):  # every batch exactly 3 messages
                timestamp = base + float(rng.uniform(0, 0.0075))
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
    assert_matrices_match_reference(model, streams, num_shards, rng)


def test_empty_and_missing_streams_merge_cleanly():
    rng = np.random.default_rng(37)
    model, shard_clients = build_model(4, 1, rng)
    streams = build_streams(shard_clients, 3, rng)
    streams[2] = []
    topology = MergeTopology.balanced(4, 2)
    # one shard silent and the trailing shard never heard from: the tree-mode
    # merger pre-creates every leaf's stream, like a padded offline merge
    tree = observe_all(model, streams[:3], topology, rng).result()
    flat = merge_streams(streams[:3] + [[]], model, seed=0)
    assert fingerprint(tree) == fingerprint(flat)
    assert tree.result.metadata["shards"] == flat.result.metadata["shards"] == 4
    assert fingerprint(merge_streams([[], [], [], []], model, seed=0)) == []


def staggered_grid_streams(num_shards, batches_per_shard, rng, gap=0.02):
    """Wide-cluster streams on a shard-staggered grid, every message of a
    batch at the batch's own timestamp: batch means order exactly by emission
    time, so the tournament is transitive and the order rng-independent."""
    model = PrecedenceModel()
    for shard in range(num_shards):
        for local in range(3):
            sigma = float(rng.uniform(0.0008, 0.002))
            model.register_client(f"s{shard}-c{local}", GaussianDistribution(0.0, sigma))
    streams = []
    message_id = 60_000_000
    for shard in range(num_shards):
        stream = []
        for index in range(batches_per_shard):
            base = index * gap + shard * gap / num_shards
            messages = []
            for _ in range(3):
                messages.append(
                    TimestampedMessage(
                        client_id=f"s{shard}-c{int(rng.integers(3))}",
                        timestamp=base,
                        true_time=base,
                        message_id=message_id,
                    )
                )
                message_id += 1
            stream.append(SequencedBatch(rank=index, messages=tuple(messages), emitted_at=base))
        streams.append(stream)
    return model, streams


@pytest.mark.parametrize(
    "num_shards,batches_per_shard,fanout,kernel_pairs,pruned_pairs",
    [(32, 16, 2, 30536, 96440), (32, 16, 4, 30536, 96440), (64, 8, 2, 56576, 72448)],
)
def test_wide_cluster_offline_flat_and_tree_replays_price_alike(
    num_shards, batches_per_shard, fanout, kernel_pairs, pruned_pairs
):
    # offline merge, a flat replay and a tree replay in emission order: one
    # order, one pair count, and the tree's per-node counts are the window
    # masks' attribution
    rng = np.random.default_rng(13)
    model, streams = staggered_grid_streams(num_shards, batches_per_shard, rng)
    topology = MergeTopology.balanced(num_shards, fanout=fanout)
    emissions = sorted(
        ((shard, batch) for shard, stream in enumerate(streams) for batch in stream),
        key=lambda entry: (entry[1].emitted_at, entry[0]),
    )
    offline = merge_streams(streams, model, seed=13)
    replays = []
    for replay_topology in (None, topology):
        streaming = StreamingMerger(
            model, seed=13, num_shards=num_shards, topology=replay_topology
        )
        for shard, batch in emissions:
            streaming.observe_batch(shard, batch)
        replays.append(streaming)
    for replay in replays:
        outcome = replay.result()
        assert fingerprint(outcome) == fingerprint(offline)
        assert (outcome.cross_pairs_evaluated, outcome.cross_pairs_pruned) == (
            offline.cross_pairs_evaluated,
            offline.cross_pairs_pruned,
        )
    assert offline.cycles_broken == 0
    # every cross-shard batch pair is priced exactly once, one way or another,
    # and the time-localised streams resolve most of them by windows alone
    assert (offline.cross_pairs_evaluated, offline.cross_pairs_pruned) == (
        kernel_pairs,
        pruned_pairs,
    )
    assert kernel_pairs + pruned_pairs == (
        num_shards * (num_shards - 1) // 2 * batches_per_shard**2
    )
    assert pruned_pairs > kernel_pairs
    report = replays[1].node_report()
    pruned, kernel = window_attribution(model, streams, topology)
    assert {row["node"]: row["pruned_pairs"] for row in report} == pruned
    assert {row["node"]: row["kernel_pairs"] for row in report} == kernel


# ------------------------------------------------------------- streaming parity


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind,fanout", [("binary", 2), ("binary", 3), ("region", 2)])
def test_streaming_tree_equals_offline_flat_under_random_interleavings(seed, kind, fanout):
    rng = np.random.default_rng(200 + seed)
    num_shards = 6
    model, shard_clients = build_model(num_shards, 2, rng, empirical_fraction=0.5)
    streams = build_streams(shard_clients, 4, rng)
    topology = topology_for(kind, num_shards, fanout)
    streaming = StreamingMerger(model, seed=seed, topology=topology)
    observations = random_interleaving(streams, rng)
    for position, (shard, batch) in enumerate(observations):
        streaming.observe_batch(shard, batch)
        if position % 5 == 4:  # mid-stream parity, batches in arbitrary shard order
            prefix = observed_prefix(observations, position + 1, num_shards)
            oracle = merge_streams(prefix, model, seed=seed)
            assert fingerprint(streaming.result()) == fingerprint(oracle)
    oracle = merge_streams(streams, model, seed=seed)
    live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    assert live.cross_pairs_evaluated == oracle.cross_pairs_evaluated
    assert live.cross_pairs_pruned == oracle.cross_pairs_pruned
    report = streaming.node_report()
    assert [row["node"] for row in report] == [
        node.node_id for node in topology.interior_nodes
    ]
    assert sum(row["pruned_pairs"] for row in report) == streaming.cross_pairs_pruned
    assert sum(row["kernel_pairs"] for row in report) == streaming.cross_pairs_evaluated


def test_streaming_tree_refresh_client_reprices_pairs():
    rng = np.random.default_rng(5)
    num_shards = 4
    model, shard_clients = build_model(num_shards, 1, rng)
    streams = build_streams(shard_clients, 3, rng)
    topology = MergeTopology.balanced(num_shards, 2)
    streaming = StreamingMerger(model, seed=0, topology=topology)
    for shard, batch in random_interleaving(streams, rng):
        streaming.observe_batch(shard, batch)
    refreshed = "s0-c0"
    model.register_client(refreshed, GaussianDistribution(0.0, 5.0))
    repriced = streaming.refresh_client(refreshed)
    assert repriced > 0
    oracle = merge_streams(streams, model, seed=0)
    live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    assert live.cross_pairs_pruned == oracle.cross_pairs_pruned
    assert live.cross_pairs_evaluated == oracle.cross_pairs_evaluated
    # per-node accounting survives the re-pricing (each pair moves between a
    # node's pruned/kernel buckets, never between nodes)
    report = streaming.node_report()
    assert sum(row["pruned_pairs"] for row in report) == live.cross_pairs_pruned
    assert sum(row["kernel_pairs"] for row in report) == live.cross_pairs_evaluated


def test_streaming_merger_rejects_topology_shard_mismatch():
    model = PrecedenceModel()
    model.register_client("a", GaussianDistribution(0.0, 0.01))
    with pytest.raises(ValueError, match="topology"):
        StreamingMerger(model, seed=0, num_shards=3, topology=MergeTopology.balanced(2, 2))
    streaming = StreamingMerger(model, seed=0, topology=MergeTopology.balanced(2, 2))
    extra = SequencedBatch(rank=0, messages=(TimestampedMessage(client_id="a", timestamp=0.0),))
    with pytest.raises(ValueError, match="outside the 2-leaf topology"):
        streaming.observe_batch(2, extra)


# ------------------------------------------------- live cluster property (hypothesis)


def _run_live_cluster(seed, num_shards, fanout, kind, crash):
    rng = np.random.default_rng(seed)
    num_regions = num_shards + 2  # more regions than shards: shared-region shards
    distributions = {}
    region_of = {}
    for i in range(num_shards * 3):
        client_id = f"client-{i:02d}"
        distributions[client_id] = GaussianDistribution(
            float(rng.normal(0, 0.002)), float(rng.uniform(0.004, 0.01))
        )
        region_of[client_id] = f"region-{i % num_regions}"
    loop = EventLoop()
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=num_shards,
        policy=RegionAffineSharding(region_of),
        config=TommyConfig(completeness_mode="none", p_safe=0.9),
        dedupe_intake=True,
        merge_topology=kind,
        merge_fanout=fanout,
    )
    clients = sorted(distributions)
    sent = []
    t = 0.0
    for _ in range(num_shards * 20):
        t += float(rng.exponential(0.01))
        client = clients[int(rng.integers(len(clients)))]
        message = TimestampedMessage(client_id=client, timestamp=t, true_time=t)
        sent.append(message)
        loop.schedule_at(t, cluster.receive, message)
    if crash:
        victim = int(rng.integers(num_shards))
        loop.schedule_at(t * 0.4, cluster.force_failover, victim)
        loop.schedule_at(t * 0.7, cluster.rejoin_shard, victim)
    loop.run()
    cluster.flush()
    return cluster, sent


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_shards=st.integers(2, 4),
    fanout=st.integers(2, 3),
    kind=st.sampled_from(["binary", "region"]),
    crash=st.booleans(),
)
def test_live_tree_cluster_matches_flat_oracle(seed, num_shards, fanout, kind, crash):
    # the strongest end-to-end property: a live cluster running the tree
    # topology — streaming tree attribution, region-affine routing, optionally
    # a mid-run shard crash + rejoin — linearises byte-identically to the
    # offline merge, with every sent message appearing exactly once
    cluster, sent = _run_live_cluster(seed, num_shards, fanout, kind, crash)
    live = cluster.live_merge()
    flat = cluster.merge()
    assert fingerprint(live) == fingerprint(flat)
    assert live.cross_pairs_evaluated == flat.cross_pairs_evaluated
    assert live.cross_pairs_pruned == flat.cross_pairs_pruned
    merged_keys = [
        message.key for batch in flat.result.batches for message in batch.messages
    ]
    assert sorted(merged_keys) == sorted(message.key for message in sent)
    assert len(merged_keys) == len(set(merged_keys))


# ------------------------------------------------------------------ observability


def test_merge_report_and_telemetry_surface_tree_nodes():
    telemetry = Telemetry()
    rng = np.random.default_rng(11)
    distributions = {
        f"c{i:02d}": GaussianDistribution(0.0, float(rng.uniform(0.004, 0.01)))
        for i in range(8)
    }
    loop = EventLoop()
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=4,
        config=TommyConfig(completeness_mode="none", p_safe=0.9),
        merge_topology="binary",
        merge_fanout=2,
        telemetry=telemetry,
    )
    clients = sorted(distributions)
    t = 0.0
    for k in range(48):
        t += float(rng.exponential(0.01))
        client = clients[k % len(clients)]
        message = TimestampedMessage(client_id=client, timestamp=t, true_time=t)
        loop.schedule_at(t, cluster.receive, message)
    loop.run()
    cluster.flush()

    merge_report = cluster.observability_report()["merge"]
    assert merge_report["topology"] == "binary"
    assert merge_report["fanout"] == 2
    assert merge_report["depth"] == cluster.merge_topology.depth
    nodes = merge_report["nodes"]
    assert [row["node"] for row in nodes] == [
        node.node_id for node in cluster.merge_topology.interior_nodes
    ]
    assert sum(row["pruned_pairs"] for row in nodes) == merge_report["cross_pairs_pruned"]
    assert sum(row["kernel_pairs"] for row in nodes) == merge_report["cross_pairs_evaluated"]
    assert merge_report["cross_pairs_evaluated"] > 0

    # the attach hook exposes the same report through the registry snapshot
    snapshot = telemetry.registry.snapshot()
    assert snapshot["sources"]["cluster.merge"]["topology"] == "binary"

    # per-level pricing lands as merge_tree events and counters, and the
    # trace exporter pins them to the merge process track
    tree_events = [record for record in telemetry.event_records if record.kind == "merge_tree"]
    assert tree_events
    assert any(key.startswith("merge.tree.level") for key in snapshot["counters"])
    traced = [
        event
        for event in chrome_trace_events(telemetry)
        if str(event.get("name", "")).startswith("merge_tree:")
    ]
    assert traced and all(event["pid"] == 2 for event in traced)
