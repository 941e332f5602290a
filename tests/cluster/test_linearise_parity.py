"""The matrix cycle breaker against the materialised-graph reference.

:func:`repro.core.cycles.break_cycles` claims to be an exact replay of the
``networkx`` walk it replaced.  For the merger that means: the same order,
the same number of removed edges and the same generator state afterwards as
``tests/reference/linearise_reference.py`` on every forward matrix, under
every policy.  For the engine it means the same emitted batches as
``ReferenceOnlineSequencer`` (which builds a ``graph_reference.TournamentGraph``),
and the same order as ``resolve_cycles`` on that graph for tournaments no
model would produce.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from graph_reference import TournamentGraph, resolve_cycles
from hypothesis import strategies as st
from linearise_reference import _resolve_order_via_graph
from merge_reference import reference_forward_matrix
from online_reference import ReferenceOnlineSequencer

from repro.cluster.merge import (
    CrossShardMerger,
    StreamingMerger,
    _linear_order,
    _NodeLayout,
    merge_fingerprint,
)
from repro.cluster.recipe import build_merge, build_router
from repro.cluster.tree import MergeTopology
from repro.core.config import TommyConfig
from repro.core.cycles import CYCLE_POLICIES, break_cycles
from repro.core.engine import _topological_order
from repro.core.online import OnlineTommySequencer
from repro.core.probability import PrecedenceModel
from repro.core.relation import LikelyHappenedBefore
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage
from repro.runtime.base import ClusterWorkload
from repro.runtime.sim import SimBackend
from repro.simulation.event_loop import EventLoop
from repro.workloads import build_cluster_scenario

FAMILIES = ("uniform", "ties", "noisy", "blocks")


def make_streams(shard_lengths):
    return [
        [
            SequencedBatch(
                rank=index,
                messages=(TimestampedMessage(client_id=f"s{shard}", timestamp=float(index)),),
            )
            for index in range(length)
        ]
        for shard, length in enumerate(shard_lengths)
    ]


def forward_matrix(family, shard_lengths, rng):
    """A shard-major forward matrix: NaN within a shard, complementary across."""
    shard = np.repeat(np.arange(len(shard_lengths)), shard_lengths)
    index = np.concatenate([np.arange(length) for length in shard_lengths])
    n = shard.size
    if family == "uniform":
        forward = rng.random((n, n))
    elif family == "ties":
        # exact 0.5 (the >= comparison), exact 0/1 (cycles whose every edge
        # is certain, so the first minimum can be a chain edge)
        forward = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=(n, n))
    elif family == "noisy":
        # a latent time per batch, increasing along each shard, plus noise
        time = index + rng.normal(0.0, 0.6, n)
        gap = time[None, :] - time[:, None]
        forward = np.clip(0.5 + 0.4 * gap + rng.normal(0.0, 0.3, (n, n)), 0.0, 1.0)
    else:
        # blocks: batch k of every shard forms one block; blocks are certain
        # of each other in index order, random inside -> disjoint cycles
        forward = np.where(
            index[:, None] == index[None, :],
            rng.choice([0.2, 0.4, 0.6, 0.8], size=(n, n)),
            (index[:, None] < index[None, :]).astype(float),
        )
    upper = np.triu(np.ones((n, n), dtype=bool), k=1) & (shard[:, None] != shard[None, :])
    matrix = np.full((n, n), np.nan)
    matrix[upper] = forward[upper]
    matrix.T[upper] = 1.0 - forward[upper]
    return matrix


def assert_matches_reference(shard_lengths, matrix, policy, seed):
    streams = make_streams(shard_lengths)
    layout = _NodeLayout(streams)
    rng = np.random.default_rng(seed)
    order_ids, removed = _linear_order(layout, matrix, policy, rng)
    reference_rng = np.random.default_rng(seed)
    node_ids = {node: node_id for node_id, node in enumerate(layout.nodes)}
    reference_order, reference_removed = _resolve_order_via_graph(
        streams, layout.nodes, node_ids, matrix, policy, reference_rng
    )
    assert [layout.nodes[node_id] for node_id in order_ids] == reference_order
    assert len(removed) == reference_removed
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return len(removed)


@pytest.mark.parametrize("policy", CYCLE_POLICIES)
@pytest.mark.parametrize("family", FAMILIES)
def test_seeded_sweep_matches_the_graph_reference(family, policy):
    cyclic = 0
    for seed in range(25):
        rng = np.random.default_rng([seed, FAMILIES.index(family)])
        shard_lengths = rng.integers(1, 7, size=int(rng.integers(2, 7))).tolist()
        matrix = forward_matrix(family, shard_lengths, rng)
        cyclic += bool(assert_matches_reference(shard_lengths, matrix, policy, seed))
    assert cyclic >= 8  # the sweep is about the cyclic path


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=2, max_size=6),
    st.sampled_from(FAMILIES),
    st.sampled_from(CYCLE_POLICIES),
    st.integers(0, 2**32 - 1),
)
def test_any_forward_matrix_matches_the_graph_reference(shard_lengths, family, policy, seed):
    matrix = forward_matrix(family, shard_lengths, np.random.default_rng(seed))
    assert_matches_reference(shard_lengths, matrix, policy, seed)


@pytest.mark.parametrize("policy", CYCLE_POLICIES)
def test_disjoint_cycles_are_each_broken(policy):
    # three shards, four blocks, every block the 3-cycle s0 -> s1 -> s2 -> s0
    shard_lengths = [4, 4, 4]
    shard = np.repeat(np.arange(3), 4)
    index = np.tile(np.arange(4), 3)
    forward = np.where(
        index[:, None] == index[None, :],
        np.where((shard[None, :] - shard[:, None]) % 3 == 1, 0.8, 0.2),
        (index[:, None] < index[None, :]).astype(float),
    )
    forward[shard[:, None] == shard[None, :]] = np.nan
    assert assert_matches_reference(shard_lengths, forward, policy, seed=5) >= 4


@pytest.mark.parametrize("policy", CYCLE_POLICIES)
def test_a_certain_cycle_never_loses_its_chain_edge(policy):
    # a@10 -> a@0 (shard 0's committed order) -> b@5 -> a@10 with every edge
    # certain: the first minimum in cycle order is the protected chain edge
    forward = np.array([[np.nan, np.nan, 0.0], [np.nan, np.nan, 1.0], [1.0, 0.0, np.nan]])
    for seed in range(8):  # the stochastic draw lands on the chain edge for some
        assert assert_matches_reference([2, 1], forward, policy, seed) == 1
    layout = _NodeLayout(make_streams([2, 1]))
    order_ids, _ = _linear_order(layout, forward, policy, np.random.default_rng(0))
    assert order_ids.index(0) < order_ids.index(1)


def test_unknown_policy_is_rejected_before_any_input():
    model = PrecedenceModel()
    with pytest.raises(ValueError, match="unknown cycle policy 'nope'"):
        CrossShardMerger(model, cycle_policy="nope")
    with pytest.raises(ValueError, match="unknown cycle policy 'nope'"):
        StreamingMerger(model, cycle_policy="nope")


# ------------------------------------------------------------ offline merge
def staggered_population(num_shards=8, clients_per_shard=3, messages_per_batch=3, batches=16):
    """Gaussian clients; each shard's batches on a 20 ms grid, staggered by
    shard and jittered, so shard streams interleave densely (coalescing work)
    while the batch tournament stays transitive."""
    rng = np.random.default_rng(13)
    model = PrecedenceModel()
    shard_clients = []
    for shard in range(num_shards):
        clients = [f"s{shard}-c{local}" for local in range(clients_per_shard)]
        for client_id in clients:
            sigma = float(rng.uniform(0.002, 0.008))
            bias = float(rng.normal(0.0, 0.001))
            model.register_client(client_id, GaussianDistribution(bias, sigma))
        shard_clients.append(clients)
    streams = []
    message_id = 30_000_000
    for shard in range(num_shards):
        stream = []
        for index in range(batches):
            base = index * 0.02 + shard * 0.02 / num_shards + float(rng.uniform(0.0, 0.002))
            messages = []
            for _ in range(messages_per_batch):
                client = shard_clients[shard][int(rng.integers(clients_per_shard))]
                timestamp = base + float(rng.uniform(0.0, 0.005))
                messages.append(
                    TimestampedMessage(
                        client_id=client,
                        timestamp=timestamp,
                        true_time=timestamp,
                        message_id=message_id,
                    )
                )
                message_id += 1
            stream.append(SequencedBatch(rank=index, messages=tuple(messages), emitted_at=base))
        streams.append(stream)
    return model, streams


def test_offline_merge_is_the_pairwise_merger_over_the_reference_matrix():
    # the merger this one replaced priced every cross-shard pair with one
    # engine call, walked the whole tournament as a graph and coalesced each
    # unconfident cross-shard boundary: that pipeline, over the per-pair
    # reference matrix, gives the offline merge's order and batches
    model, streams = staggered_population()
    outcome = CrossShardMerger(model, seed=13).merge(streams)
    matrix = reference_forward_matrix(streams, model)
    nodes = _NodeLayout(streams).nodes
    node_ids = {node: node_id for node_id, node in enumerate(nodes)}
    order, removed = _resolve_order_via_graph(
        streams, nodes, node_ids, matrix, "greedy", np.random.default_rng(13)
    )
    groups = [[order[0]]]
    for previous, node in zip(order, order[1:]):
        if previous[0] != node[0] and not matrix[node_ids[previous], node_ids[node]] > 0.75:
            groups[-1].append(node)
        else:
            groups.append([node])
    assert merge_fingerprint(outcome) == [
        (rank, tuple(m.key for shard, index in group for m in streams[shard][index].messages))
        for rank, group in enumerate(groups)
    ]
    assert outcome.cycles_broken == removed == 0
    # each of the 28 shard pairs' 16 x 16 batch pairs is priced exactly once,
    # by the kernel or by its certainty window
    assert (outcome.cross_pairs_evaluated, outcome.cross_pairs_pruned) == (5396, 1772)
    assert (outcome.batch_count, outcome.merged_cross_shard) == (5, 123)


@pytest.mark.parametrize("tree", [False, True], ids=["flat", "binary"])
def test_streamed_population_equals_the_offline_merge_mid_stream_and_at_the_end(tree):
    model, streams = staggered_population()
    topology = MergeTopology.balanced(len(streams), fanout=2) if tree else None
    streaming = CrossShardMerger(model, seed=13).streaming_merger(
        num_shards=len(streams), topology=topology
    )
    # any shard-interleaved observation order that keeps each shard's ranks
    rng = np.random.default_rng(14)
    cursors = [0] * len(streams)
    observed = [[] for _ in streams]
    for position in range(sum(len(stream) for stream in streams)):
        open_shards = [s for s, stream in enumerate(streams) if cursors[s] < len(stream)]
        shard = int(rng.choice(open_shards))
        batch = streams[shard][cursors[shard]]
        cursors[shard] += 1
        streaming.observe_batch(shard, batch)
        observed[shard].append(batch)
        if position % 32 == 31:
            oracle = CrossShardMerger(model, seed=13).merge(observed)
            assert merge_fingerprint(streaming.result()) == merge_fingerprint(oracle)
    final = streaming.result()
    offline = CrossShardMerger(model, seed=13).merge(streams)
    assert merge_fingerprint(final) == merge_fingerprint(offline)
    assert (final.cross_pairs_evaluated, final.cross_pairs_pruned) == (5396, 1772)


# ------------------------------------------------------------------- engine
def graph_reference_order(keys, matrix, policy, rng):
    """The offline pipeline on ``matrix``: tournament, resolve, topological sort."""
    messages = [TimestampedMessage(client_id=c, timestamp=0.0, message_id=m) for c, m in keys]
    probabilities = {
        (keys[i], keys[j]): float(matrix[i, j])
        for i in range(len(keys))
        for j in range(len(keys))
        if i != j
    }
    tournament = TournamentGraph.from_relation(LikelyHappenedBefore(messages, probabilities))
    direction = np.array([[tournament.graph.has_edge(a, b) for b in keys] for a in keys])
    resolve_cycles(tournament.graph, policy, rng=rng)
    return direction, tournament.topological_order()


@pytest.mark.parametrize("policy", CYCLE_POLICIES)
@pytest.mark.parametrize("family", ["uniform", "ties", "noisy"])
def test_engine_configuration_matches_resolve_cycles(family, policy):
    # the engine's use of the breaker: no chain, ties ranked by message key
    # (here deliberately not the matrix-index order)
    cyclic = 0
    for seed in range(20):
        rng = np.random.default_rng([seed, 77])
        n = int(rng.integers(3, 14))
        keys = [(f"c{int(rng.integers(3))}", int(m)) for m in rng.permutation(n)]
        upper = forward_matrix(family, [1] * n, rng)
        matrix = np.where(np.isnan(upper), 0.5, upper)
        reference_rng = np.random.default_rng(seed)
        direction, reference_order = graph_reference_order(keys, matrix, policy, reference_rng)
        rank = np.empty(n, dtype=np.intp)
        rank[sorted(range(n), key=keys.__getitem__)] = np.arange(n)
        rng = np.random.default_rng(seed)
        edge = direction.copy()
        cyclic += bool(break_cycles(edge, matrix, policy, rng, rank=rank))
        assert [keys[i] for i in _topological_order(edge, rank)] == reference_order
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert cyclic >= 8


def skewed_mixtures(rng, num_clients):
    # pairwise medians differ, so the kept direction is not a function of
    # timestamp - mean alone and the tournament can be intransitive
    distributions = {}
    for i in range(num_clients):
        weight = float(rng.uniform(0.1, 0.9))
        distributions[f"c{i}"] = MixtureDistribution(
            [
                GaussianDistribution(float(rng.uniform(-0.5, 0.0)), 0.03),
                GaussianDistribution(float(rng.uniform(0.0, 0.5)), 0.2),
            ],
            [weight, 1.0 - weight],
        )
    return distributions


def online_flush_run(use_engine, policy, seed):
    rng = np.random.default_rng(seed)
    config = TommyConfig(
        p_safe=0.95,
        completeness_mode="none",
        probability_method="fft",
        convolution_points=128,
        cycle_policy=policy,
        seed=seed,
    )
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        EventLoop(), skewed_mixtures(rng, 4), config
    )
    for k in range(9):
        sequencer.receive(
            TimestampedMessage(
                client_id=f"c{int(rng.integers(4))}",
                timestamp=float(rng.normal(0.0, 0.2)),
                message_id=k,
            ),
            arrival_time=0.0,
        )
    sequencer.flush()
    return sequencer


@pytest.mark.parametrize("policy", CYCLE_POLICIES)
def test_engine_cyclic_pending_sets_match_the_reference_rung(policy):
    resolutions = 0
    for seed in (3, 5, 8, 13):
        engine_run = online_flush_run(True, policy, seed)
        reference_run = online_flush_run(False, policy, seed)
        emitted = [
            [
                (e.batch.rank, tuple(m.key for m in e.batch.messages), e.emitted_at)
                for e in run.emitted_batches
            ]
            for run in (engine_run, reference_run)
        ]
        assert emitted[0] == emitted[1]
        assert engine_run._rng.bit_generator.state == reference_run._rng.bit_generator.state
        resolutions += engine_run.engine_stats().cycle_resolutions
    assert resolutions > 0


# ------------------------------------------------------------------- pinned
#: sha256 of ``repr(outcome.fingerprint())``, computed at the last commit that
#: linearised on a materialised graph (it is ``bench/``'s ``cyclic-4shard``
#: oracle digest: same population, same renumbering of message ids)
PINNED_CYCLIC_DIGEST = "c1580908daa5ca6397d476a899f980630ae711e6d15f3e9d26ff99add8644781"


def test_pinned_cyclic_cluster_run():
    # 859 shard batches, 277k kept edges, one cycle: the size at which the
    # cost of the cyclic path is visible
    scenario = build_cluster_scenario(num_clients=64, messages_per_client=20, seed=4)
    workload = ClusterWorkload.from_scenario(scenario, num_shards=4, config=TommyConfig(seed=4))
    workload = dataclasses.replace(
        workload,
        messages=tuple(
            dataclasses.replace(message, message_id=index)
            for index, message in enumerate(workload.messages)
        ),
    )
    outcome = SimBackend().run(workload)
    digest = hashlib.sha256(repr(outcome.fingerprint()).encode()).hexdigest()
    assert digest == PINNED_CYCLIC_DIGEST
    assert outcome.merge.cycles_broken == 1

    streams = outcome.shard_batches
    router = build_router(workload.client_distributions, workload.num_shards, workload.policy)
    merger, _, streaming = build_merge(workload.client_distributions, workload.config, router)
    offline = merger.merge(streams)
    assert merge_fingerprint(offline) == outcome.fingerprint()
    assert offline.cycles_broken == 1
    rng = np.random.default_rng(4)
    cursors = [0] * len(streams)
    while True:
        open_shards = [s for s, stream in enumerate(streams) if cursors[s] < len(stream)]
        if not open_shards:
            break
        shard = open_shards[int(rng.integers(len(open_shards)))]
        streaming.observe_batch(shard, streams[shard][cursors[shard]])
        cursors[shard] += 1
    shuffled = streaming.result()
    assert merge_fingerprint(shuffled) == outcome.fingerprint()
    assert shuffled.cycles_broken == 1
