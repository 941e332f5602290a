"""The merger stores the band, not the square.

:class:`StreamingMerger` keeps exactly the cross-shard pairs the kernel
priced (``stored pairs == cross_pairs_evaluated``) and reads every pruned
pair off the certainty windows.  Three things are held here: the store's
invariants after every mutation, the footprint as a count (no square at all
on the acyclic path, one bool square and no float one on the cyclic path)
and the pinned ledger-size runs.
"""

import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from merge_reference import reference_forward_matrix
from test_block_pricing import record_price_calls, run_cluster
from test_streaming_merge import (
    build_model,
    build_streams,
    fingerprint,
    random_interleaving,
    with_budget,
)

from repro.cluster import merge as merge_module
from repro.cluster.merge import CrossShardMerger, merge_fingerprint
from repro.cluster.recipe import build_merge, build_router
from repro.cluster.tree import MergeTopology
from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.sim import SimBackend
from repro.workloads import build_cluster_scenario


# ----------------------------------------------------------------- invariants
def stored_keys(streaming):
    """The store as a set of unordered position pairs (after settling)."""
    stored = streaming.stored_pairs
    pair_a = streaming._pair_a[:stored].tolist()
    pair_b = streaming._pair_b[:stored].tolist()
    keys = {frozenset(pair) for pair in zip(pair_a, pair_b)}
    assert len(keys) == stored, "a pair is stored twice (in either orientation)"
    return keys


def check_store(streaming, streams, reference):
    stored = streaming.stored_pairs
    assert stored == streaming.cross_pairs_evaluated
    shard = streaming._shard
    pair_a, pair_b = streaming._pair_a[:stored], streaming._pair_b[:stored]
    # cross-shard, canonical orientation: the a-side is the lower shard
    assert (shard[pair_a] < shard[pair_b]).all()
    stored_keys(streaming)
    observed = [
        index < streaming.observation_cursor(shard)
        for shard, stream in enumerate(streams)
        for index in range(len(stream))
    ]
    assert np.array_equal(
        streaming.forward_matrix(), reference[np.ix_(observed, observed)], equal_nan=True
    )


def run_with_refreshes(seed, num_shards, tree, mixed, read_every, budget=1 << 18):
    """Observe in a random interleaving with two mid-stream refreshes of one
    Gaussian client -- wider (pruned pairs enter the band), then narrower
    (band pairs leave it) -- checking the store wherever ``read_every`` says
    and after each refresh.  Returns how many pairs moved each way."""
    rng = np.random.default_rng(seed)
    model, shard_clients = build_model(num_shards, 2, rng, 0.5 if mixed else 0.0)
    refreshed = shard_clients[int(rng.integers(num_shards))][0]
    model.register_client(refreshed, GaussianDistribution(0.001, 0.004))
    # time-localised: both pruned and band pairs exist before each refresh
    streams = build_streams(shard_clients, int(rng.integers(6, 10)), rng, gap=0.1)
    observations = random_interleaving(streams, rng)
    topology = MergeTopology.balanced(num_shards, 2) if tree else None
    refresh_at = {
        len(observations) // 2: GaussianDistribution(-0.002, 0.05),
        (3 * len(observations)) // 4: GaussianDistribution(0.0005, 0.0005),
    }
    entered = left = 0
    with with_budget(budget):
        merger = CrossShardMerger(model, seed=0)
        streaming = merger.streaming_merger(num_shards=num_shards, topology=topology)
        reference = reference_forward_matrix(streams, model)
        for position, (shard, batch) in enumerate(observations, 1):
            streaming.observe_batch(shard, batch)
            if read_every and position % read_every == 0:
                check_store(streaming, streams, reference)
            if position in refresh_at:
                pending = streaming.pending_nodes
                before = stored_keys(streaming) if not pending else None
                merger.register_client(refreshed, refresh_at[position])
                repriced = streaming.refresh_client(refreshed)
                reference = reference_forward_matrix(streams, model)
                check_store(streaming, streams, reference)
                if before is not None:
                    after = stored_keys(streaming)
                    entered += len(after - before)
                    left += len(before - after)
                    assert repriced >= len(after ^ before)
        check_store(streaming, streams, reference)
        oracle = CrossShardMerger(model, seed=0).merge(streams)
        live = streaming.result()
    assert fingerprint(live) == fingerprint(oracle)
    assert (live.cross_pairs_evaluated, live.cross_pairs_pruned) == (
        oracle.cross_pairs_evaluated,
        oracle.cross_pairs_pruned,
    )
    assert streaming.stored_pairs == oracle.cross_pairs_evaluated
    return entered, left


@pytest.mark.parametrize("mixed", [False, True], ids=["gaussian", "mixed"])
@pytest.mark.parametrize("tree", [False, True], ids=["flat", "binary"])
@pytest.mark.parametrize("num_shards", [2, 4, 6])
def test_store_is_the_band_after_every_observation_and_refresh(num_shards, tree, mixed):
    entered, left = run_with_refreshes(2000 + num_shards, num_shards, tree, mixed, read_every=1)
    # not vacuous: the wider refresh moved pruned pairs into the band and the
    # narrower one moved band pairs out of it
    assert entered > 0 and left > 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_shards=st.integers(2, 6),
    tree=st.booleans(),
    mixed=st.booleans(),
    read_every=st.sampled_from([0, 1, 3, 5]),
    budget=st.sampled_from([1, 97, 1 << 18]),
)
def test_store_is_the_band_under_any_interleaving(seed, num_shards, tree, mixed, read_every, budget):
    run_with_refreshes(seed, num_shards, tree, mixed, read_every, budget)


def test_refresh_of_a_client_in_two_pending_nodes():
    # both nodes of the refreshed client are still unpriced when the refresh
    # arrives: they settle first, and their mutual pair is repriced once
    rng = np.random.default_rng(31)
    model, shard_clients = build_model(2, 1, rng)
    streams = build_streams(shard_clients, 3, rng)
    merger = CrossShardMerger(model, seed=0)
    streaming = merger.streaming_merger(num_shards=2)
    for shard, batch in random_interleaving(streams, rng):
        streaming.observe_batch(shard, batch)
    assert streaming.pending_nodes == 6
    for client, sigma in ((shard_clients[0][0], 0.05), (shard_clients[1][0], 0.0004)):
        merger.register_client(client, GaussianDistribution(0.0, sigma))
        assert streaming.refresh_client(client) == 9  # 3 nodes x 3 cross-shard partners
        check_store(streaming, streams, reference_forward_matrix(streams, model))


# ------------------------------------------------------------------ footprint
def squares(merger, n):
    """Arrays with n*n or more elements among the merger's attributes."""
    return [
        name
        for name, value in vars(merger).items()
        if isinstance(value, np.ndarray) and value.size >= n * n
    ]


def test_acyclic_merge_holds_no_square():
    # a count, not a clock: the dense design needed 8 N^2 bytes for the
    # matrix alone, and result() then built three N^2 bool squares; the
    # band flush and the band Kahn pass fit below one bool square
    rng = np.random.default_rng(17)
    model, shard_clients = build_model(4, 2, rng)
    # batches a shard emits are well separated in time: no chain edge can close a cycle
    streams = build_streams(shard_clients, 512, rng, gap=0.05, spread=0.1)
    n = sum(len(stream) for stream in streams)
    assert n == 2048
    observations = random_interleaving(streams, rng)
    streaming = CrossShardMerger(model, seed=0).streaming_merger(num_shards=4)
    tracemalloc.start()
    try:
        for shard, batch in observations:
            streaming.observe_batch(shard, batch)
        outcome = streaming.result()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.cycles_broken == 0
    assert peak < n * n
    assert squares(streaming, n) == []
    assert 0 < streaming.stored_pairs == outcome.cross_pairs_evaluated < n * n // 20


# --------------------------------------------------------------------- pinned
def renumbered(workload):
    return dataclasses.replace(
        workload,
        messages=tuple(
            dataclasses.replace(message, message_id=index)
            for index, message in enumerate(workload.messages)
        ),
    )


def ledger_run(messages_per_client, seed):
    scenario = build_cluster_scenario(
        num_clients=64, messages_per_client=messages_per_client, seed=seed
    )
    workload = renumbered(
        ClusterWorkload.from_scenario(scenario, num_shards=4, config=TommyConfig(seed=seed))
    )
    outcome = SimBackend().run(workload)
    digest = hashlib.sha256(repr(outcome.fingerprint()).encode()).hexdigest()
    return workload, outcome, digest


#: ``bench/``'s ``cyclic-4shard`` oracle digest (unchanged since PR 16)
PINNED_CYCLIC_DIGEST = "c1580908daa5ca6397d476a899f980630ae711e6d15f3e9d26ff99add8644781"


def test_cyclic_merge_hands_break_cycles_the_weight_view():
    workload, outcome, digest = ledger_run(20, seed=4)
    assert digest == PINNED_CYCLIC_DIGEST
    streams = outcome.shard_batches
    n = sum(len(stream) for stream in streams)
    counts = (outcome.merge.cross_pairs_evaluated, outcome.merge.cross_pairs_pruned)
    assert (n, *counts, outcome.merge.cycles_broken) == (859, 20_861, 255_393, 1)

    router = build_router(workload.client_distributions, workload.num_shards, workload.policy)
    _, _, streaming = build_merge(workload.client_distributions, workload.config, router)
    for shard, batch in random_interleaving(streams, np.random.default_rng(4)):
        streaming.observe_batch(shard, batch)
    assert streaming.stored_pairs == counts[0]
    handed, indexed = [], []
    break_cycles = merge_module.break_cycles

    class Recording:
        def __init__(self, view):
            self.view = view

        def __getitem__(self, index):
            indexed.append(np.size(index[0]))
            return self.view[index]

    def recording(edge, probability, *args, **kwargs):
        handed.append((type(probability), edge.shape, edge.dtype))
        removed = break_cycles(edge, Recording(probability), *args, **kwargs)
        handed.append(removed)
        return removed

    tracemalloc.start()
    try:
        with mock.patch.object(merge_module, "break_cycles", recording):
            shuffled = streaming.result()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert merge_fingerprint(shuffled) == outcome.fingerprint()
    assert shuffled.cycles_broken == 1
    (kind, shape, dtype), removed = handed
    assert (kind, shape, dtype) == (merge_module._EdgeWeights, (n, n), np.dtype(bool))
    # the weights are read for the edges of each cycle found, nothing else
    assert sum(indexed) == sum(victim.cycle_length for victim in removed) > 0
    # the direction square and the band; a float square could not fit
    assert n * n <= peak < 2 * n * n
    assert squares(streaming, n) == []


#: five times the ``acked-4shard`` run length (64 clients x 110 messages, 4
#: shards).  At the last commit with the dense matrix this run peaked at
#: 872 MiB (an 8192^2 float64 block, copied once more by ``result()``); the
#: order, the node count and both pair counts are those of that commit.
PINNED_5X_DIGEST = "36ff8bc2e43698acde575dd1b28493c3c8678ae159e00504253a0772dd070f4d"


def test_pinned_acked_cluster_run_at_five_times_ledger_length():
    _, outcome, digest = ledger_run(110, seed=13)
    assert digest == PINNED_5X_DIGEST
    assert sum(len(stream) for stream in outcome.shard_batches) == 5031
    assert outcome.merge.cross_pairs_evaluated == 120_558
    assert outcome.merge.cross_pairs_pruned == 9_335_089
    assert outcome.merge.cycles_broken == 0


# -------------------------------------------------------------- observability
def test_stored_pairs_gauge_rides_the_block_schedule():
    schedules = []
    with with_budget(997):
        for telemetry in (None, Telemetry()):
            calls = []
            with record_price_calls(calls):
                cluster = run_cluster(telemetry)
                live = cluster.live_merge()
            schedules.append((calls, merge_fingerprint(live)))
    assert schedules[0] == schedules[1]  # telemetry does not choose the blocks
    registry = telemetry.registry
    streaming = cluster.streaming_merger
    assert registry.counter("merge.price_blocks").value == len(schedules[1][0]) > 2
    assert (
        registry.gauge("merge.stored_pairs").value
        == streaming.stored_pairs
        == streaming.cross_pairs_evaluated
        > 0
    )
