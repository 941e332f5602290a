"""The block pricing schedule of :class:`StreamingMerger` is unobservable.

``observe_batch`` appends; the pending rows are priced when they fill the
kernel's element budget and whenever priced state is read.  Nothing a caller
can see may depend on where those flushes fall: under any budget — ``1`` is
the schedule that prices every batch on arrival — every matrix entry equals
``tests/reference/merge_reference.py``, every counter read mid-stream equals
the budget-1 run's at the same observation, and the schedule itself is a
function of the node count alone (telemetry on or off).
"""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from merge_reference import reference_forward_matrix
from test_streaming_merge import (
    build_model,
    build_streams,
    fingerprint,
    invariant_stats,
    random_interleaving,
    with_budget,
)

from repro.cluster.merge import CrossShardMerger, StreamingMerger, merge_fingerprint
from repro.cluster.recipe import build_merge, build_router
from repro.cluster.sharded import ShardedSequencer
from repro.cluster.tree import MergeTopology
from repro.core.config import TommyConfig
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.obs.telemetry import Telemetry
from repro.runtime.base import ClusterWorkload
from repro.runtime.sim import SimBackend
from repro.simulation.event_loop import EventLoop
from repro.workloads import build_cluster_scenario

BUDGETS = (1, 7, 97, 1 << 18)

def record_price_calls(calls):
    """Patch ``_price_from`` to log ``(first, observed nodes)`` per pricing pass."""
    price_from = StreamingMerger._price_from

    def recording(self, first):
        calls.append((first, self.node_count))
        return price_from(self, first)

    return mock.patch.object(StreamingMerger, "_price_from", recording)


def replay(model, observations, num_shards, topology, budget, read_every, result_at):
    """One streaming run under ``budget``; everything a caller could look at."""
    with with_budget(budget):
        streaming = CrossShardMerger(model, seed=0).streaming_merger(
            num_shards=num_shards, topology=topology
        )
        reads = []
        for position, (shard, batch) in enumerate(observations, 1):
            streaming.observe_batch(shard, batch)
            assert streaming.pending_nodes * streaming.node_count < budget
            if read_every and position % read_every == 0:
                reads.append((streaming.cross_pairs_evaluated, streaming.cross_pairs_pruned))
                assert streaming.pending_nodes == 0
            if position == result_at:
                reads.append(fingerprint(streaming.result()))
        return {
            "matrix": streaming.forward_matrix(),
            "fingerprint": fingerprint(streaming.result()),
            "pairs": (streaming.cross_pairs_evaluated, streaming.cross_pairs_pruned),
            "report": streaming.node_report(),
            "stats": streaming.stats,
            "reads": reads,
        }


def check_schedule_is_unobservable(seed, num_shards, tree, mixed, budget, read_every, result_at):
    rng = np.random.default_rng(seed)
    model, shard_clients = build_model(num_shards, 2, rng, 0.5 if mixed else 0.0)
    streams = build_streams(shard_clients, int(rng.integers(3, 7)), rng)
    observations = random_interleaving(streams, rng)
    topology = MergeTopology.balanced(num_shards, 2) if tree else None
    result_at = int(result_at * len(observations))
    arguments = (model, observations, num_shards, topology)
    per_batch = replay(*arguments, 1, read_every, result_at)
    blocks = replay(*arguments, budget, read_every, result_at)

    reference = reference_forward_matrix(streams, model)
    assert np.array_equal(blocks["matrix"], reference, equal_nan=True)
    assert np.array_equal(per_batch["matrix"], reference, equal_nan=True)
    for key in ("fingerprint", "pairs", "report", "reads"):
        assert blocks[key] == per_batch[key], key
    gaussian = not mixed
    assert invariant_stats(blocks["stats"], gaussian) == invariant_stats(
        per_batch["stats"], gaussian
    )

    # offline is the same walk: same matrix, order and counts under the same
    # budget (which is also the kernel's own chunk size)
    with with_budget(budget):
        offline = CrossShardMerger(model, seed=0)._priced(streams)
        assert np.array_equal(offline.forward_matrix(), reference, equal_nan=True)
        outcome = CrossShardMerger(model, seed=0).merge(streams)
    assert fingerprint(outcome) == blocks["fingerprint"]
    assert (outcome.cross_pairs_evaluated, outcome.cross_pairs_pruned) == blocks["pairs"]
    # (cycle_resolutions counts linearisations, and ``_priced`` makes none)
    linearised = ("cycle_resolutions",)
    assert invariant_stats(offline.stats, gaussian, linearised) == invariant_stats(
        blocks["stats"], gaussian, linearised
    )


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("mixed", [False, True], ids=["gaussian", "mixed"])
@pytest.mark.parametrize("tree", [False, True], ids=["flat", "binary"])
@pytest.mark.parametrize("num_shards", [2, 4, 6])
def test_block_schedule_is_unobservable_seeded_sweep(num_shards, tree, mixed, budget):
    check_schedule_is_unobservable(
        seed=1000 + num_shards, num_shards=num_shards, tree=tree, mixed=mixed,
        budget=budget, read_every=4, result_at=0.5,
    )  # fmt: skip


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_shards=st.integers(2, 6),
    tree=st.booleans(),
    mixed=st.booleans(),
    budget=st.sampled_from(BUDGETS),
    read_every=st.sampled_from([0, 1, 3, 5]),
    result_at=st.floats(0.0, 1.0),
)
def test_block_schedule_is_unobservable(
    seed, num_shards, tree, mixed, budget, read_every, result_at
):
    check_schedule_is_unobservable(seed, num_shards, tree, mixed, budget, read_every, result_at)


def test_flush_points_depend_on_the_node_count_alone():
    # two interleavings, offline, flat and tree: the same (first, count) passes
    rng = np.random.default_rng(8)
    model, shard_clients = build_model(4, 2, rng)
    streams = build_streams(shard_clients, 8, rng)
    schedules = []
    with with_budget(97):
        for topology in (None, MergeTopology.balanced(4, 2)):
            calls = []
            with record_price_calls(calls):
                streaming = CrossShardMerger(model).streaming_merger(
                    num_shards=4, topology=topology
                )
                for shard, batch in random_interleaving(streams, rng):
                    streaming.observe_batch(shard, batch)
                streaming.result()
                streaming.result()  # nothing pending: no further pass
            schedules.append(calls)
        calls = []
        with record_price_calls(calls):
            CrossShardMerger(model).merge(streams)
        schedules.append(calls)
    assert schedules[0] == schedules[1] == schedules[2]
    assert schedules[0][:3] == [(0, 10), (10, 17), (17, 22)]
    assert schedules[0][-1][1] == 32


# ------------------------------------------------------------------ telemetry


def run_cluster(telemetry, seed=21, num_shards=4, messages=160):
    rng = np.random.default_rng(seed)
    distributions = {
        f"client-{i:02d}": GaussianDistribution(
            float(rng.normal(0, 0.002)), float(rng.uniform(0.004, 0.01))
        )
        for i in range(num_shards * 3)
    }
    loop = EventLoop()
    cluster = ShardedSequencer(
        loop,
        distributions,
        num_shards=num_shards,
        config=TommyConfig(completeness_mode="none", p_safe=0.9),
        merge_topology="binary",
        telemetry=telemetry,
    )
    clients = sorted(distributions)
    t = 0.0
    for message_id in range(messages):
        t += float(rng.exponential(0.01))
        client = clients[int(rng.integers(len(clients)))]
        message = TimestampedMessage(
            client_id=client, timestamp=t, true_time=t, message_id=message_id
        )
        loop.schedule_at(t, cluster.receive, message)
    loop.run()
    cluster.flush()
    return cluster


def tree_events(telemetry):
    return [record for record in telemetry.event_records if record.kind == "merge_tree"]


def test_telemetry_rides_the_block_and_does_not_choose_it():
    schedules = []
    with with_budget(997):
        for telemetry in (None, Telemetry()):
            calls = []
            with record_price_calls(calls):
                cluster = run_cluster(telemetry)
                live = cluster.live_merge()
            schedules.append((calls, merge_fingerprint(live)))
    assert schedules[0] == schedules[1]
    calls = schedules[0][0]
    assert len(calls) > 2  # the run did flush mid-stream, not only at the read
    assert [first for first, _ in calls] == [0] + [count for _, count in calls[:-1]]

    streaming = cluster.streaming_merger
    registry = telemetry.registry
    assert registry.counter("merge.price_blocks").value == len(calls)
    assert registry.gauge("merge.pending_nodes").value == streaming.pending_nodes == 0
    # one merge_tree event per (node, ancestor that gained pairs), carrying the
    # node's own counts and observation time: totals are the node report
    events = tree_events(telemetry)
    totals = {}
    for event in events:
        details = dict(event.details)
        pruned, kernel = totals.get(details["node"], (0, 0))
        totals[details["node"]] = (
            pruned + details["pruned_pairs"],
            kernel + details["kernel_pairs"],
        )
    report = streaming.node_report()
    assert totals == {
        row["node"]: (row["pruned_pairs"], row["kernel_pairs"])
        for row in report
        if row["pruned_pairs"] or row["kernel_pairs"]
    }
    counters = registry.snapshot()["counters"]
    for level in {row["level"] for row in report}:
        rows = [row for row in report if row["level"] == level]
        prefix = f"merge.tree.level{level}"
        assert counters[f"{prefix}.pruned_pairs"] == sum(row["pruned_pairs"] for row in rows)
        assert counters[f"{prefix}.kernel_pairs"] == sum(row["kernel_pairs"] for row in rows)
    # same seed, same trace: flush points are a function of the input only
    with with_budget(997):
        rerun = Telemetry()
        run_cluster(rerun).live_merge()
    assert rerun.sim_fingerprint() == telemetry.sim_fingerprint()
    # priced on arrival (budget 1) the run records the very same events, each
    # with the same counts and the same stamp; only their position moves
    with with_budget(1):
        per_batch = Telemetry()
        run_cluster(per_batch).live_merge()
    assert sorted(event.sim_view() for event in tree_events(per_batch)) == sorted(
        event.sim_view() for event in events
    )
    assert len(per_batch.stage_records) == len(telemetry.stage_records)


def test_a_metrics_snapshot_is_settled_and_coherent():
    # the registry resolves its sources (cluster.merge reads the pair counts,
    # which settles) before it copies the counters: one snapshot never shows
    # tree counters trailing the node report it carries
    telemetry = Telemetry()
    cluster = run_cluster(telemetry)
    assert cluster.streaming_merger.pending_nodes > 0
    snapshot = telemetry.registry.snapshot()
    assert snapshot["gauges"]["merge.pending_nodes"] == 0
    nodes = snapshot["sources"]["cluster.merge"]["nodes"]
    for kind in ("pruned_pairs", "kernel_pairs"):
        counted = sum(
            value
            for name, value in snapshot["counters"].items()
            if name.startswith("merge.tree.level") and name.endswith(kind)
        )
        assert counted == sum(row[kind] for row in nodes) > 0


def test_pending_nodes_tracks_how_far_pricing_trails_observation():
    rng = np.random.default_rng(3)
    model, shard_clients = build_model(3, 2, rng)
    streams = build_streams(shard_clients, 4, rng)
    telemetry = Telemetry()
    streaming = CrossShardMerger(model, telemetry=telemetry).streaming_merger(num_shards=3)
    gauge = telemetry.registry.gauge("merge.pending_nodes")
    for count, (shard, batch) in enumerate(random_interleaving(streams, rng), 1):
        streaming.observe_batch(shard, batch)
        assert streaming.pending_nodes == gauge.value == count
    assert telemetry.registry.counter("merge.price_blocks").value == 0
    assert streaming.cross_pairs_evaluated + streaming.cross_pairs_pruned > 0  # a reader settles
    assert streaming.pending_nodes == gauge.value == 0
    assert telemetry.registry.counter("merge.price_blocks").value == 1


def test_engine_stats_readers_settle_pending_rows():
    # the EngineStats object is shared with the CrossShardMerger (and summed
    # into the cluster's): reading it there must not trail the observations
    cluster = run_cluster(None)
    streaming = cluster.streaming_merger
    assert streaming.pending_nodes > 0
    merged = cluster.engine_stats()
    assert streaming.pending_nodes == 0
    assert merged.pruned_pairs == streaming.cross_pairs_pruned > 0

    rng = np.random.default_rng(5)
    model, shard_clients = build_model(3, 2, rng)
    merger = CrossShardMerger(model)
    streaming = merger.streaming_merger(num_shards=3)
    for shard, batch in random_interleaving(build_streams(shard_clients, 4, rng), rng):
        streaming.observe_batch(shard, batch)
    assert streaming.pending_nodes > 0
    assert merger.engine_stats.vectorized_evaluations > 0
    assert streaming.pending_nodes == 0


# --------------------------------------------------------------------- pinned
#: sha256 of ``repr(outcome.fingerprint())``, computed at the last commit that
#: priced every batch on arrival (it is ``bench/``'s ``acked-4shard`` oracle
#: digest: same population, same renumbering of message ids)
PINNED_ACKED_DIGEST = "1b7c29fe24b40e481801ec75a09734788ae79ac9f11d66bcdd366c71f01f3c2c"


def test_pinned_acked_cluster_run_at_ledger_size():
    scenario = build_cluster_scenario(num_clients=64, messages_per_client=22, seed=13)
    workload = ClusterWorkload.from_scenario(scenario, num_shards=4, config=TommyConfig(seed=13))
    workload = dataclasses.replace(
        workload,
        messages=tuple(
            dataclasses.replace(message, message_id=index)
            for index, message in enumerate(workload.messages)
        ),
    )
    outcome = SimBackend().run(workload)
    digest = hashlib.sha256(repr(outcome.fingerprint()).encode()).hexdigest()
    assert digest == PINNED_ACKED_DIGEST
    counts = (1009, 24_029, 356_658)
    streams = outcome.shard_batches
    assert sum(len(stream) for stream in streams) == counts[0]
    assert (outcome.merge.cross_pairs_evaluated, outcome.merge.cross_pairs_pruned) == counts[1:]

    router = build_router(workload.client_distributions, workload.num_shards, workload.policy)
    merger, _, streaming = build_merge(workload.client_distributions, workload.config, router)
    offline = merger.merge(streams)
    assert merge_fingerprint(offline) == outcome.fingerprint()
    assert (offline.cross_pairs_evaluated, offline.cross_pairs_pruned) == counts[1:]
    calls = []
    with record_price_calls(calls):
        for shard, batch in random_interleaving(streams, np.random.default_rng(13)):
            streaming.observe_batch(shard, batch)
        shuffled = streaming.result()
    assert merge_fingerprint(shuffled) == outcome.fingerprint()
    assert (shuffled.cross_pairs_evaluated, shuffled.cross_pairs_pruned) == counts[1:]
    # a count, not a time: 1009 nodes are three blocks, not 1008 passes
    assert calls == [(0, 512), (512, 829), (829, 1009)]
