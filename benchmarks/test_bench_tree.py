"""TREE — one pricing path at wide shard counts: offline, flat replay, tree replay.

Builds one seeded wide-cluster workload of emitted batch streams (64 shards
by default — the width merge trees are meant for) and prices it three times
through the one window rule and the one pair-list kernel of
:mod:`repro.cluster.merge`:

* **offline** — :meth:`repro.cluster.merge.CrossShardMerger.merge`: the
  streams appended shard by shard, priced in element-budget blocks;
* **flat replay** — a :class:`~repro.cluster.merge.StreamingMerger` observing
  the batches one by one in emission order (the same blocks, other rows);
* **tree replay** — the same replay under a balanced binary
  :class:`~repro.cluster.tree.MergeTopology`, which attributes every priced
  pair to its lowest common ancestor and prices nothing differently.

The workload gives every batch a shared per-message timestamp on a
deterministic shard-staggered grid (no jitter), so the batch tournament is
provably transitive — parity cannot hinge on tie-breaking randomness.

Asserted:

* **parity** — all three give one merged order, and **counter_parity** the
  same evaluated/pruned pair counts;
* **attribution_parity** — the tree replay's per-node counts sum to the
  totals and equal the attribution of window masks computed here,
  independently, from the certainty windows;
* **pruning** — the time-localised streams resolve most batch pairs by
  certainty windows alone, and every cross-shard pair is priced exactly once.

Recorded, not asserted: the three walls (best-of-``TIMING_ROUNDS``, a fresh
merger per round).  There is no speedup to gate: the tree merger this bench
once raced against the flat active-square kernel was the pair-list kernel,
which is now the only one.

``TREE_BENCH_SHARDS`` / ``TREE_BENCH_BATCHES`` override the cluster width
and per-shard batch count (the CI smoke step runs 32 x 16).
"""

import os
import time

import numpy as np

from _bench_utils import BENCH_SEED, emit

from repro.cluster.merge import CrossShardMerger
from repro.cluster.tree import MergeTopology
from repro.core.probability import PrecedenceModel
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage

NUM_SHARDS = int(os.environ.get("TREE_BENCH_SHARDS", "64"))
NUM_BATCHES = int(os.environ.get("TREE_BENCH_BATCHES", "32"))
CLIENTS_PER_SHARD = 3
MESSAGES_PER_BATCH = 3
BATCH_GAP = 0.02
FANOUT = 2
# best-of-N walls with a fresh merger per round: one noisy round (GC pause,
# shared-runner contention) does not end up in the record
TIMING_ROUNDS = 3


def build_workload():
    """Seeded per-shard batch streams plus the client distribution map."""
    rng = np.random.default_rng(BENCH_SEED)
    distributions = {}
    shard_clients = []
    for shard in range(NUM_SHARDS):
        clients = []
        for local in range(CLIENTS_PER_SHARD):
            client_id = f"s{shard}-c{local}"
            sigma = float(rng.uniform(0.0008, 0.002))
            distributions[client_id] = GaussianDistribution(0.0, sigma)
            clients.append(client_id)
        shard_clients.append(clients)
    streams = []
    message_id = 60_000_000
    for shard in range(NUM_SHARDS):
        stream = []
        for index in range(NUM_BATCHES):
            # shard-staggered grid with *shared* per-batch timestamps: batch
            # means order exactly by emission time, so the tournament is
            # transitive and the merge order is rng-independent
            base = index * BATCH_GAP + shard * BATCH_GAP / NUM_SHARDS
            messages = []
            for _ in range(MESSAGES_PER_BATCH):
                client = shard_clients[shard][int(rng.integers(CLIENTS_PER_SHARD))]
                messages.append(
                    TimestampedMessage(
                        client_id=client,
                        timestamp=base,
                        true_time=base,
                        message_id=message_id,
                    )
                )
                message_id += 1
            stream.append(
                SequencedBatch(rank=index, messages=tuple(messages), emitted_at=base)
            )
        streams.append(stream)
    return distributions, streams


def model_for(distributions):
    model = PrecedenceModel()
    for client_id, distribution in distributions.items():
        model.register_client(client_id, distribution)
    return model


def fingerprint(outcome):
    return [
        (batch.rank, tuple(message.key for message in batch.messages))
        for batch in outcome.result.batches
    ]


def timed(distributions, price):
    """Best-of-``TIMING_ROUNDS`` wall clock of ``price(fresh merger)``.

    The outcome is identical every round (deterministic), so any round's
    result serves for parity.
    """
    best_wall = float("inf")
    priced = None
    for _ in range(TIMING_ROUNDS):
        merger = CrossShardMerger(model_for(distributions), seed=BENCH_SEED)
        start = time.perf_counter()
        priced = price(merger)
        best_wall = min(best_wall, time.perf_counter() - start)
    return priced, best_wall


def replay(merger, streams, topology):
    """A streaming merger that observed ``streams`` in emission order."""
    streaming = merger.streaming_merger(num_shards=NUM_SHARDS, topology=topology)
    emissions = [(shard, batch) for shard, stream in enumerate(streams) for batch in stream]
    for shard, batch in sorted(emissions, key=lambda entry: (entry[1].emitted_at, entry[0])):
        streaming.observe_batch(shard, batch)
    return streaming


def window_attribution(distributions, streams, topology):
    """Per-node (pruned, kernel) pair counts from window masks built here."""
    windows = CrossShardMerger(model_for(distributions)).certainty_windows
    earliest, latest = np.array(
        [windows.batch_window(batch) for stream in streams for batch in stream]
    ).T
    shard = np.repeat(np.arange(len(streams)), [len(stream) for stream in streams])
    upper = shard[:, None] < shard[None, :]
    apart = (earliest[None, :] > latest[:, None]) | (earliest[:, None] > latest[None, :])
    counts = []
    for mask in (upper & apart, upper & ~apart):
        rows, cols = np.nonzero(mask)
        counts.append(topology.attribute(shard[rows], shard[cols]))
    return counts


def run_once():
    distributions, streams = build_workload()
    topology = MergeTopology.balanced(NUM_SHARDS, fanout=FANOUT)

    offline, offline_wall = timed(distributions, lambda merger: merger.merge(streams))
    flat_replay, flat_wall = timed(distributions, lambda merger: replay(merger, streams, None))
    tree_replay, tree_wall = timed(
        distributions, lambda merger: replay(merger, streams, topology)
    )
    flat, tree = flat_replay.result(), tree_replay.result()

    report = {row["node"]: row for row in tree_replay.node_report()}
    pruned_by_node, kernel_by_node = window_attribution(distributions, streams, topology)
    counters = [
        (outcome.cross_pairs_evaluated, outcome.cross_pairs_pruned)
        for outcome in (offline, flat, tree)
    ]
    cross_pairs_total = offline.cross_pairs_evaluated + offline.cross_pairs_pruned
    return {
        "shards": NUM_SHARDS,
        "batches_per_shard": NUM_BATCHES,
        "fanout": FANOUT,
        "depth": topology.depth,
        "merged_batches": offline.batch_count,
        "parity": fingerprint(offline) == fingerprint(flat) == fingerprint(tree),
        "counter_parity": counters[0] == counters[1] == counters[2],
        "attribution_parity": (
            sum(row["kernel_pairs"] for row in report.values()) == counters[0][0]
            and sum(row["pruned_pairs"] for row in report.values()) == counters[0][1]
            and all(
                report[node.node_id]["pruned_pairs"] == pruned_by_node[node.node_id]
                and report[node.node_id]["kernel_pairs"] == kernel_by_node[node.node_id]
                for node in topology.interior_nodes
            )
        ),
        "offline_wall_s": round(offline_wall, 4),
        "flat_replay_wall_s": round(flat_wall, 4),
        "tree_replay_wall_s": round(tree_wall, 4),
        "cross_pairs": cross_pairs_total,
        "kernel_pairs": offline.cross_pairs_evaluated,
        "pruned_pairs": offline.cross_pairs_pruned,
        "pruned_fraction": round(offline.cross_pairs_pruned / max(cross_pairs_total, 1), 3),
        "cycles_broken": offline.cycles_broken,
    }


def test_wide_cluster_pricing_parity_and_attribution(benchmark):
    row = benchmark.pedantic(run_once, rounds=1, iterations=1)
    emit(
        "One pricing path at wide shard counts: offline, flat replay, tree replay",
        [row],
        benchmark="tree_merge",
        wall_time=row["offline_wall_s"] + row["flat_replay_wall_s"] + row["tree_replay_wall_s"],
    )
    assert row["parity"], "offline merge and streaming replays diverged"
    assert row["counter_parity"], "evaluated/pruned pair counts diverged"
    assert row["attribution_parity"], "tree attribution diverged from the window masks"
    assert row["merged_batches"] > 0
    assert row["cycles_broken"] == 0, "staggered-grid workload must stay transitive"
    # every cross-shard batch pair was priced exactly once, one way or another
    assert row["cross_pairs"] == (NUM_SHARDS * (NUM_SHARDS - 1) // 2) * NUM_BATCHES**2
    # the time-localised streams resolve most pairs by windows alone
    assert row["pruned_fraction"] > (0.5 if NUM_BATCHES >= 32 else 0.25)
