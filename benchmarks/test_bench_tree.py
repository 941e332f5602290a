"""TREE — hierarchical merge tree vs the flat kernel at wide shard counts.

Builds one seeded wide-cluster workload of emitted batch streams (64 shards
by default — the regime the log-depth tree targets) and merges it twice:

* **flat** — the existing :class:`repro.cluster.merge.CrossShardMerger`
  flattened kernel: one global forward matrix over every message pair;
* **tree** — :class:`repro.cluster.tree.HierarchicalMerger` over a balanced
  binary :class:`~repro.cluster.tree.MergeTopology`: each cross-shard batch
  pair priced at its LCA node, whole-grid window pruning first, then
  time-local chunked kernel calls sized to ``DEFAULT_CHUNK_ELEMENTS``.

The workload gives every batch a shared per-message timestamp on a
deterministic shard-staggered grid (no jitter), so the batch tournament is
provably transitive — parity cannot hinge on tie-breaking randomness.

Asserted:

* **parity** — the tree merge is byte-identical to the flat merge (order,
  counters, coalescing);
* **pruning** — the time-localised streams resolve most batch pairs by
  certainty windows alone;

Recorded, not asserted: **speed** — the wall-clock ``speedup`` over flat
(both sides timed best-of-``TIMING_ROUNDS`` with a fresh merger per round)
goes into the row and is gated against ``baselines.json`` by
``check_regression.py``; an in-test wall-clock floor made tier-1 flaky.

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
# shared-runner contention) cannot sink the speedup ratio
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


def timed_merge(build_merger, streams):
    """Best-of-``TIMING_ROUNDS`` wall clock; the merge outcome is identical
    every round (deterministic), so any round's result serves for parity."""
    best_wall = float("inf")
    outcome = None
    for _ in range(TIMING_ROUNDS):
        merger = build_merger()
        start = time.perf_counter()
        outcome = merger.merge(streams)
        best_wall = min(best_wall, time.perf_counter() - start)
    return outcome, best_wall


def run_once():
    distributions, streams = build_workload()

    flat, flat_wall = timed_merge(
        lambda: CrossShardMerger(model_for(distributions), seed=BENCH_SEED), streams
    )

    topology = MergeTopology.balanced(NUM_SHARDS, fanout=FANOUT)
    tree, tree_wall = timed_merge(
        lambda: CrossShardMerger(model_for(distributions), seed=BENCH_SEED).tree_merger(
            topology
        ),
        streams,
    )

    cross_pairs_total = tree.cross_pairs_evaluated + tree.cross_pairs_pruned
    return {
        "shards": NUM_SHARDS,
        "batches_per_shard": NUM_BATCHES,
        "fanout": FANOUT,
        "depth": topology.depth,
        "merged_batches": tree.batch_count,
        "parity": fingerprint(tree) == fingerprint(flat),
        "counter_parity": (
            tree.cross_pairs_evaluated == flat.cross_pairs_evaluated
            and tree.cross_pairs_pruned == flat.cross_pairs_pruned
        ),
        "flat_wall_s": round(flat_wall, 4),
        "tree_wall_s": round(tree_wall, 4),
        "speedup": round(flat_wall / max(tree_wall, 1e-9), 2),
        "cross_pairs": cross_pairs_total,
        "kernel_pairs": tree.cross_pairs_evaluated,
        "pruned_pairs": tree.cross_pairs_pruned,
        "pruned_fraction": round(tree.cross_pairs_pruned / max(cross_pairs_total, 1), 3),
        "cycles_broken": tree.cycles_broken,
    }


def test_tree_merge_matches_flat_and_is_faster_at_wide_clusters(benchmark):
    row = benchmark.pedantic(run_once, rounds=1, iterations=1)
    emit(
        "Hierarchical merge tree vs flat kernel at wide shard counts",
        [row],
        benchmark="tree_merge",
        wall_time=row["flat_wall_s"] + row["tree_wall_s"],
    )
    assert row["parity"], "tree merge diverged from the flat merge order"
    assert row["counter_parity"], "tree merge counters diverged from flat"
    assert row["merged_batches"] > 0
    assert row["cycles_broken"] == 0, "staggered-grid workload must stay transitive"
    # every cross-shard batch pair was priced exactly once, one way or another
    assert row["cross_pairs"] == (NUM_SHARDS * (NUM_SHARDS - 1) // 2) * NUM_BATCHES**2
    # the time-localised streams resolve most pairs by windows alone
    assert row["pruned_fraction"] > (0.5 if NUM_BATCHES >= 32 else 0.25)
