"""MERGE — flattened cross-shard merge kernel vs the frozen pairwise merger.

Builds one seeded 8-shard workload of emitted batch streams (Gaussian
clients, time-localised batches — the shape a real cluster drain has) and
merges it twice:

* **fast** — the current :class:`repro.cluster.merge.CrossShardMerger`: all
  messages flattened into one vectorized cross-probability evaluation,
  batch-pair means by ``np.add.reduceat`` segment reductions,
  certainty-window pruning for batch pairs that cannot overlap, and a numpy
  Kahn linearisation (cyclic tournaments are broken on the direction matrix);
* **pairwise** — the frozen pre-kernel implementation
  (``benchmarks/_pairwise_merge_baseline.py``): one
  ``cross_probability_matrix`` call per cross-shard batch pair inside an
  ``O(S^2 B^2)`` Python quadruple loop plus a from-scratch networkx rebuild.

Asserted:

* **parity** — identical merged orders (ranks, message keys, coalescing);
* **streaming parity** — a :class:`repro.cluster.merge.StreamingMerger`
  observing the same batches in an *interleaved shard order* reproduces the
  offline merge byte-for-byte, both mid-stream and at the end;
* **pruning** — the time-localised workload resolves a nontrivial fraction
  of batch pairs by window pruning alone;

Recorded, not asserted: **speed** — the wall-clock ``speedup`` goes into the
row and is gated against ``baselines.json`` by ``check_regression.py``; an
in-test wall-clock floor made tier-1 flaky.

``MERGE_BENCH_BATCHES`` overrides the per-shard batch count (the CI smoke
step runs 16).
"""

import os
import time

import numpy as np

# _bench_utils first: it makes the baseline's graph oracle importable
from _bench_utils import BENCH_SEED, emit

import _pairwise_merge_baseline as baseline

from repro.cluster.merge import CrossShardMerger
from repro.core.probability import PrecedenceModel
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage

NUM_SHARDS = 8
NUM_BATCHES = int(os.environ.get("MERGE_BENCH_BATCHES", "64"))
CLIENTS_PER_SHARD = 3
MESSAGES_PER_BATCH = 3
BATCH_GAP = 0.02


def build_workload():
    """Seeded per-shard batch streams plus the client distribution map."""
    rng = np.random.default_rng(BENCH_SEED)
    distributions = {}
    shard_clients = []
    for shard in range(NUM_SHARDS):
        clients = []
        for local in range(CLIENTS_PER_SHARD):
            client_id = f"s{shard}-c{local}"
            sigma = float(rng.uniform(0.002, 0.008))
            bias = float(rng.normal(0.0, 0.001))
            distributions[client_id] = GaussianDistribution(bias, sigma)
            clients.append(client_id)
        shard_clients.append(clients)
    streams = []
    message_id = 30_000_000
    for shard in range(NUM_SHARDS):
        stream = []
        for index in range(NUM_BATCHES):
            # deterministic per-shard stagger plus small jitter: shard streams
            # interleave densely (real coalescing work for the merge) while
            # the batch-level tournament stays transitive, the common case a
            # drain of time-ordered emissions produces
            base = (
                index * BATCH_GAP
                + shard * BATCH_GAP / NUM_SHARDS
                + float(rng.uniform(0.0, 0.1 * BATCH_GAP))
            )
            messages = []
            for _ in range(MESSAGES_PER_BATCH):
                client = shard_clients[shard][int(rng.integers(CLIENTS_PER_SHARD))]
                timestamp = base + float(rng.uniform(0.0, 0.25 * BATCH_GAP))
                messages.append(
                    TimestampedMessage(
                        client_id=client,
                        timestamp=timestamp,
                        true_time=timestamp,
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


def interleaved_observation(streams, rng):
    """A shard-interleaved observation order respecting per-shard rank order."""
    cursors = [0] * len(streams)
    remaining = sum(len(stream) for stream in streams)
    observations = []
    while remaining:
        candidates = [s for s, stream in enumerate(streams) if cursors[s] < len(stream)]
        shard = candidates[int(rng.integers(len(candidates)))]
        observations.append((shard, streams[shard][cursors[shard]]))
        cursors[shard] += 1
        remaining -= 1
    return observations


def run_once():
    distributions, streams = build_workload()

    fast_merger = CrossShardMerger(model_for(distributions), seed=BENCH_SEED)
    start = time.perf_counter()
    fast = fast_merger.merge(streams)
    fast_wall = time.perf_counter() - start

    pairwise_merger = baseline.CrossShardMerger(model_for(distributions), seed=BENCH_SEED)
    start = time.perf_counter()
    pairwise = pairwise_merger.merge(streams)
    pairwise_wall = time.perf_counter() - start

    # streaming: observe the same batches in an interleaved shard order and
    # check parity both mid-stream and at the end
    streaming = CrossShardMerger(model_for(distributions), seed=BENCH_SEED).streaming_merger(
        num_shards=NUM_SHARDS
    )
    observations = interleaved_observation(streams, np.random.default_rng(BENCH_SEED + 1))
    halfway = len(observations) // 2
    start = time.perf_counter()
    for position, (shard, batch) in enumerate(observations):
        streaming.observe_batch(shard, batch)
        if position + 1 == halfway:
            observed = [
                [b for s, b in observations[:halfway] if s == shard_index]
                for shard_index in range(NUM_SHARDS)
            ]
            midstream_oracle = CrossShardMerger(
                model_for(distributions), seed=BENCH_SEED
            ).merge(observed)
            midstream_parity = fingerprint(streaming.result()) == fingerprint(midstream_oracle)
    final = streaming.result()
    streaming_wall = time.perf_counter() - start

    cross_pairs_total = fast.cross_pairs_evaluated + fast.cross_pairs_pruned
    return {
        "shards": NUM_SHARDS,
        "batches_per_shard": NUM_BATCHES,
        "merged_batches": fast.batch_count,
        "parity": fingerprint(fast) == fingerprint(pairwise),
        "streaming_parity": fingerprint(final) == fingerprint(fast),
        "midstream_parity": midstream_parity,
        "fast_wall_s": round(fast_wall, 4),
        "pairwise_wall_s": round(pairwise_wall, 4),
        "streaming_wall_s": round(streaming_wall, 4),
        "speedup": round(pairwise_wall / max(fast_wall, 1e-9), 2),
        "cross_pairs": cross_pairs_total,
        "kernel_pairs": fast.cross_pairs_evaluated,
        "pruned_pairs": fast.cross_pairs_pruned,
        "pruned_fraction": round(fast.cross_pairs_pruned / max(cross_pairs_total, 1), 3),
        "cycles_broken": fast.cycles_broken,
    }


def test_merge_kernel_matches_pairwise_and_is_faster(benchmark):
    row = benchmark.pedantic(run_once, rounds=1, iterations=1)
    emit(
        "Flattened cross-shard merge kernel vs frozen pairwise merger",
        [row],
        benchmark="merge_kernel",
        wall_time=row["fast_wall_s"] + row["pairwise_wall_s"] + row["streaming_wall_s"],
    )
    assert row["parity"], "flattened kernel diverged from the pairwise reference order"
    assert row["streaming_parity"], "streaming merger diverged from the offline merge"
    assert row["midstream_parity"], "streaming merger diverged mid-stream"
    assert row["merged_batches"] > 0
    # every cross-shard batch pair was priced exactly once, one way or another
    assert row["cross_pairs"] == (NUM_SHARDS * (NUM_SHARDS - 1) // 2) * NUM_BATCHES**2
    # the time-localised stream resolves a solid fraction by windows alone
    # (shorter smoke streams have proportionally fewer far-apart pairs)
    assert row["pruned_fraction"] > (0.25 if NUM_BATCHES >= 64 else 0.1)
