"""Tests for the cluster shard-count x client-count sweep."""

import pytest

from repro.experiments.cluster_sweep import (
    ClusterRunOutcome,
    run_cluster_scenario,
    run_cluster_sweep,
)

# Merged orders of two sweep scenarios as ``(client_id, sequence_number)``
# per batch (message keys carry a process-global counter, so they are not
# stable across test orderings).
ORDER_16x2_SEED2 = [
    (("client-0002", 1),),
    (("client-0000", 1), ("client-0001", 1)),
    (("client-0003", 1),),
    (("client-0004", 1),),
    (("client-0006", 1), ("client-0005", 1)),
    (("client-0007", 1), ("client-0009", 1), ("client-0008", 1)),
    (("client-0010", 1),),
    (("client-0011", 1), ("client-0013", 1), ("client-0012", 1)),
    (("client-0014", 1), ("client-0015", 1), ("client-0001", 2)),
    (("client-0000", 2),),
    (("client-0004", 2), ("client-0003", 2)),
    (("client-0005", 2), ("client-0006", 2)),
    (("client-0007", 2), ("client-0002", 2), ("client-0008", 2)),
    (("client-0010", 2), ("client-0009", 2), ("client-0011", 2)),
    (("client-0012", 2),),
    (("client-0014", 2),),
    (("client-0015", 2), ("client-0013", 2)),
]

ORDER_24x4_SEED6_BINARY = [
    (("client-0000", 1),),
    (("client-0001", 1),),
    (("client-0002", 1),),
    (
        ("client-0005", 1),
        ("client-0003", 1),
        ("client-0004", 1),
        ("client-0006", 1),
        ("client-0008", 1),
        ("client-0007", 1),
    ),
    (("client-0009", 1),),
    (("client-0010", 1),),
    (("client-0012", 1), ("client-0011", 1), ("client-0013", 1)),
    (("client-0016", 1),),
    (
        ("client-0017", 1),
        ("client-0014", 1),
        ("client-0015", 1),
        ("client-0018", 1),
        ("client-0019", 1),
    ),
    (("client-0020", 1),),
    (("client-0000", 2), ("client-0021", 1), ("client-0022", 1)),
    (("client-0023", 1), ("client-0001", 2)),
    (
        ("client-0002", 2),
        ("client-0003", 2),
        ("client-0008", 2),
        ("client-0006", 2),
        ("client-0005", 2),
    ),
    (("client-0007", 2), ("client-0011", 2), ("client-0004", 2)),
    (("client-0009", 2), ("client-0010", 2)),
    (("client-0015", 2), ("client-0013", 2), ("client-0012", 2)),
    (("client-0016", 2),),
    (
        ("client-0017", 2),
        ("client-0014", 2),
        ("client-0018", 2),
        ("client-0020", 2),
        ("client-0019", 2),
    ),
    (("client-0021", 2),),
    (("client-0022", 2),),
    (("client-0023", 2),),
]


def merged_order(outcome):
    return [
        tuple((message.client_id, message.sequence_number) for message in batch.messages)
        for batch in outcome.merge.result.batches
    ]


def test_single_run_reports_complete_outcome():
    outcome = run_cluster_scenario(num_clients=16, num_shards=2, seed=2)
    assert isinstance(outcome, ClusterRunOutcome)
    assert outcome.num_shards == 2
    assert outcome.message_count == 32
    assert sum(outcome.per_shard_emitted) == 32
    assert outcome.comparison.result.message_count == 32
    assert outcome.failovers == 0
    assert outcome.per_shard_throughput > 0
    assert outcome.total_throughput == outcome.per_shard_throughput * 2


def test_sweep_rows_have_report_schema():
    rows = run_cluster_sweep(shard_counts=(1, 2), client_counts=(12,), seed=2)
    assert len(rows) == 2
    expected_keys = {
        "shards",
        "clients",
        "policy",
        "runtime",
        "workers",
        "merge_topology",
        "ras",
        "ras_normalized",
        "incorrect_pairs",
        "batches",
        "merged_cross_shard",
        "merge_latency_ms",
        "pruned_pairs",
        "streaming_ms",
        "streaming_parity",
        "restarts",
        "lost_shards",
        "shard_throughput",
        "total_throughput",
        "wall_seconds",
    }
    for row in rows:
        assert set(row) == expected_keys
        # the live streaming merge reproduces the offline re-merge exactly
        assert row["streaming_parity"] is True
        assert row["streaming_ms"] is not None
    assert [row["shards"] for row in rows] == [1, 2]
    # single shard needs no cross-shard merging, multi-shard uses region placement
    assert rows[0]["merged_cross_shard"] == 0
    assert rows[0]["policy"] == "hash"
    assert rows[1]["policy"] == "region"


def test_sweep_quality_holds_across_shard_counts():
    rows = run_cluster_sweep(shard_counts=(1, 4), client_counts=(24,), seed=6)
    by_shards = {row["shards"]: row for row in rows}
    # merged cross-shard order stays within a small margin of single-shard fairness
    assert by_shards[4]["ras_normalized"] >= by_shards[1]["ras_normalized"] - 0.05
    assert by_shards[4]["ras"] > 0


@pytest.mark.parametrize(
    "num_clients, num_shards, seed, merge_topology, expected",
    [
        (16, 2, 2, "flat", ORDER_16x2_SEED2),
        (24, 4, 6, "binary", ORDER_24x4_SEED6_BINARY),
    ],
    ids=["16x2-flat", "24x4-binary"],
)
def test_sweep_merged_order_is_pinned(num_clients, num_shards, seed, merge_topology, expected):
    outcome = run_cluster_scenario(
        num_clients=num_clients,
        num_shards=num_shards,
        seed=seed,
        merge_topology=merge_topology,
    )
    assert merged_order(outcome) == expected
    assert outcome.streaming_parity is True


def test_procs_runtime_reports_streaming_parity():
    outcome = run_cluster_scenario(num_clients=8, num_shards=2, runtime="procs")
    assert outcome.runtime == "procs"
    assert outcome.streaming_parity is True
    assert outcome.as_row()["streaming_ms"] >= 0
