"""Tests for the end-to-end online experiment runner."""

import pytest

from repro.core.config import TommyConfig
from repro.experiments.ablations import run_psafe_sweep
from repro.experiments.online_runner import OnlineExperimentSettings, run_online_experiment


def test_online_experiment_sequences_every_message():
    settings = OnlineExperimentSettings(num_clients=5, messages_per_client=2, run_duration=2.0, seed=3)
    outcome = run_online_experiment(settings)
    assert outcome.comparison.batches.message_count == 10
    assert outcome.emitted_batches >= 1
    assert outcome.latency.count == 10
    assert outcome.latency.mean > 0


def test_appendix_c_setting_emits_every_message_with_few_inversions():
    # ten clients' bursts over jittery channels, heartbeat completeness and a
    # deep p_safe: every message is emitted, and the pairs it decides are
    # almost all right
    settings = OnlineExperimentSettings(
        num_clients=10,
        messages_per_client=3,
        clock_std=0.0008,
        config=TommyConfig(p_safe=0.999, completeness_mode="heartbeat"),
        run_duration=4.0,
        seed=11,
    )
    outcome = run_online_experiment(settings)
    assert outcome.comparison.batches.message_count == 30
    assert outcome.latency.count == 30
    assert outcome.latency.mean > 0
    ras = outcome.comparison.ras
    assert (ras.correct_pairs, ras.incorrect_pairs, ras.indifferent_pairs) == (237, 2, 196)
    assert outcome.emitted_batches == 3


def test_online_experiment_row_is_table_ready():
    outcome = run_online_experiment(OnlineExperimentSettings(num_clients=4, run_duration=1.5, seed=5))
    row = outcome.as_row()
    assert {"mean_latency", "p95_latency", "emitted_batches", "ras"} <= set(row)


#: ``(rank, emitted_at, ((client_id, sequence_number), ...))`` per batch of
#: ``run_online_experiment(OnlineExperimentSettings(num_clients=4,
#: run_duration=1.5, seed=5))``; heartbeats take sequence numbers too.
PINNED_BATCHES = [
    (0, 0.0031764015688281796, (("client-000", 2),)),
    (1, 0.003482345687948903, (("client-001", 2),)),
    (2, 0.004341325878155006, (("client-002", 3),)),
    (
        3,
        0.006220795073119261,
        (("client-001", 5), ("client-003", 3), ("client-000", 5), ("client-002", 6)),
    ),
    (
        4,
        0.007448962345446554,
        (("client-003", 6), ("client-000", 8), ("client-002", 9), ("client-001", 8)),
    ),
    (5, 0.009301836918706105, (("client-003", 9),)),
]
PINNED_METADATA = {
    "sequencer": "tommy-online",
    "p_safe": 0.999,
    "threshold": 0.75,
    "completeness_mode": "heartbeat",
    "extensions": 0,
    "distribution_refreshes": 0,
    "pending": 0,
    "engine": {
        "vectorized_evaluations": 18,
        "table_evaluations": 0,
        "scalar_evaluations": 0,
        "pair_tables_built": 0,
        "rows_appended": 12,
        "rows_removed": 12,
        "group_computations": 40,
        "candidate_reuses": 8,
        "cycle_resolutions": 0,
        "rebuilds": 0,
        "quantile_cache_hits": 73,
        "quantile_cache_misses": 4,
        "pruned_pairs": 0,
    },
}


def test_online_experiment_batches_and_metadata_are_pinned():
    """The runner's fixed message spacing, channel delay and heartbeat
    interval give exactly these batches, emission times and counters."""
    settings = OnlineExperimentSettings(num_clients=4, run_duration=1.5, seed=5)
    result = run_online_experiment(settings).comparison.result
    batches = [
        (
            batch.rank,
            batch.emitted_at,
            tuple((message.client_id, message.sequence_number) for message in batch.messages),
        )
        for batch in result.batches
    ]
    assert batches == PINNED_BATCHES
    assert result.metadata == PINNED_METADATA


def test_higher_p_safe_increases_latency():
    low = run_online_experiment(
        OnlineExperimentSettings(num_clients=4, config=TommyConfig(p_safe=0.9), run_duration=3.0, seed=7)
    )
    high = run_online_experiment(
        OnlineExperimentSettings(num_clients=4, config=TommyConfig(p_safe=0.9999), run_duration=3.0, seed=7)
    )
    assert high.latency.mean >= low.latency.mean


def test_p_safe_sweep_latency_never_falls_and_every_setting_decides_every_pair():
    rows = run_psafe_sweep(p_safe_values=(0.9, 0.99, 0.999, 0.9999), num_clients=6, seed=11)
    latencies = [row["mean_latency"] for row in rows]
    assert latencies == sorted(latencies)
    assert all(latency > 0 for latency in latencies)
    # 6 clients x 3 messages: every setting sequences all 153 pairs, with far
    # more of them right than inverted
    for row in rows:
        assert row["correct_pairs"] + row["incorrect_pairs"] + row["indifferent_pairs"] == 153
        assert row["correct_pairs"] > row["incorrect_pairs"]
    assert [
        (row["ras"], row["correct_pairs"], row["incorrect_pairs"], row["batches"]) for row in rows
    ] == [(113, 114, 1, 4)] * 4


def test_invalid_settings_rejected():
    with pytest.raises(ValueError):
        OnlineExperimentSettings(num_clients=0)
    with pytest.raises(ValueError):
        OnlineExperimentSettings(run_duration=0.0)
