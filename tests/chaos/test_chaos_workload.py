"""The packaged chaos workload: determinism and per-fault invariants."""

import pytest

from repro.experiments.chaos_sweep import run_chaos_sweep
from repro.workloads.chaos import (
    FAULT_NAMES,
    ChaosSettings,
    run_chaos_scenario,
    standard_fault_schedule,
)

SMALL = ChaosSettings(num_clients=8, num_shards=2, messages_per_client=3, seed=11)


#: Counts every SMALL row shares: no duplication, holding, delay, clock step or
#: probe blackout is armed, and every message reaches the merged order once.
_SMALL_ROW = {
    "intensity": 1.0,
    "shards": 2,
    "clients": 8,
    "sent": 24,
    "duplicated": 0,
    "dup_suppressed": 0,
    "held": 0,
    "delayed": 0,
    "clock_steps": 0,
    "probes_suppressed": 0,
    "refreshes": 32,
    "exactly_once": True,
    "streaming_parity": True,
}

#: ``run_chaos_scenario(fault, settings=SMALL).as_row()``, exactly.
PINNED_SMALL_ROWS = {
    "none": {
        **_SMALL_ROW,
        "fault": "none",
        "delivered": 24,
        "lost": 0,
        "failovers": 0,
        "rejoins": 0,
        "replayed": 0,
        "batches": 19,
        "merged_cross_shard": 3,
        "pruned_pairs": 46,
        "ras_normalized": 0.9638,
    },
    "loss": {
        **_SMALL_ROW,
        "fault": "loss",
        "delivered": 22,
        "lost": 2,
        "failovers": 0,
        "rejoins": 0,
        "replayed": 0,
        "batches": 18,
        "merged_cross_shard": 2,
        "pruned_pairs": 42,
        "ras_normalized": 0.9654,
    },
    "crash": {
        **_SMALL_ROW,
        "fault": "crash",
        "delivered": 24,
        "lost": 0,
        "failovers": 1,
        "rejoins": 1,
        "replayed": 4,
        "batches": 21,
        "merged_cross_shard": 1,
        "pruned_pairs": 55,
        "ras_normalized": 0.9529,
    },
}


@pytest.mark.parametrize("fault", sorted(PINNED_SMALL_ROWS))
def test_small_row_is_pinned(fault):
    """The harness's fixed timing (gap, clock spread, channel delay, probe
    count, heartbeat interval) and its fault sizing give these rows exactly."""
    assert run_chaos_scenario(fault=fault, settings=SMALL).as_row() == PINNED_SMALL_ROWS[fault]


def test_same_seed_same_report():
    first = run_chaos_scenario(fault="crash", settings=SMALL).as_row()
    second = run_chaos_scenario(fault="crash", settings=SMALL).as_row()
    assert first == second


def test_different_seed_different_report():
    other = ChaosSettings(num_clients=8, num_shards=2, messages_per_client=3, seed=12)
    assert (
        run_chaos_scenario(fault="loss", intensity=4.0, settings=SMALL).as_row()
        != run_chaos_scenario(fault="loss", intensity=4.0, settings=other).as_row()
    )


def test_control_run_is_clean():
    report = run_chaos_scenario(fault="none", settings=SMALL)
    assert report.messages_lost == 0
    assert report.messages_duplicated == 0
    assert report.failovers == 0
    assert report.exactly_once
    assert report.streaming_parity


@pytest.mark.parametrize("fault", [name for name in FAULT_NAMES if name != "none"])
def test_every_fault_keeps_exactly_once_and_streaming_parity(fault):
    report = run_chaos_scenario(fault=fault, intensity=2.0, settings=SMALL)
    assert report.exactly_once
    assert report.streaming_parity
    assert report.messages_delivered == report.messages_sent - report.messages_lost


def test_loss_fault_actually_loses_messages():
    report = run_chaos_scenario(fault="loss", intensity=4.0, settings=SMALL)
    assert report.messages_lost > 0
    # lost messages are excluded from scoring, not silently forgiven
    assert report.messages_delivered < report.messages_sent


def test_duplication_is_absorbed_by_exactly_once_intake():
    report = run_chaos_scenario(fault="duplication", intensity=3.0, settings=SMALL)
    assert report.messages_duplicated > 0
    assert report.duplicates_suppressed == report.messages_duplicated
    assert report.exactly_once
    assert report.messages_lost == 0


def test_crash_fault_fails_over_and_rejoins():
    report = run_chaos_scenario(fault="crash", settings=SMALL)
    assert report.failovers >= 1
    assert report.rejoins >= 1
    assert report.exactly_once
    assert report.streaming_parity
    assert report.messages_lost == 0


def test_blackout_suppresses_probes_and_refreshes():
    noisy = run_chaos_scenario(fault="blackout", intensity=2.0, settings=SMALL)
    control = run_chaos_scenario(fault="none", settings=SMALL)
    assert noisy.probes_suppressed > 0
    assert noisy.distribution_refreshes < control.distribution_refreshes


def test_schedule_builder_rejects_unknown_and_crash_on_one_shard():
    with pytest.raises(ValueError):
        standard_fault_schedule("gremlins", 1.0, 1.0, ("a",), SMALL)
    single = ChaosSettings(num_clients=4, num_shards=1, seed=0)
    with pytest.raises(ValueError):
        standard_fault_schedule("crash", 1.0, 1.0, ("a",), single)


def test_sweep_rows_carry_ras_delta_and_skip_crash_on_one_shard():
    rows = run_chaos_sweep(
        faults=("none", "loss", "crash"),
        intensities=(2.0,),
        shard_counts=(1,),
        num_clients=6,
        messages_per_client=2,
        seed=5,
    )
    assert [row["fault"] for row in rows] == ["none", "loss"]  # crash skipped at 1 shard
    assert rows[0]["ras_delta"] == 0.0
    assert all("ras_delta" in row for row in rows)


def test_sweep_rejects_unknown_fault():
    with pytest.raises(ValueError):
        run_chaos_sweep(faults=("loss", "gremlins"))
