"""Tests for the static-Gaussian vs live-learned experiment sweep."""

import pytest

from repro.experiments.learned_sweep import run_learned_sweep

#: ``run_learned_sweep(probe_budgets=(probes,), num_clients=8, seed=23)`` rows
#: without their wall-clock column: ``mode -> (ras, ras_normalized,
#: incorrect_pairs, batches, refreshes, table_evals, scalar_evals)``.
PINNED_ROWS = {
    24: {
        "static-gaussian": (14, 0.1167, 7, 2, 0, 0, 0),
        "live-learned": (67, 0.5583, 7, 5, 8, 320, 0),
        "oracle-seeded": (69, 0.575, 3, 3, 0, 81, 0),
    },
    96: {
        "static-gaussian": (0, 0.0, 0, 1, 0, 0, 0),
        "live-learned": (73, 0.6083, 5, 4, 48, 715, 0),
        "oracle-seeded": (69, 0.575, 3, 3, 0, 81, 0),
    },
}
PINNED_COLUMNS = (
    "ras",
    "ras_normalized",
    "incorrect_pairs",
    "batches",
    "refreshes",
    "table_evals",
    "scalar_evals",
)


def test_sweep_produces_all_modes_and_live_learning_beats_static():
    rows = run_learned_sweep(
        probe_budgets=(24,),
        num_clients=8,
        messages_per_client=2,
        seed=23,
    )
    by_mode = {row["mode"]: row for row in rows}
    assert set(by_mode) == {"static-gaussian", "live-learned", "oracle-seeded"}
    static = by_mode["static-gaussian"]
    live = by_mode["live-learned"]
    oracle = by_mode["oracle-seeded"]
    # the live pipeline actually refreshed the running sequencer ...
    assert live["refreshes"] > 0
    assert static["refreshes"] == 0
    # ... through the vectorized table kernel, never the scalar fallback
    assert live["table_evals"] > 0
    assert live["scalar_evals"] == 0
    # and recovered fairness the mis-fitted static guess cannot express
    assert live["ras_normalized"] > static["ras_normalized"]
    assert oracle["ras_normalized"] > static["ras_normalized"]


def test_sweep_rows_carry_probe_budget():
    rows = run_learned_sweep(probe_budgets=(16, 32), num_clients=6, seed=11)
    budgets = sorted({row["probes_per_client"] for row in rows})
    assert budgets == [16, 32]
    assert len(rows) == 6


@pytest.mark.parametrize("probes", sorted(PINNED_ROWS))
def test_sweep_rows_are_pinned(probes):
    """The workload's congestion bias, the refresh cadence, the estimator's
    round-trip filter and the sequencer configuration are fixed; together
    they give exactly these rows."""
    rows = run_learned_sweep(probe_budgets=(probes,), num_clients=8, seed=23)
    assert all(row["probes_per_client"] == probes for row in rows)
    assert {
        row["mode"]: tuple(row[column] for column in PINNED_COLUMNS) for row in rows
    } == PINNED_ROWS[probes]
