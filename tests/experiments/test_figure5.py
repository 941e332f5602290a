"""Tests for the Figure 5 reproduction harness (experiment FIG5)."""

import pytest

from repro.experiments.figure5 import Figure5Settings, figure5_rows, run_figure5, run_figure5_point


SMALL = Figure5Settings(
    num_clients=25,
    sigma_values=(1.0, 60.0),
    gap_values=(5.0, 40.0),
    seed=9,
)

FORTY_CLIENTS = Figure5Settings(
    num_clients=40,
    sigma_values=(1.0, 30.0, 60.0, 90.0, 120.0),
    gap_values=(5.0, 20.0, 80.0),
    seed=7,
)
#: the figure at 40 clients: ``(clock_std, gap) -> (tommy_ras, truetime_ras,
#: tommy_batches, truetime_batches)``
FORTY_CLIENT_POINTS = {
    (1.0, 5.0): (780, 710, 40, 13),
    (30.0, 5.0): (173, 0, 2, 1),
    (60.0, 5.0): (0, 0, 1, 1),
    (90.0, 5.0): (0, 0, 1, 1),
    (120.0, 5.0): (0, 0, 1, 1),
    (1.0, 20.0): (780, 780, 40, 40),
    (30.0, 20.0): (695, 0, 12, 1),
    (60.0, 20.0): (371, 0, 3, 1),
    (90.0, 20.0): (375, 0, 2, 1),
    (120.0, 20.0): (0, 0, 1, 1),
    (1.0, 80.0): (780, 780, 40, 40),
    (30.0, 80.0): (779, 0, 39, 1),
    (60.0, 80.0): (756, 0, 28, 1),
    (90.0, 80.0): (717, 0, 16, 1),
    (120.0, 80.0): (704, 0, 13, 1),
}


def test_sweep_produces_one_point_per_setting():
    points = run_figure5(SMALL)
    assert len(points) == 4
    combos = {(point.clock_std, point.message_gap) for point in points}
    assert combos == {(1.0, 5.0), (60.0, 5.0), (1.0, 40.0), (60.0, 40.0)}


def test_low_clock_error_both_systems_comparable():
    point = run_figure5_point(0.5, 40.0, SMALL)
    max_pairs = point.message_count * (point.message_count - 1) // 2
    assert point.tommy_ras >= 0.9 * max_pairs
    assert point.truetime_ras >= 0.9 * max_pairs


def test_tommy_wins_when_gap_small_relative_to_clock_error():
    """The paper's headline claim: Tommy outperforms TrueTime when the
    inter-message gap shrinks and/or clock errors grow."""
    point = run_figure5_point(60.0, 5.0, SMALL)
    assert point.tommy_ras > point.truetime_ras
    assert point.tommy_batches >= point.truetime_batches


def test_truetime_never_negative_tommy_may_be():
    points = run_figure5(SMALL)
    for point in points:
        assert point.truetime_ras >= 0


def test_forty_client_sweep_tommy_never_behind_truetime():
    points = run_figure5(FORTY_CLIENTS)
    assert {
        (p.clock_std, p.message_gap): (
            p.tommy_ras, p.truetime_ras, p.tommy_batches, p.truetime_batches
        )
        for p in points
    } == FORTY_CLIENT_POINTS
    assert all(p.tommy_ras >= p.truetime_ras >= 0 for p in points)
    # strictly ahead once clock error dominates the inter-message gap
    stressed = [p for p in points if p.clock_std >= 30.0 and p.message_gap <= 20.0]
    assert any(p.tommy_ras > p.truetime_ras for p in stressed)


def test_rows_are_table_ready():
    points = run_figure5(SMALL)
    rows = figure5_rows(points)
    assert len(rows) == len(points)
    assert set(rows[0]) >= {"clock_std", "gap", "tommy_ras", "truetime_ras"}


def test_invalid_settings_rejected():
    with pytest.raises(ValueError):
        Figure5Settings(num_clients=1)
    with pytest.raises(ValueError):
        Figure5Settings(sigma_heterogeneity=1.0)
