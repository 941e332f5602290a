"""Sequencer snapshot/restore: recover a mid-run shard from durable state.

A supervisor that prefers not to replay a shard's whole frozen slice can
checkpoint ``OnlineTommySequencer.snapshot()`` after each emission and
rehydrate a fresh sequencer with ``restore()``; the restored instance must
then produce exactly the emissions the original would have (same ranks, same
message keys) when fed the remaining traffic.  The snapshot is bounded: it
carries only the pending (unemitted) set, never the emitted history.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop
from tests.conftest import make_message


def _make_sequencer(loop, seed=13):
    distributions = {
        "a": GaussianDistribution(0.0, 0.5),
        "b": GaussianDistribution(0.0, 1.5),
    }
    return OnlineTommySequencer(
        loop,
        distributions,
        TommyConfig(completeness_mode="none", p_safe=0.99, seed=seed),
    )


def test_restored_sequencer_matches_original_continuation():
    # traffic shared by both runs: the same message objects, so keys match
    early = [
        make_message("a", 0.0),
        make_message("b", 0.4),
        make_message("a", 6.0),
        make_message("b", 24.5),  # wide sigma: still pending at the snapshot
    ]
    late = [
        make_message("a", 25.0),
        make_message("b", 25.3),
        make_message("a", 40.0),
    ]
    snapshot_time = 25.0

    loop_a = EventLoop()
    original = _make_sequencer(loop_a)
    for message in early:
        original.receive(message, arrival_time=message.timestamp)
    loop_a.run(until=snapshot_time)
    state = original.snapshot()
    assert state["pending"], "fixture should snapshot with work in flight"
    assert state["next_rank"] >= 1, "fixture should snapshot after an emission"

    for message in late:
        original.receive(message, arrival_time=message.timestamp)
    loop_a.run(until=100.0)
    original.flush()
    expected = [
        (batch.rank, tuple(m.key for m in batch.batch.messages))
        for batch in original.emitted_batches
        if batch.rank >= state["next_rank"]
    ]
    assert expected, "fixture should emit after the snapshot point"

    loop_b = EventLoop()
    loop_b.run(until=snapshot_time)  # restored clock resumes at the checkpoint
    restored = _make_sequencer(loop_b)
    restored.restore(state)
    for message in late:
        restored.receive(message, arrival_time=message.timestamp)
    loop_b.run(until=100.0)
    restored.flush()
    produced = [
        (batch.rank, tuple(m.key for m in batch.batch.messages))
        for batch in restored.emitted_batches
    ]
    assert produced == expected


def test_snapshot_is_bounded_to_pending_state():
    loop = EventLoop()
    sequencer = _make_sequencer(loop)
    for index in range(20):
        sequencer.receive(make_message("a", float(index * 10)), arrival_time=index * 10.0)
        loop.run(until=(index + 1) * 10.0)
    loop.run(until=500.0)
    sequencer.flush()
    state = sequencer.snapshot()
    # everything already emitted: the checkpoint retains no per-message history
    assert state["pending"] == ()
    assert state["arrival_times"] == {}
    assert state["next_rank"] == len(sequencer.emitted_batches)


def test_restore_refuses_a_used_sequencer():
    loop = EventLoop()
    sequencer = _make_sequencer(loop)
    state = sequencer.snapshot()
    sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
    with pytest.raises(ValueError):
        sequencer.restore(state)


def _engine_state(sequencer):
    engine = sequencer.engine
    n = engine.size
    return (
        engine.message_keys,
        engine.probability_matrix(),
        engine._direction[:n, :n].copy(),
        engine._scores[:n].copy(),
    )


def _assert_restored_engine_matches(original, restored):
    keys_a, matrix_a, direction_a, scores_a = _engine_state(original)
    keys_b, matrix_b, direction_b, scores_b = _engine_state(restored)
    assert keys_a == keys_b
    assert np.array_equal(matrix_a, matrix_b)  # exact, not approximate
    assert np.array_equal(direction_a, direction_b)
    assert np.array_equal(scores_a, scores_b)
    groups_a = [[m.key for m in group] for group in original._tentative_groups()]
    groups_b = [[m.key for m in group] for group in restored._tentative_groups()]
    assert groups_a == groups_b
    assert original.safe_emission_time(
        original._first_tentative_group()
    ) == restored.safe_emission_time(restored._first_tentative_group())


def _mixed_distributions(rng, num_clients, empirical_fraction):
    distributions = {}
    for index in range(num_clients):
        if rng.random() < empirical_fraction:
            samples = rng.normal(0.0, float(rng.uniform(0.002, 0.01)), 500)
            distributions[f"client-{index}"] = EmpiricalDistribution.from_samples(samples, bins=64)
        else:
            distributions[f"client-{index}"] = GaussianDistribution(
                float(rng.normal(0, 0.001)), float(rng.uniform(0.002, 0.01))
            )
    return distributions


@pytest.mark.parametrize("empirical_fraction", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_restore_rebuilds_the_engine_bit_identically(seed, empirical_fraction):
    """Restore re-appends the checkpointed pending set one arrival at a time;
    the rebuilt engine must equal the original's, including after emissions
    removed rows from it."""
    rng = np.random.default_rng(200 + seed)
    distributions = _mixed_distributions(rng, 6, empirical_fraction)
    clients = sorted(distributions)
    config = TommyConfig(completeness_mode="none", p_safe=0.99, seed=seed)

    loop_a = EventLoop()
    original = OnlineTommySequencer(loop_a, distributions, config)
    t = 0.0
    for k in range(40):
        t += float(rng.exponential(0.004))
        message = TimestampedMessage(
            client_id=clients[int(rng.integers(len(clients)))],
            timestamp=t + float(rng.normal(0, 0.003)),
            true_time=t,
            message_id=60_000_000 + k,
        )
        loop_a.schedule_at(t, original.receive, message)
    loop_a.run(until=t)
    state = original.snapshot()
    assert state["next_rank"] >= 1, "fixture should snapshot after an emission"
    assert len(state["pending"]) >= 3, "fixture should snapshot with work in flight"

    loop_b = EventLoop()
    loop_b.run(until=t)
    restored = OnlineTommySequencer(loop_b, distributions, config)
    restored.restore(state)
    _assert_restored_engine_matches(original, restored)
    assert restored.engine_stats().rows_appended == len(state["pending"])


def test_restore_rebuilds_ties_and_simultaneous_arrivals():
    rng = np.random.default_rng(4)
    distributions = _mixed_distributions(rng, 4, 0.0)
    clients = sorted(distributions)
    config = TommyConfig(completeness_mode="none", p_safe=0.9, tie_epsilon=0.1, seed=4)
    loop_a = EventLoop()
    original = OnlineTommySequencer(loop_a, distributions, config)
    for k in range(8):
        # one true instant, one arrival instant: the tie band does the ordering
        original.receive(
            TimestampedMessage(
                client_id=clients[int(rng.integers(len(clients)))],
                timestamp=float(rng.normal(0, 0.003)),
                true_time=0.0,
                message_id=62_000_000 + k,
            ),
            arrival_time=0.0,
        )
    state = original.snapshot()
    assert len(state["pending"]) == 8

    restored = OnlineTommySequencer(EventLoop(), distributions, config)
    restored.restore(state)
    _assert_restored_engine_matches(original, restored)
