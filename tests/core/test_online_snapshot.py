"""Sequencer snapshot/restore: recover a mid-run shard from durable state.

A supervisor that prefers not to replay a shard's whole frozen slice can
checkpoint ``OnlineTommySequencer.snapshot()`` after each emission and
rehydrate a fresh sequencer with ``restore()``; the restored instance must
then produce exactly the emissions the original would have (same ranks, same
message keys) when fed the remaining traffic.  The snapshot is bounded: it
carries only the pending (unemitted) set, never the emitted history.
"""

from __future__ import annotations

import pytest

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
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
