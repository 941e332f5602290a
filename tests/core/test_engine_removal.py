"""Emission costs the batch, not the pending set, and changes nothing else.

``IncrementalPrecedenceEngine`` keeps its key index as arrival ordinals with
a ``_base`` offset, so an emission renumbers only the rows up to the newest
emitted one.  After any mix of oldest-k slides, out-of-order removals and
further appends the engine must equal a fresh engine fed the survivors in
arrival order: the same probabilities, the same per-client row lists, the
same batches.  And a sequencer running on it must emit exactly what the
recompute-everything reference path (``ReferenceOnlineSequencer``) emits.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from online_reference import ReferenceOnlineSequencer
from test_engine import fingerprint, gaussian_distributions
from test_engine_empirical import empirical_distributions

from repro.core.config import TommyConfig
from repro.core.engine import IncrementalPrecedenceEngine
from repro.core.online import OnlineTommySequencer
from repro.core.probability import PrecedenceModel
from repro.network.message import Heartbeat, TimestampedMessage
from repro.runtime.base import ClusterWorkload
from repro.runtime.sim import SimBackend
from repro.simulation.event_loop import EventLoop
from repro.workloads import build_cluster_scenario

POPULATIONS = {"gaussian": gaussian_distributions, "empirical": empirical_distributions}


def engine_on(distributions):
    model = PrecedenceModel()
    for client, distribution in distributions.items():
        model.register_client(client, distribution)
    return IncrementalPrecedenceEngine(model, threshold=0.75)


def arrivals(rng, num_clients, count, first_id):
    return [
        TimestampedMessage(
            f"c{int(rng.integers(num_clients))}",
            float(rng.normal(0.0, 0.1)),
            message_id=first_id + k,
        )
        for k in range(count)
    ]


def positions(engine):
    """Client -> row positions, whatever the engine stores internally."""
    return {
        client: [ordinal - engine._base for ordinal in ordinals]
        for client, ordinals in engine._positions_by_client.items()
    }


def group_keys(groups):
    return [[message.key for message in group] for group in groups]


def assert_equals_fresh(engine, survivors):
    fresh = IncrementalPrecedenceEngine(engine.model, threshold=0.75)
    for message in survivors:
        fresh.add_message(message)
    assert engine.message_keys == [message.key for message in survivors]
    assert np.array_equal(engine.probability_matrix(), fresh.probability_matrix())
    for key_a in engine.message_keys:
        for key_b in engine.message_keys:
            assert engine.probability(key_a, key_b) == fresh.probability(key_a, key_b)
    assert positions(engine) == positions(fresh)
    n = engine.size
    assert np.array_equal(engine._direction[:n, :n], fresh._direction[:n, :n])
    assert np.array_equal(engine._scores[:n], fresh._scores[:n])
    assert engine._grid_rows == fresh._grid_rows
    assert group_keys(engine.tentative_groups()) == group_keys(fresh.tentative_groups())


@pytest.mark.parametrize("population", sorted(POPULATIONS))
def test_slides_then_an_out_of_order_removal_then_appends_equal_a_fresh_engine(population):
    rng = np.random.default_rng(11)
    engine = engine_on(POPULATIONS[population](rng, 4))
    live = arrivals(rng, 4, 24, first_id=0)
    for message in live:
        engine.add_message(message)
    for k in (3, 1, 5):  # oldest-k emissions: the ordinal slide
        engine.remove_messages({message.key for message in live[:k]})
        live = live[k:]
        assert engine._base == 24 - len(live)
        assert_equals_fresh(engine, live)
    # an emission that is not the oldest k: the front is renumbered
    dropped = {live[0].key, live[2].key, live[5].key}
    engine.remove_messages(dropped)
    live = [message for message in live if message.key not in dropped]
    assert_equals_fresh(engine, live)
    # keys the engine does not track are ignored
    engine.remove_messages({("c0", -1)})
    assert_equals_fresh(engine, live)
    later = arrivals(rng, 4, 6, first_id=100)
    for message in later:
        engine.add_message(message)
    live += later
    assert_equals_fresh(engine, live)
    engine.remove_messages({message.key for message in live[:2]})
    assert_equals_fresh(engine, live[2:])
    if population == "empirical":
        assert engine.stats.table_evaluations > 0
        assert engine.stats.scalar_evaluations == 0


def test_a_client_whose_rows_all_leave_is_forgotten_and_can_return():
    engine = engine_on(gaussian_distributions(np.random.default_rng(2), 3))
    messages = [
        TimestampedMessage(client, timestamp, message_id=k)
        for k, (client, timestamp) in enumerate(
            [("c0", 0.0), ("c1", 0.1), ("c0", 0.2), ("c2", 5.0), ("c1", 6.0)]
        )
    ]
    for message in messages:
        engine.add_message(message)
    engine.remove_messages({messages[0].key, messages[2].key})  # every c0 row, out of order
    assert "c0" not in engine._positions_by_client
    assert positions(engine) == {"c1": [0, 2], "c2": [1]}
    comeback = TimestampedMessage("c0", 7.0, message_id=9)
    engine.add_message(comeback)
    assert_equals_fresh(engine, [messages[1], messages[3], messages[4], comeback])


def test_removing_everything_and_starting_over():
    engine = engine_on(gaussian_distributions(np.random.default_rng(4), 2))
    first = arrivals(np.random.default_rng(5), 2, 5, first_id=0)
    for message in first:
        engine.add_message(message)
    engine.remove_messages({message.key for message in first})
    assert engine.size == 0 and engine._positions_by_client == {} and engine._index == {}
    second = arrivals(np.random.default_rng(6), 2, 4, first_id=10)
    for message in second:
        engine.add_message(message)
    assert_equals_fresh(engine, second)


# --------------------------------------------------------------- interleavings
steps = st.lists(
    st.tuples(
        st.sampled_from(["message", "message", "message", "heartbeat", "wait"]),
        st.integers(0, 3),  # client
        st.floats(0.0, 0.05),  # timestamp jitter / wait length
    ),
    min_size=1,
    max_size=40,
)


def interleaved_run(use_engine, plan, completeness_mode):
    distributions = gaussian_distributions(np.random.default_rng(3), 4, 0.002, 0.03)
    loop = EventLoop()
    config = TommyConfig(p_safe=0.95, completeness_mode=completeness_mode, seed=5)
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, config
    )
    now = 0.0
    for index, (kind, client, amount) in enumerate(plan):
        client_id = f"c{client}"
        if kind == "wait":
            now += amount
            loop.run(until=now)
        elif kind == "heartbeat":
            sequencer.receive(Heartbeat(client_id=client_id, timestamp=now + amount))
        else:
            message = TimestampedMessage(client_id, now + amount - 0.025, message_id=index)
            sequencer.receive(message)
        assert [m.key for m in sequencer.pending_messages] == sorted(
            (m.key for m in sequencer.pending_messages), key=lambda key: key[1]
        )
    loop.run(until=now + 1.0)
    mid = fingerprint(sequencer), loop.stats()
    sequencer.flush()
    return mid, fingerprint(sequencer)


@pytest.mark.parametrize("completeness_mode", ["none", "heartbeat"])
@settings(max_examples=40, deadline=None)
@given(plan=steps)
def test_engine_matches_reference_under_any_arrival_and_emission_interleaving(
    completeness_mode, plan
):
    assert interleaved_run(True, plan, completeness_mode) == interleaved_run(
        False, plan, completeness_mode
    )


# ---------------------------------------------------------------------- pinned
@pytest.mark.parametrize(
    "num_shards,executed,group_computations,batches",
    [(1, 413, 48, 23), (4, 455, 162, 131)],
)
def test_pinned_counts_of_a_small_acked_population(
    num_shards, executed, group_computations, batches
):
    """Exact counts, not times: the loop's events and the engine's rows and
    batch computations of a 16-client ``acked``-style run."""
    scenario = build_cluster_scenario(num_clients=16, messages_per_client=12, seed=13)
    workload = ClusterWorkload.from_scenario(
        scenario, num_shards=num_shards, config=TommyConfig(seed=13)
    )
    workload = dataclasses.replace(
        workload,
        messages=tuple(
            dataclasses.replace(message, message_id=index)
            for index, message in enumerate(workload.messages)
        ),
    )
    outcome = SimBackend().run(workload)
    assert outcome.details["loop"]["executed"] == executed
    engine = outcome.details["observability"]["engine"]
    assert engine["rows_appended"] == engine["rows_removed"] == 192
    assert engine["group_computations"] == group_computations
    assert sum(len(stream) for stream in outcome.shard_batches) == batches
