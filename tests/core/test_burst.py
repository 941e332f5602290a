"""Burst-ingestion fast path: block appends, receive_many, coalescing.

The contract at every layer is *bit-identical behavior* to the one-at-a-time
path: the engine's ``add_messages`` block append must leave exactly the
state k sequential ``add_message`` calls leave, ``receive_many`` must emit
exactly the batches sequential ``receive`` calls emit, and a coalescing
transport must not change the emitted stream — only the amount of work.
"""

import numpy as np
import pytest
from online_reference import completeness_scan

from repro.core.config import TommyConfig
from repro.core.engine import IncrementalPrecedenceEngine
from repro.core.online import OnlineTommySequencer
from repro.core.probability import PrecedenceModel
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.link import ConstantDelay
from repro.network.message import Heartbeat, TimestampedMessage
from repro.network.transport import Transport
from repro.clocks.local import LocalClock
from repro.simulation.event_loop import EventLoop


def build_model(num_clients, rng, empirical_fraction=0.0):
    model = PrecedenceModel()
    clients = []
    for i in range(num_clients):
        client_id = f"client-{i}"
        if rng.random() < empirical_fraction:
            samples = rng.normal(0.0, float(rng.uniform(0.002, 0.01)), 500)
            model.register_client(client_id, EmpiricalDistribution.from_samples(samples, bins=64))
        else:
            model.register_client(
                client_id,
                GaussianDistribution(float(rng.normal(0, 0.001)), float(rng.uniform(0.002, 0.01))),
            )
        clients.append(client_id)
    return model, clients


def make_messages(clients, count, rng, base_id, simultaneous=False):
    messages = []
    t = 0.0
    for k in range(count):
        if not simultaneous:
            t += float(rng.exponential(0.005))
        client = clients[int(rng.integers(len(clients)))]
        messages.append(
            TimestampedMessage(
                client_id=client,
                timestamp=t + float(rng.normal(0, 0.003)),
                true_time=t,
                message_id=base_id + k,
            )
        )
    return messages


def engine_state(engine):
    n = engine.size
    return (
        engine.message_keys,
        engine.probability_matrix(),
        engine._direction[:n, :n].copy(),
        engine._scores[:n].copy(),
    )


@pytest.mark.parametrize("empirical_fraction", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_add_messages_block_append_is_bit_identical(seed, empirical_fraction):
    rng = np.random.default_rng(200 + seed)
    model, clients = build_model(6, rng, empirical_fraction)
    burst = make_messages(clients, 12, rng, 60_000_000)
    prefix = make_messages(clients, 5, rng, 61_000_000)

    sequential = IncrementalPrecedenceEngine(model, threshold=0.75)
    blocked = IncrementalPrecedenceEngine(model, threshold=0.75)
    for message in prefix:
        sequential.add_message(message)
        blocked.add_message(message)
    for message in burst:
        sequential.add_message(message)
    blocked.add_messages(burst)

    keys_a, matrix_a, direction_a, scores_a = engine_state(sequential)
    keys_b, matrix_b, direction_b, scores_b = engine_state(blocked)
    assert keys_a == keys_b
    assert np.array_equal(matrix_a, matrix_b)  # exact, not approximate
    assert np.array_equal(direction_a, direction_b)
    assert np.array_equal(scores_a, scores_b)
    assert blocked.stats.block_appends == 1
    assert blocked.stats.rows_appended == sequential.stats.rows_appended
    # and downstream consumers agree too
    groups_a = [[m.key for m in g] for g in sequential.tentative_groups()]
    groups_b = [[m.key for m in g] for g in blocked.tentative_groups()]
    assert groups_a == groups_b


def test_add_messages_handles_ties_and_simultaneity():
    rng = np.random.default_rng(4)
    model, clients = build_model(4, rng)
    burst = make_messages(clients, 8, rng, 62_000_000, simultaneous=True)
    sequential = IncrementalPrecedenceEngine(model, threshold=0.75, tie_epsilon=0.6)
    blocked = IncrementalPrecedenceEngine(model, threshold=0.75, tie_epsilon=0.6)
    for message in burst:
        sequential.add_message(message)
    blocked.add_messages(burst)
    for a, b in zip(engine_state(sequential), engine_state(blocked)):
        assert np.array_equal(np.asarray(a, dtype=object), np.asarray(b, dtype=object)) or a == b


def test_add_messages_validates_before_mutating():
    rng = np.random.default_rng(5)
    model, clients = build_model(2, rng)
    engine = IncrementalPrecedenceEngine(model, threshold=0.75)
    good = make_messages(clients, 2, rng, 63_000_000)
    unknown = TimestampedMessage(client_id="stranger", timestamp=0.0, message_id=63_000_100)
    with pytest.raises(KeyError):
        engine.add_messages(good + [unknown])
    assert engine.size == 0  # nothing applied
    engine.add_messages(good)
    with pytest.raises(ValueError):
        engine.add_messages([good[0]])
    with pytest.raises(ValueError):
        engine.add_messages([unknown.with_timestamp(0.0)] * 0 + [good[1], good[1]])


def run_sequencer(distributions, deliveries, burst_mode):
    """Replay (time, [items]) deliveries; burst_mode uses receive_many."""
    loop = EventLoop()
    sequencer = OnlineTommySequencer(
        loop,
        distributions,
        TommyConfig(p_safe=0.9, completeness_mode="heartbeat", seed=3),
    )
    for when, items in deliveries:
        if burst_mode:
            loop.schedule_at(when, sequencer.receive_many, list(items))
        else:
            for item in items:
                loop.schedule_at(when, sequencer.receive, item)
    loop.run()
    sequencer.flush()
    emitted = [
        (
            e.batch.rank,
            tuple(m.key for m in e.batch.messages),
            e.emitted_at,
            e.safe_emission_time,
        )
        for e in sequencer.emitted_batches
    ]
    return sequencer, emitted


def burst_deliveries(seed=6, num_clients=5, bursts=12, burst_size=6):
    rng = np.random.default_rng(seed)
    model_rng = np.random.default_rng(seed + 1000)
    distributions = {
        f"client-{i}": GaussianDistribution(0.0, float(model_rng.uniform(0.002, 0.008)))
        for i in range(num_clients)
    }
    clients = sorted(distributions)
    deliveries = []
    t = 0.0
    message_id = 64_000_000
    for _ in range(bursts):
        t += float(rng.exponential(0.05))
        items = []
        for _ in range(burst_size):
            client = clients[int(rng.integers(num_clients))]
            items.append(
                TimestampedMessage(
                    client_id=client,
                    timestamp=t + float(rng.normal(0, 0.004)),
                    true_time=t,
                    message_id=message_id,
                )
            )
            message_id += 1
        deliveries.append((t, items))
    # closing heartbeats so the heartbeat completeness rule releases the tail
    beacon = t + 1.0
    deliveries.append(
        (beacon, [Heartbeat(client_id=c, timestamp=beacon, true_time=beacon) for c in clients])
    )
    return distributions, deliveries


def test_receive_many_emits_identical_batches():
    distributions, deliveries = burst_deliveries()
    seq_a, emitted_a = run_sequencer(distributions, deliveries, burst_mode=False)
    seq_b, emitted_b = run_sequencer(distributions, deliveries, burst_mode=True)
    assert emitted_a == emitted_b
    assert len(emitted_a) > 1
    # the burst path appended blocks instead of rows, and checked emission
    # once per burst instead of once per message
    assert seq_b.engine_stats().block_appends > 0
    assert seq_a.engine_stats().block_appends == 0
    assert seq_b.extension_count < seq_a.extension_count


def test_receive_many_rejects_unknown_clients_and_types():
    distributions, _ = burst_deliveries()
    loop = EventLoop()
    sequencer = OnlineTommySequencer(loop, distributions, TommyConfig(completeness_mode="none"))
    with pytest.raises(KeyError):
        sequencer.receive_many([TimestampedMessage(client_id="stranger", timestamp=0.0)])
    with pytest.raises(TypeError):
        sequencer.receive_many(["not-a-message"])
    sequencer.receive_many([])  # no-op


def run_transport(coalesce):
    loop = EventLoop()
    rng_factory = lambda name: np.random.default_rng(abs(hash(name)) % (2**32))
    transport = Transport(loop, rng_factory, coalesce_bursts=coalesce)
    distributions = {f"client-{i}": GaussianDistribution(0.0, 0.004) for i in range(4)}
    sequencer = OnlineTommySequencer(
        loop, distributions, TommyConfig(p_safe=0.9, completeness_mode="none", seed=1)
    )
    transport.sequencer.on_arrival(sequencer.receive)
    transport.sequencer.on_burst(sequencer.receive_many)
    endpoints = {}
    for client_id in distributions:
        endpoints[client_id] = transport.add_client(
            client_id,
            LocalClock(
                loop,
                distributions[client_id],
                np.random.default_rng(abs(hash(client_id)) % (2**32)),
            ),
            delay_model=ConstantDelay(0.01),  # same delay -> simultaneous arrivals
        )
    # three bursts: every client sends at the same instant
    for when in (0.0, 0.05, 0.1):
        for client_id in sorted(endpoints):
            loop.schedule_at(when, endpoints[client_id].send, f"payload@{when}")
    loop.run(until=5.0)
    sequencer.flush()
    emitted = [
        (e.batch.rank, tuple(m.key for m in e.batch.messages), e.emitted_at)
        for e in sequencer.emitted_batches
    ]
    return transport, sequencer, emitted


def test_transport_coalescing_preserves_emissions_and_batches_work():
    transport_plain, seq_plain, emitted_plain = run_transport(coalesce=False)
    transport_burst, seq_burst, emitted_burst = run_transport(coalesce=True)
    # message identity differs (message_id is a global counter), so compare
    # by client and count shape
    shape = lambda emitted: [
        (rank, tuple(sorted(key[0] for key in keys)), at) for rank, keys, at in emitted
    ]
    assert shape(emitted_plain) == shape(emitted_burst)
    assert transport_plain.sequencer.bursts_delivered == 0
    assert transport_burst.sequencer.bursts_delivered == 3
    assert transport_burst.sequencer.largest_burst == 4
    assert seq_burst.engine_stats().block_appends == 3


def test_completeness_floor_matches_scan():
    rng = np.random.default_rng(8)
    distributions = {f"client-{i}": GaussianDistribution(0.0, 0.005) for i in range(6)}
    loop = EventLoop()
    sequencer = OnlineTommySequencer(
        loop, distributions, TommyConfig(completeness_mode="heartbeat")
    )
    clients = sorted(distributions)
    # before anything is heard the floor is -inf (unheard known clients)
    assert sequencer._completeness_floor() == -float("inf")
    horizons = [0.0, 0.5, 1.0, 2.0]
    for step in range(300):
        client = clients[int(rng.integers(len(clients)))]
        timestamp = float(rng.uniform(0, 2.5))
        sequencer._note_client_progress(client, timestamp)
        for horizon in horizons:
            incremental = sequencer._completeness_floor() >= horizon
            assert incremental == completeness_scan(sequencer, horizon), (
                f"floor diverged from scan at step {step}, horizon {horizon}"
            )
    # a brand-new known client resets completeness until it is heard from
    sequencer.register_client("late-joiner", GaussianDistribution(0.0, 0.005))
    assert sequencer._completeness_floor() == -float("inf")
    assert not completeness_scan(sequencer, 0.0)
    sequencer._note_client_progress("late-joiner", 5.0)
    assert sequencer._completeness_floor() == sequencer._completeness_floor()
    for horizon in horizons:
        assert (sequencer._completeness_floor() >= horizon) == completeness_scan(sequencer, horizon)
