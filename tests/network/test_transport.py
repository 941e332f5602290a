"""Tests for the client-to-sequencer transport."""

import numpy as np
import pytest

from repro.clocks.local import LocalClock
from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.network.link import ConstantDelay
from repro.network.message import Heartbeat, TimestampedMessage
from repro.network.transport import Transport
from repro.simulation.event_loop import EventLoop
from repro.simulation.random_source import RandomSource


def build_transport(num_clients=2, delay=0.001, heartbeat_interval=None, clock_std=0.0):
    loop = EventLoop()
    source = RandomSource(0)
    transport = Transport(loop, rng_factory=source.stream)
    clients = []
    for index in range(num_clients):
        client_id = f"c{index}"
        clock = LocalClock(
            loop, GaussianDistribution(0.0, max(clock_std, 1e-12)), source.stream(f"clock:{client_id}")
        )
        clients.append(
            transport.add_client(
                client_id,
                clock,
                delay_model=ConstantDelay(delay),
                heartbeat_interval=heartbeat_interval,
            )
        )
    return loop, transport, clients


def test_messages_arrive_at_sequencer_with_delay():
    loop, transport, clients = build_transport(delay=0.002)
    loop.schedule_at(0.01, clients[0].send, "payload")
    loop.run()
    messages = transport.sequencer.messages()
    assert len(messages) == 1
    assert messages[0].client_id == "c0"
    assert messages[0].payload == "payload"
    assert loop.now == pytest.approx(0.012)


def test_sent_message_records_ground_truth():
    loop, transport, clients = build_transport()
    loop.schedule_at(0.5, clients[0].send)
    loop.run()
    sent = clients[0].sent_messages[0]
    assert sent.true_time == pytest.approx(0.5)
    assert sent.sequence_number == 1


def test_arrival_callback_invoked_with_arrival_time():
    loop, transport, clients = build_transport(delay=0.001)
    arrivals = []
    transport.sequencer.on_arrival(lambda item, when: arrivals.append((item, when)))
    loop.schedule_at(0.1, clients[1].send)
    loop.run()
    assert len(arrivals) == 1
    item, when = arrivals[0]
    assert isinstance(item, TimestampedMessage)
    assert when == pytest.approx(0.101)


def test_heartbeats_flow_periodically_and_stop():
    loop, transport, clients = build_transport(heartbeat_interval=0.01)
    clients[0].start_heartbeats()
    loop.run(until=0.055)
    heartbeats = [item for item in transport.sequencer.arrivals if isinstance(item, Heartbeat)]
    assert len(heartbeats) >= 4
    clients[0].stop_heartbeats()
    count = clients[0].heartbeats_sent
    loop.schedule_at(1.0, lambda: None)
    loop.run()
    assert clients[0].heartbeats_sent == count


def test_heartbeat_requires_configured_interval():
    loop, transport, clients = build_transport(heartbeat_interval=None)
    with pytest.raises(ValueError):
        clients[0].start_heartbeats()


def test_duplicate_client_id_rejected():
    loop, transport, clients = build_transport(num_clients=1)
    clock = LocalClock(loop, GaussianDistribution(0.0, 1e-9), np.random.default_rng(9))
    with pytest.raises(ValueError):
        transport.add_client("c0", clock)


def test_channel_for_returns_the_clients_channel():
    loop, transport, clients = build_transport()
    loop.schedule_at(0.01, clients[0].send)
    loop.run()
    assert transport.channel_for("c0").sent == 1
    assert transport.channel_for("c1").sent == 0


def test_sequence_numbers_shared_between_messages_and_heartbeats():
    loop, transport, clients = build_transport(heartbeat_interval=0.01)
    loop.schedule_at(0.005, clients[0].send)
    loop.schedule_at(0.006, clients[0].send_heartbeat)
    loop.run()
    arrivals = transport.sequencer.arrivals
    sequence_numbers = [item.sequence_number for item in arrivals]
    assert sorted(sequence_numbers) == [1, 2]


def emitted_stream(sequencer):
    return [
        (emitted.rank, tuple(m.key for m in emitted.batch.messages), emitted.emitted_at)
        for emitted in sequencer.emitted_batches
    ]


def test_same_instant_arrivals_reach_the_sequencer_one_at_a_time():
    loop, transport, clients = build_transport(num_clients=4, delay=0.01, clock_std=0.004)
    distributions = {client.client_id: GaussianDistribution(0.0, 0.004) for client in clients}
    config = TommyConfig(p_safe=0.9, completeness_mode="none", seed=1)
    sequencer = OnlineTommySequencer(loop, distributions, config)
    calls = []

    def deliver(item, when):
        calls.append((item, when))
        sequencer.receive(item, when)

    transport.sequencer.on_arrival(deliver)
    # three bursts: every client sends at the same instant over equal delays
    for when in (0.0, 0.05, 0.1):
        for client in clients:
            loop.schedule_at(when, client.send, f"payload@{when}")
    loop.run(until=5.0)
    sequencer.flush()
    assert [item for item, _ in calls] == transport.sequencer.arrivals
    assert [when for _, when in calls] == pytest.approx([0.01] * 4 + [0.06] * 4 + [0.11] * 4)

    # the same arrivals fed straight to a sequencer emit the same stream
    direct_loop = EventLoop()
    direct = OnlineTommySequencer(direct_loop, distributions, config)
    for item, when in calls:
        direct_loop.schedule_at(when, direct.receive, item)
    direct_loop.run(until=5.0)
    direct.flush()
    assert emitted_stream(direct) == emitted_stream(sequencer)
    assert sum(len(keys) for _, keys, _ in emitted_stream(sequencer)) == 12
