"""Tests for the online Tommy sequencer (paper §3.5)."""

import numpy as np
import pytest
from online_reference import ReferenceOnlineSequencer, completeness_scan

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import Heartbeat
from repro.simulation.event_loop import EventLoop
from tests.conftest import make_message


def make_sequencer(loop, sigmas, **config_kwargs):
    defaults = dict(completeness_mode="none", p_safe=0.999)
    defaults.update(config_kwargs)
    distributions = {client: GaussianDistribution(0.0, sigma) for client, sigma in sigmas.items()}
    return OnlineTommySequencer(loop, distributions, TommyConfig(**defaults))


def test_batch_waits_for_safe_emission_time():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0})
    message = make_message("a", timestamp=0.0)
    sequencer.receive(message, arrival_time=0.0)
    # immediately nothing emitted: the safe emission time is ~3 sigma in the future
    assert sequencer.emitted_batches == []
    loop.run(until=10.0)
    assert len(sequencer.emitted_batches) == 1
    emitted = sequencer.emitted_batches[0]
    assert emitted.emitted_at >= sequencer.model.safe_emission_time(message, 0.999) - 1e-9


def test_safe_emission_time_is_max_over_batch():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"narrow": 0.1, "wide": 5.0})
    narrow = make_message("narrow", 0.0)
    wide = make_message("wide", 0.1)
    batch_time = sequencer.safe_emission_time([narrow, wide])
    assert batch_time == pytest.approx(
        max(
            sequencer.model.safe_emission_time(narrow, 0.999),
            sequencer.model.safe_emission_time(wide, 0.999),
        )
    )


def test_well_separated_messages_emit_in_separate_batches():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 0.1, "b": 0.1})
    sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
    loop.run(until=5.0)
    sequencer.receive(make_message("b", 10.0), arrival_time=10.0)
    loop.run(until=20.0)
    assert len(sequencer.emitted_batches) == 2
    assert [batch.rank for batch in sequencer.emitted_batches] == [0, 1]


def test_late_message_joins_open_batch_appendix_c():
    """Appendix C: a high-uncertainty message forces later messages into its batch."""
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"c1": 0.05, "c2": 2.0}, p_safe=0.99)
    sequencer.receive(make_message("c1", 100.0, true_time=100.0), arrival_time=loop.now)
    sequencer.receive(make_message("c2", 100.6, true_time=100.2), arrival_time=loop.now)
    sequencer.receive(make_message("c1", 100.3, true_time=100.3), arrival_time=loop.now)
    loop.run(until=200.0)
    assert len(sequencer.emitted_batches) == 1
    assert sequencer.emitted_batches[0].size == 3


def test_heartbeat_completeness_gates_emission():
    loop = EventLoop()
    distributions = {"a": GaussianDistribution(0.0, 0.1), "b": GaussianDistribution(0.0, 0.1)}
    sequencer = OnlineTommySequencer(
        loop, distributions, TommyConfig(completeness_mode="heartbeat", p_safe=0.9)
    )
    sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
    loop.run(until=50.0)
    # client b has never been heard from, so the batch must not be emitted
    assert sequencer.emitted_batches == []
    sequencer.receive(Heartbeat(client_id="b", timestamp=60.0), arrival_time=50.0)
    loop.run(until=100.0)
    assert len(sequencer.emitted_batches) == 1


def test_bounded_delay_completeness_waits_for_the_delay_bound():
    loop = EventLoop()
    distributions = {"a": GaussianDistribution(0.0, 0.1)}
    sequencer = OnlineTommySequencer(
        loop,
        distributions,
        TommyConfig(completeness_mode="bounded_delay", max_network_delay=20.0, p_safe=0.9),
    )
    sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
    loop.run(until=10.0)
    assert sequencer.emitted_batches == []
    loop.run(until=30.0)
    assert len(sequencer.emitted_batches) == 1


def test_flush_emits_everything_pending():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0, "b": 1.0})
    sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
    sequencer.receive(make_message("b", 100.0), arrival_time=0.0)
    assert sequencer.pending_messages
    sequencer.flush()
    assert sequencer.pending_messages == []
    assert sum(batch.size for batch in sequencer.emitted_batches) == 2


def test_result_builds_consecutive_ranked_batches():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 0.1, "b": 0.1})
    sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
    sequencer.receive(make_message("b", 10.0), arrival_time=0.0)
    loop.run(until=50.0)
    result = sequencer.result()
    assert result.batch_count == 2
    assert result.metadata["sequencer"] == "tommy-online"


def test_emission_latency_reported_per_message():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 0.5})
    sequencer.receive(make_message("a", 0.0, true_time=0.0), arrival_time=0.0)
    loop.run(until=10.0)
    latencies = sequencer.emission_latencies()
    assert len(latencies) == 1
    assert latencies[0] > 0


def test_higher_p_safe_delays_emission():
    emissions = {}
    for p_safe in (0.9, 0.9999):
        loop = EventLoop()
        sequencer = make_sequencer(loop, {"a": 1.0}, p_safe=p_safe)
        sequencer.receive(make_message("a", 0.0), arrival_time=0.0)
        loop.run(until=50.0)
        emissions[p_safe] = sequencer.emitted_batches[0].emitted_at
    assert emissions[0.9999] > emissions[0.9]


def test_unknown_client_message_rejected():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0})
    with pytest.raises(KeyError):
        sequencer.receive(make_message("unknown", 0.0), arrival_time=0.0)


def test_unsupported_item_type_rejected():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0})
    with pytest.raises(TypeError):
        sequencer.receive("not-a-message", arrival_time=0.0)


def test_register_client_extends_known_set():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0})
    sequencer.register_client("b", GaussianDistribution(0.0, 1.0))
    sequencer.receive(make_message("b", 0.0), arrival_time=0.0)
    loop.run(until=20.0)
    assert len(sequencer.emitted_batches) == 1


def test_arrival_time_is_recorded():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0})
    message = make_message("a", 0.0)
    sequencer.receive(message, arrival_time=1.25)
    assert sequencer.arrival_time_of(message) == 1.25


@pytest.mark.parametrize("use_engine", [True, False])
def test_emission_releases_per_message_bookkeeping(use_engine):
    """Regression: ``_arrival_times`` grew without bound for the sequencer's
    lifetime because ``_emit`` never pruned emitted keys (the ``.get(key,
    self.now)`` default in ``_batch_age`` masked the leak)."""
    loop = EventLoop()
    distributions = {"a": GaussianDistribution(0.0, 0.1), "b": GaussianDistribution(0.0, 0.1)}
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop,
        distributions,
        TommyConfig(completeness_mode="none", p_safe=0.9),
    )
    for index in range(20):
        message = make_message("a" if index % 2 == 0 else "b", float(10 * index))
        sequencer.receive(message, arrival_time=float(10 * index))
        loop.run(until=10.0 * (index + 1))
    assert len(sequencer.emitted_batches) > 10
    pending_keys = {message.key for message in sequencer.pending_messages}
    # bookkeeping covers only what is still pending, not the whole history
    assert set(sequencer._arrival_times) == pending_keys
    assert len(sequencer._arrival_times) <= len(pending_keys)
    if use_engine:
        assert sequencer.engine.size == len(pending_keys)
        assert set(sequencer.engine.message_keys) == pending_keys


def test_batch_age_still_tracks_oldest_pending_arrival():
    loop = EventLoop()
    sequencer = make_sequencer(loop, {"a": 1.0, "b": 1.0})
    first = make_message("a", 100.0)
    second = make_message("b", 100.1)
    sequencer.receive(first, arrival_time=0.0)
    loop.run(until=2.0)
    sequencer.receive(second, arrival_time=2.0)
    assert sequencer._batch_age([first, second]) == pytest.approx(2.0)


@pytest.mark.parametrize("use_engine", [True, False])
def test_rejected_receive_leaves_no_trace(use_engine):
    """Regression: a repeated key used to join the pending set before the
    engine rejected it, leaving two pending copies of one message.  A message
    from an unregistered client is refused just as cleanly."""
    loop = EventLoop()
    distributions = {"a": GaussianDistribution(0.0, 1.0), "b": GaussianDistribution(0.0, 1.0)}
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, TommyConfig(completeness_mode="none")
    )
    message = make_message("a", 0.0)
    sequencer.receive(message, arrival_time=0.0)
    stranger = make_message("unknown", 0.2)
    for rejected, error in ((message, ValueError), (stranger, KeyError)):
        with pytest.raises(error):
            sequencer.receive(rejected, arrival_time=0.5)
        assert sequencer.pending_messages == [message]
        assert sequencer.arrival_time_of(message) == 0.0
        assert sequencer.arrival_time_of(stranger) is None
        assert sequencer._latest_client_timestamp == {"a": 0.0}
        if use_engine:
            assert sequencer.engine.size == 1
    fresh = make_message("b", 0.1)
    sequencer.receive(fresh, arrival_time=1.0)
    assert sequencer.pending_messages == [message, fresh]


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
