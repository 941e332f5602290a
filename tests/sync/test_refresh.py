"""Tests for the probe-driven distribution refresh loop."""

import numpy as np
import pytest

from repro.clocks.local import LocalClock
from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.link import ConstantDelay
from repro.simulation.event_loop import EventLoop
from repro.sync.estimator import OffsetEstimator
from repro.sync.probe import ProbeExchange
from repro.sync.refresh import DistributionRefreshLoop
from repro.workloads.learned import synthesize_probe


class RecordingTarget:
    """Minimal update_client_distribution sink."""

    def __init__(self):
        self.updates = []

    def update_client_distribution(self, client_id, distribution):
        self.updates.append((client_id, distribution))


def test_refresh_fires_every_n_probes_once_estimable():
    target = RecordingTarget()
    loop = DistributionRefreshLoop(target, refresh_every=4, min_observations=8)
    rng = np.random.default_rng(0)
    for k in range(16):
        loop.observe_probe(synthesize_probe("a", float(rng.normal(0, 0.1)), 0.001))
    # budgets at probes 4 and 8 lack min_observations at 4 only; refreshes
    # happen at 8, 12 and 16
    assert loop.stats.probes_observed == 16
    assert loop.stats.skipped == 1
    assert loop.stats.refreshes == 3
    assert len(target.updates) == 3
    assert all(client == "a" for client, _ in target.updates)
    assert loop.stats.last_family["a"] == "empirical"


def test_refresh_all_sweeps_every_known_client():
    target = RecordingTarget()
    loop = DistributionRefreshLoop(target, refresh_every=100, min_observations=4)
    rng = np.random.default_rng(1)
    for client in ("a", "b"):
        for _ in range(6):
            loop.observe_probe(synthesize_probe(client, float(rng.normal(0, 1)), 0.001))
    pushed = loop.refresh_all()
    assert set(pushed) == {"a", "b"}
    assert loop.stats.refreshes == 2
    assert loop.stats.as_dict()["clients_refreshed"] == 2


def test_refresh_loop_filters_congested_probes():
    """Wired with an RTT filter, refreshed estimates ignore congested probes."""
    target = RecordingTarget()
    loop = DistributionRefreshLoop(
        target,
        method="gaussian",
        refresh_every=20,
        min_observations=4,
        estimator=OffsetEstimator(best_fraction=0.5),
    )
    rng = np.random.default_rng(2)
    for k in range(10):
        loop.observe_probe(synthesize_probe("a", float(rng.normal(0, 0.01)), 0.001))
    for k in range(10):
        loop.observe_probe(synthesize_probe("a", 5.0, 0.5))
    (client, distribution), = target.updates
    assert client == "a"
    assert abs(distribution.mean) < 0.1


def test_refresh_loop_drives_a_running_sequencer():
    """End to end: probes reshape the distribution the sequencer uses."""
    event_loop = EventLoop()
    sequencer = OnlineTommySequencer(
        event_loop,
        {"a": GaussianDistribution(0.0, 10.0), "b": GaussianDistribution(0.0, 0.01)},
        TommyConfig(p_safe=0.99, completeness_mode="none", convolution_points=512),
    )
    refresh = DistributionRefreshLoop(sequencer, refresh_every=16, min_observations=8)
    rng = np.random.default_rng(3)
    for _ in range(16):
        refresh.observe_probe(synthesize_probe("a", float(rng.normal(0, 0.01)), 0.001))
    assert sequencer.distribution_refreshes == 1
    assert isinstance(sequencer.model.distribution_for("a"), EmpiricalDistribution)
    # the learned distribution is far tighter than the 10s-sigma prior
    assert sequencer.model.distribution_for("a").std < 1.0


def test_invalid_configuration_rejected():
    target = RecordingTarget()
    with pytest.raises(ValueError):
        DistributionRefreshLoop(target, refresh_every=0)
    with pytest.raises(ValueError):
        DistributionRefreshLoop(target, min_observations=1)
    with pytest.raises(TypeError):
        DistributionRefreshLoop(object())


def test_unknown_client_probes_are_counted_not_fatal():
    """Probes can precede a client's registration: the refresh must skip
    (and count) instead of raising from inside an event-loop callback."""
    event_loop = EventLoop()
    sequencer = OnlineTommySequencer(
        event_loop, {"a": GaussianDistribution(0.0, 1.0)}, TommyConfig()
    )
    refresh = DistributionRefreshLoop(sequencer, refresh_every=8, min_observations=4)
    rng = np.random.default_rng(6)
    for _ in range(8):
        refresh.observe_probe(synthesize_probe("ghost", float(rng.normal(0, 0.01)), 0.001))
    assert refresh.stats.unknown_clients == 1
    assert refresh.stats.refreshes == 0
    # once the client registers, the next budget succeeds
    sequencer.register_client("ghost", GaussianDistribution(0.0, 1.0))
    for _ in range(8):
        refresh.observe_probe(synthesize_probe("ghost", float(rng.normal(0, 0.01)), 0.001))
    assert refresh.stats.refreshes == 1


def probe_fleet(event_loop, seed=0, num_clients=3):
    """One probe exchange per client; client ``ck``'s offset mean is ``k`` ms."""
    exchanges = {}
    for index in range(num_clients):
        clock = LocalClock(
            event_loop,
            GaussianDistribution(0.001 * index, 0.0002),
            np.random.default_rng(seed + index),
        )
        exchanges[f"c{index}"] = ProbeExchange(
            event_loop,
            f"c{index}",
            clock,
            ConstantDelay(0.0005),
            ConstantDelay(0.0005),
            np.random.default_rng(seed + 100 + index),
        )
    return exchanges


def probe_round(refresh, exchanges, probes=8):
    """Every client in insertion order runs ``probes`` probes into the loop."""
    for exchange in exchanges.values():
        for probe in exchange.run_probes(probes):
            refresh.observe_probe(probe)


def test_probe_rounds_accumulate_in_every_clients_learner():
    exchanges = probe_fleet(EventLoop())
    refresh = DistributionRefreshLoop(RecordingTarget(), refresh_every=100)
    for _ in range(3):
        probe_round(refresh, exchanges)
    assert refresh.client_ids == ("c0", "c1", "c2")
    assert all(refresh.learner_for(client).probe_count == 24 for client in exchanges)
    assert refresh.stats.probes_observed == 72 and refresh.stats.refreshes == 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_probe_rounds_converge_to_each_clients_offset_mean(seed):
    target = RecordingTarget()
    refresh = DistributionRefreshLoop(target, refresh_every=8)
    exchanges = probe_fleet(EventLoop(), seed)
    for _ in range(20):
        probe_round(refresh, exchanges)
    latest = dict(target.updates)
    assert set(latest) == {"c0", "c1", "c2"}
    for index in range(3):
        assert latest[f"c{index}"].mean == pytest.approx(0.001 * index, abs=3e-4)


def test_probe_rounds_publish_every_client_in_insertion_order():
    target = RecordingTarget()
    refresh = DistributionRefreshLoop(target, refresh_every=8, min_observations=8)
    exchanges = probe_fleet(EventLoop())
    for _ in range(2):
        probe_round(refresh, exchanges)
    assert [client for client, _ in target.updates] == ["c0", "c1", "c2"] * 2
    assert refresh.stats.per_client_refreshes == {"c0": 2, "c1": 2, "c2": 2}


def test_periodic_probe_rounds_run_on_the_event_loop():
    event_loop = EventLoop()
    exchanges = probe_fleet(event_loop)
    refresh = DistributionRefreshLoop(RecordingTarget(), refresh_every=8)
    rounds = []

    def tick():
        rounds.append(event_loop.now)
        probe_round(refresh, exchanges)
        event_loop.schedule_after(0.5, tick)

    event_loop.schedule_at(0.0, tick)
    event_loop.run(until=2.6)
    assert rounds == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]
    assert refresh.stats.refreshes == 3 * 6
    # probes carry the loop's time: the last one reached the sequencer one
    # forward delay after the last round began
    assert exchanges["c2"].probes[-1].t2 == pytest.approx(2.5005)
