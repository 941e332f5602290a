"""Integration tests spanning multiple subsystems.

These tests exercise the full pipeline the paper's Figure 1 sketches: clients
with imperfect clocks learn their offset distributions from synchronization
probes, send timestamped messages over a jittery network, the sequencer
orders them probabilistically, and a downstream application consumes the
batches.
"""

import numpy as np
import pytest

from repro.apps.orderbook import LimitOrderBook, Order, OrderSide
from repro.apps.replicated_log import ReplicatedLog
from repro.clocks.local import LocalClock
from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.core.sequencer import TommySequencer
from repro.core.total_order import FairTotalOrder
from repro.distributions.parametric import GaussianDistribution
from repro.metrics.ras import rank_agreement_score
from repro.network.link import ConstantDelay, UniformJitterDelay
from repro.network.transport import Transport
from repro.sequencers.truetime import TrueTimeSequencer
from repro.simulation.event_loop import EventLoop
from repro.simulation.random_source import RandomSource
from repro.sync.learner import OffsetDistributionLearner
from repro.sync.probe import ProbeExchange
from repro.workloads.arrivals import BurstArrivals, UniformGapArrivals
from repro.workloads.scenario import ScenarioConfig, build_scenario


def test_learned_distributions_feed_tommy_end_to_end():
    """Probe -> learn f_theta -> register at sequencer -> fair ordering."""
    loop = EventLoop()
    source = RandomSource(5)
    true_distributions = {
        "c0": GaussianDistribution(0.000, 0.0004),
        "c1": GaussianDistribution(0.002, 0.0008),
        "c2": GaussianDistribution(-0.001, 0.0006),
    }
    exchanges = {}
    learners = {}
    for client_id, distribution in true_distributions.items():
        clock = LocalClock(loop, distribution, source.stream(f"clock:{client_id}"))
        exchanges[client_id] = ProbeExchange(
            loop,
            client_id,
            clock,
            ConstantDelay(0.0002),
            ConstantDelay(0.0002),
            source.stream(f"probe:{client_id}"),
        )
        learners[client_id] = OffsetDistributionLearner()
    # 20 rounds; in each, every client in turn feeds a burst of 32 probes to
    # its learner
    for _ in range(20):
        for client_id, exchange in exchanges.items():
            for probe in exchange.run_probes(32):
                learners[client_id].observe_probe(probe)
    learned = {cid: learner.estimate().distribution for cid, learner in learners.items()}
    assert set(learned) == set(true_distributions)
    for client_id, estimate in learned.items():
        assert estimate.mean == pytest.approx(true_distributions[client_id].mean, abs=5e-4)

    # generate a workload whose gaps are comparable to the clock error
    scenario = build_scenario(
        ScenarioConfig(
            num_clients=3,
            arrivals=UniformGapArrivals(messages_per_client=6, gap=0.002),
            distribution_factory=lambda index, rng: true_distributions[f"c{index}"],
            seed=11,
        )
    )
    # rename scenario clients to match the learned distribution keys
    messages = [
        message.__class__(
            client_id=f"c{int(message.client_id.split('-')[1])}",
            timestamp=message.timestamp,
            true_time=message.true_time,
            payload=message.payload,
            sequence_number=message.sequence_number,
        )
        for message in scenario.messages
    ]
    tommy = TommySequencer(learned, TommyConfig(threshold=0.7))
    result = tommy.sequence(messages)
    breakdown = rank_agreement_score(result, messages)
    assert breakdown.score > 0
    assert breakdown.incorrect_pairs < breakdown.correct_pairs


def test_online_pipeline_feeds_replicated_log_without_gaps():
    loop = EventLoop()
    source = RandomSource(8)
    transport = Transport(loop, rng_factory=source.stream)
    distributions = {f"c{k}": GaussianDistribution(0.0, 0.0003) for k in range(4)}
    clients = []
    for client_id, distribution in distributions.items():
        clock = LocalClock(loop, distribution, source.stream(f"clock:{client_id}"))
        clients.append(
            transport.add_client(
                client_id,
                clock,
                delay_model=UniformJitterDelay(0.001, 0.001),
                heartbeat_interval=0.002,
            )
        )
    sequencer = OnlineTommySequencer(
        loop, distributions, TommyConfig(p_safe=0.99, completeness_mode="heartbeat")
    )
    transport.sequencer.on_arrival(sequencer.receive)
    for index, client in enumerate(clients):
        loop.schedule_at(0.001 + 0.004 * index, client.send, {"op": index})
        client.start_heartbeats()
    loop.run(until=2.0)
    sequencer.flush()

    log = ReplicatedLog()
    for emitted in sequencer.emitted_batches:
        log.apply(emitted.batch, applied_at=emitted.emitted_at)
    assert log.applied_message_count == 4
    assert log.next_rank == len(sequencer.emitted_batches)


def test_exchange_fairness_improves_with_tommy_over_truetime():
    """Burst of competing buy orders: the fair sequencer should award the
    trade to the truly-first order more often than an indifferent baseline."""
    rng = np.random.default_rng(3)
    trials = 40
    tommy_correct = 0
    truetime_decided = 0
    for trial in range(trials):
        scenario = build_scenario(
            ScenarioConfig(
                num_clients=6,
                arrivals=BurstArrivals(event_time=0.0, reaction_median=300e-6, reaction_sigma=0.5),
                distribution_factory=lambda i, r: GaussianDistribution(0.0, 150e-6),
                seed=100 + trial,
            )
        )
        messages = list(scenario.messages)
        truly_first = min(messages, key=lambda m: m.true_time)

        tommy_result = TommySequencer(scenario.client_distributions, TommyConfig(threshold=0.6)).sequence(messages)
        total = FairTotalOrder(np.random.default_rng(trial))
        tommy_order = total.totalize(tommy_result)

        book = LimitOrderBook()
        book.submit(Order(client_id="market-maker", side=OrderSide.SELL, price=100.0, quantity=1))
        for message in tommy_order:
            book.submit(Order(client_id=message.client_id, side=OrderSide.BUY, price=100.0, quantity=1))
        winner = book.trades[0].buy_client
        if winner == truly_first.client_id:
            tommy_correct += 1

        truetime_result = TrueTimeSequencer(scenario.client_distributions).sequence(messages)
        if truetime_result.batch_count > 1:
            truetime_decided += 1

    # Tommy awards the trade to the truly-first client far more often than chance (1/6)
    assert tommy_correct / trials > 0.3
    # while TrueTime, with overlapping +-3 sigma intervals, rarely separates anyone
    assert truetime_decided / trials < 0.5
