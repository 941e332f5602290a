"""Tests for the incremental vectorized precedence engine.

The contract under test is *behavior preservation*: an engine-backed online
sequencer must emit byte-identical batches to the reference
recompute-everything path (``ReferenceOnlineSequencer``) for the same arrival
stream, while performing no scalar probability evaluations on Gaussian
workloads.
"""

import numpy as np
import pytest
from online_reference import ReferenceOnlineSequencer

from repro.core.batching import _strict_boundary_strengths
from repro.core.config import TommyConfig
from repro.core.engine import (
    EngineStats,
    IncrementalPrecedenceEngine,
    build_relation,
    cross_probability_matrix,
    strict_boundary_strengths_matrix,
)
from repro.core.online import OnlineTommySequencer
from repro.core.probability import PrecedenceModel
from repro.core.relation import LikelyHappenedBefore
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import Heartbeat, TimestampedMessage
from repro.simulation.event_loop import EventLoop


def fingerprint(sequencer):
    """Byte-level identity of the emitted stream."""
    return [
        (
            emitted.batch.rank,
            tuple(message.key for message in emitted.batch.messages),
            emitted.emitted_at,
            emitted.safe_emission_time,
        )
        for emitted in sequencer.emitted_batches
    ]


def gaussian_distributions(rng, num_clients, sigma_lo=0.001, sigma_hi=0.3):
    return {
        f"c{i}": GaussianDistribution(
            float(rng.normal(0.0, 0.01)), float(rng.uniform(sigma_lo, sigma_hi))
        )
        for i in range(num_clients)
    }


def stream_run(use_engine, seed, completeness_mode, num_clients=10, num_messages=80):
    """One seeded arrival stream through an online sequencer."""
    rng = np.random.default_rng(seed)
    distributions = gaussian_distributions(rng, num_clients)
    loop = EventLoop()
    config = TommyConfig(
        p_safe=0.99,
        completeness_mode=completeness_mode,
        max_network_delay=0.5,
        seed=7,
    )
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, config
    )
    t = 0.0
    for k in range(num_messages):
        t += float(rng.exponential(0.05))
        client = f"c{int(rng.integers(num_clients))}"
        message = TimestampedMessage(
            client_id=client,
            timestamp=t + float(rng.normal(0.0, 0.05)),
            true_time=t,
            message_id=seed * 1_000_000 + k,
        )
        loop.schedule_at(t + float(rng.uniform(0.0, 0.01)), sequencer.receive, message)
    if completeness_mode == "heartbeat":
        for client in distributions:
            loop.schedule_at(
                t + 1.0, sequencer.receive, Heartbeat(client_id=client, timestamp=t + 10.0)
            )
    loop.run(until=t + 50.0)
    sequencer.flush()
    return sequencer


@pytest.mark.parametrize("completeness_mode", ["none", "bounded_delay", "heartbeat"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_engine_emits_byte_identical_batches(seed, completeness_mode):
    engine_run = stream_run(True, seed, completeness_mode)
    reference_run = stream_run(False, seed, completeness_mode)
    assert fingerprint(engine_run) == fingerprint(reference_run)
    # the whole point: the engine does not fall back to scalar evaluations
    # on a Gaussian workload, while the reference path does them by the
    # thousands
    assert engine_run.model.probability_evaluations == 0
    assert reference_run.model.probability_evaluations > 1000
    assert engine_run.engine_stats().vectorized_evaluations > 0


def hot_sequencer_run(
    use_engine, p_safe, completeness_mode="none", num_clients=64, num_messages=300
):
    """Many clients, 2-40 ms clock error, ~10 ms between messages: every
    arrival lands on a pending set of dozens of overlapping messages."""
    rng = np.random.default_rng(13)
    distributions = {
        f"client-{i:03d}": GaussianDistribution(
            float(rng.normal(0.0, 0.002)), float(rng.uniform(0.002, 0.04))
        )
        for i in range(num_clients)
    }
    clients = sorted(distributions)
    loop = EventLoop()
    config = TommyConfig(
        p_safe=p_safe, completeness_mode=completeness_mode, max_network_delay=0.5, seed=13
    )
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, config
    )
    t = 0.0
    for k in range(num_messages):
        t += float(rng.exponential(0.01))
        client = clients[int(rng.integers(num_clients))]
        message = TimestampedMessage(
            client_id=client,
            timestamp=t + float(rng.normal(0.0, distributions[client].std)),
            true_time=t,
            message_id=10_000_000 + k,
        )
        loop.schedule_at(t, sequencer.receive, message)
    if completeness_mode == "heartbeat":
        for client in clients:
            loop.schedule_at(
                t + 1.0, sequencer.receive, Heartbeat(client_id=client, timestamp=t + 10.0)
            )
    loop.run(until=t + 10.0)
    sequencer.flush()
    return sequencer


@pytest.mark.parametrize("p_safe", [0.9, 0.99, 0.999])
def test_engine_parity_on_a_sixty_four_client_hot_sequencer(p_safe):
    # a deeper safe-emission quantile holds more messages pending per arrival
    engine_run = hot_sequencer_run(True, p_safe)
    reference_run = hot_sequencer_run(False, p_safe)
    assert fingerprint(engine_run) == fingerprint(reference_run)
    assert sum(len(emitted.batch.messages) for emitted in engine_run.emitted_batches) == 300
    assert engine_run.model.probability_evaluations == 0
    assert reference_run.model.probability_evaluations > 1000


@pytest.mark.parametrize("completeness_mode", ["bounded_delay", "heartbeat"])
def test_engine_parity_on_a_sixty_four_client_hot_sequencer_awaiting_completeness(
    completeness_mode,
):
    # emission also waits for every one of the 64 clients to be complete
    engine_run = hot_sequencer_run(True, 0.99, completeness_mode, num_messages=60)
    reference_run = hot_sequencer_run(False, 0.99, completeness_mode, num_messages=60)
    assert fingerprint(engine_run) == fingerprint(reference_run)
    assert sum(len(emitted.batch.messages) for emitted in engine_run.emitted_batches) == 60
    assert engine_run.model.probability_evaluations == 0
    assert reference_run.model.probability_evaluations > 1000


def skewed_mixtures(rng, num_clients):
    """Skewed bimodal error mixtures: pairwise medians differ, so the kept
    direction is no longer a function of ``timestamp - mean`` alone and the
    tournament can be intransitive."""
    distributions = {}
    for i in range(num_clients):
        weight = float(rng.uniform(0.1, 0.9))
        distributions[f"c{i}"] = MixtureDistribution(
            [
                GaussianDistribution(float(rng.uniform(-0.5, 0.0)), 0.03),
                GaussianDistribution(float(rng.uniform(0.0, 0.5)), 0.2),
            ],
            [weight, 1.0 - weight],
        )
    return distributions


def cyclic_flush_run(use_engine, cycle_policy, seed=3):
    rng = np.random.default_rng(seed)
    distributions = skewed_mixtures(rng, 4)
    loop = EventLoop()
    config = TommyConfig(
        p_safe=0.95,
        completeness_mode="none",
        probability_method="fft",
        convolution_points=128,
        cycle_policy=cycle_policy,
        seed=3,
    )
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, config
    )
    for k in range(10):
        client = f"c{int(rng.integers(4))}"
        sequencer.receive(
            TimestampedMessage(client_id=client, timestamp=float(rng.normal(0.0, 0.2)), message_id=k),
            arrival_time=0.0,
        )
    sequencer.flush()
    return sequencer


@pytest.mark.parametrize("cycle_policy", ["greedy", "stochastic", "eades"])
def test_engine_parity_through_cycle_resolution(cycle_policy):
    """An intransitive pending set must be grouped identically by the engine
    and by the reference rebuild, under every cycle-breaking policy."""
    engine_run = cyclic_flush_run(True, cycle_policy)
    reference_run = cyclic_flush_run(False, cycle_policy)
    assert engine_run.engine_stats().cycle_resolutions > 0
    assert fingerprint(engine_run) == fingerprint(reference_run)


def test_engine_parity_timed_run_with_cycles_and_shared_rng():
    """A timed run resolves cycles at many emission checks, so the shared
    RNG must be consumed identically by both paths (stochastic policy)."""

    def run(use_engine):
        rng = np.random.default_rng(1)
        distributions = skewed_mixtures(rng, 5)
        loop = EventLoop()
        config = TommyConfig(
            p_safe=0.95,
            completeness_mode="none",
            probability_method="fft",
            convolution_points=128,
            cycle_policy="stochastic",
            seed=3,
        )
        sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
            loop, distributions, config
        )
        t = 0.0
        for k in range(20):
            t += float(rng.exponential(0.05))
            client = f"c{int(rng.integers(5))}"
            message = TimestampedMessage(
                client_id=client,
                timestamp=t + float(rng.normal(0.0, 0.25)),
                true_time=t,
                message_id=900_000 + k,
            )
            loop.schedule_at(t, sequencer.receive, message)
        loop.run(until=t + 20.0)
        sequencer.flush()
        return sequencer

    engine_run = run(True)
    reference_run = run(False)
    assert engine_run.engine_stats().cycle_resolutions > 0
    assert fingerprint(engine_run) == fingerprint(reference_run)


def test_engine_parity_across_client_reregistration():
    """Re-registering a live client rebuilds the engine's matrix; the
    reference path recomputes per arrival, so both must agree."""

    def run(use_engine):
        loop = EventLoop()
        distributions = {
            "a": GaussianDistribution(0.0, 0.1),
            "b": GaussianDistribution(0.0, 0.2),
        }
        config = TommyConfig(p_safe=0.9, completeness_mode="none", seed=0)
        sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
            loop, distributions, config
        )
        sequencer.receive(TimestampedMessage("a", 100.0, message_id=1), arrival_time=0.0)
        sequencer.receive(TimestampedMessage("b", 100.05, message_id=2), arrival_time=0.0)
        # widen a's clock while its message is still pending: the pair is no
        # longer confidently separable
        sequencer.register_client("a", GaussianDistribution(0.0, 5.0))
        sequencer.receive(TimestampedMessage("a", 100.2, message_id=3), arrival_time=0.0)
        loop.run(until=300.0)
        sequencer.flush()
        return sequencer

    assert fingerprint(run(True)) == fingerprint(run(False))


def test_engine_matrix_matches_scratch_relation_after_removals():
    rng = np.random.default_rng(5)
    model = PrecedenceModel()
    distributions = gaussian_distributions(rng, 4)
    for client, distribution in distributions.items():
        model.register_client(client, distribution)
    engine = IncrementalPrecedenceEngine(model, threshold=0.75)
    messages = [
        TimestampedMessage(f"c{int(rng.integers(4))}", float(rng.normal(0, 1)), message_id=10 + k)
        for k in range(12)
    ]
    for message in messages:
        engine.add_message(message)
    engine.remove_messages({messages[0].key, messages[5].key, messages[11].key})
    survivors = [m for m in messages if m.key not in {messages[0].key, messages[5].key, messages[11].key}]
    scratch = LikelyHappenedBefore.from_model(survivors, model)
    for key_a in engine.message_keys:
        for key_b in engine.message_keys:
            if key_a == key_b:
                continue
            assert engine.probability(key_a, key_b) == scratch.probability(key_a, key_b)


def test_engine_groups_match_reference_groups_directly():
    rng = np.random.default_rng(9)
    loop = EventLoop()
    distributions = gaussian_distributions(rng, 6)
    config = TommyConfig(p_safe=0.99, completeness_mode="none", seed=1)
    engine_seq = OnlineTommySequencer(loop, distributions, config)
    reference_seq = ReferenceOnlineSequencer(loop, distributions, config)
    for k in range(30):
        message = TimestampedMessage(
            f"c{int(rng.integers(6))}", float(rng.normal(0, 0.5)), message_id=500 + k
        )
        engine_seq.receive(message, arrival_time=0.0)
        reference_seq.receive(message, arrival_time=0.0)
        engine_groups = [[m.key for m in g] for g in engine_seq._tentative_groups()]
        reference_groups = [[m.key for m in g] for g in reference_seq._tentative_groups()]
        assert engine_groups == reference_groups


def test_safe_emission_time_uses_cached_quantile():
    model = PrecedenceModel()
    model.register_client("a", GaussianDistribution(0.0, 2.0))
    engine = IncrementalPrecedenceEngine(model, threshold=0.75)
    message = TimestampedMessage("a", 100.0, message_id=1)
    other = TimestampedMessage("a", 101.0, message_id=2)
    first = engine.safe_emission_time(message, 0.999)
    second = engine.safe_emission_time(other, 0.999)
    assert first == model.safe_emission_time(message, 0.999)
    assert second == model.safe_emission_time(other, 0.999)
    assert engine.stats.quantile_cache_misses == 1
    assert engine.stats.quantile_cache_hits == 1
    with pytest.raises(ValueError):
        engine.safe_emission_time(message, 0.4)


def test_strict_boundary_strengths_matrix_matches_scalar_path():
    rng = np.random.default_rng(3)
    n = 9
    upper = rng.uniform(0.0, 1.0, size=(n, n))
    matrix = np.where(np.triu(np.ones((n, n)), 1) > 0, upper, 1.0 - upper.T)
    np.fill_diagonal(matrix, 0.5)
    messages = [TimestampedMessage(f"c{k}", float(k), message_id=700 + k) for k in range(n)]
    relation = LikelyHappenedBefore.from_matrix(messages, matrix)
    order = [message.key for message in messages]
    scalar = _strict_boundary_strengths(order, relation)
    vectorized = strict_boundary_strengths_matrix(matrix)
    assert list(vectorized) == scalar


def test_build_relation_matches_from_model_bitwise():
    rng = np.random.default_rng(11)
    model = PrecedenceModel()
    mixed = gaussian_distributions(rng, 3)
    mixed["m"] = MixtureDistribution(
        [GaussianDistribution(-0.2, 0.1), GaussianDistribution(0.3, 0.2)], [0.4, 0.6]
    )
    for client, distribution in mixed.items():
        model.register_client(client, distribution)
    clients = list(mixed)
    messages = [
        TimestampedMessage(clients[int(rng.integers(len(clients)))], float(rng.normal(0, 1)), message_id=800 + k)
        for k in range(10)
    ]
    fast_model = PrecedenceModel()
    for client, distribution in mixed.items():
        fast_model.register_client(client, distribution)
    stats = EngineStats()
    fast = build_relation(messages, fast_model, stats=stats)
    slow = LikelyHappenedBefore.from_model(messages, model)
    for key_a in slow.message_keys:
        for key_b in slow.message_keys:
            if key_a != key_b:
                assert fast.probability(key_a, key_b) == slow.probability(key_a, key_b)
    assert stats.vectorized_evaluations > 0
    # the mixture client's pairs ride the vectorized difference-CDF tables
    # now — the scalar fallback is gone from the relation build
    assert stats.table_evaluations > 0
    assert stats.scalar_evaluations == 0
    assert stats.pair_tables_built > 0


def test_cross_probability_matrix_matches_scalar_model():
    model = PrecedenceModel()
    model.register_client("a", GaussianDistribution(0.0, 1.0))
    model.register_client("b", GaussianDistribution(0.1, 2.0))
    messages_a = [TimestampedMessage("a", float(t), message_id=900 + t) for t in range(3)]
    messages_b = [TimestampedMessage("b", float(t) + 0.5, message_id=950 + t) for t in range(2)]
    matrix = cross_probability_matrix(messages_a, messages_b, model)
    for i, message_a in enumerate(messages_a):
        for j, message_b in enumerate(messages_b):
            assert matrix[i, j] == model.preceding_probability(message_a, message_b)


def test_engine_rejects_duplicate_and_unknown_messages():
    model = PrecedenceModel()
    model.register_client("a", GaussianDistribution(0.0, 1.0))
    engine = IncrementalPrecedenceEngine(model, threshold=0.75)
    message = TimestampedMessage("a", 0.0, message_id=1)
    engine.add_message(message)
    with pytest.raises(ValueError):
        engine.add_message(message)
    with pytest.raises(KeyError):
        engine.add_message(TimestampedMessage("zzz", 0.0, message_id=2))
    with pytest.raises(ValueError):
        IncrementalPrecedenceEngine(model, threshold=0.4)
