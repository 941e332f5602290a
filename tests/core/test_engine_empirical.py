"""Parity tests for the empirical (pair-table) fast path of the engine.

The contract mirrors the Gaussian engine tests: for empirical/learned/
mixture client distributions the engine-backed online sequencer must emit
byte-identical batches to the reference recompute-everything path while
performing *zero* scalar probability evaluations — the pair-table kernel
replaces the scalar FFT fallback bit-for-bit.
"""

import numpy as np
import pytest
from online_reference import ReferenceOnlineSequencer

from repro.core.config import TommyConfig
from repro.core.engine import (
    EngineStats,
    IncrementalPrecedenceEngine,
    PairTableCache,
    cross_probability_matrix,
)
from repro.core.online import OnlineTommySequencer
from repro.core.probability import PrecedenceModel
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import GaussianDistribution, LaplaceDistribution
from repro.network.message import TimestampedMessage
from repro.simulation.event_loop import EventLoop


def fingerprint(sequencer):
    return [
        (
            emitted.batch.rank,
            tuple(message.key for message in emitted.batch.messages),
            emitted.emitted_at,
            emitted.safe_emission_time,
        )
        for emitted in sequencer.emitted_batches
    ]


def empirical_distributions(rng, num_clients):
    """Histogram distributions like those the probe learner produces."""
    distributions = {}
    for i in range(num_clients):
        sigma = float(rng.uniform(0.01, 0.2))
        samples = rng.normal(float(rng.normal(0.0, 0.02)), sigma, 300)
        distributions[f"c{i}"] = EmpiricalDistribution.from_samples(samples, bins=64)
    return distributions


def mixed_distributions(rng, num_clients):
    """Gaussian + empirical + mixture clients in one model (mixed pairs)."""
    distributions = {}
    for i in range(num_clients):
        kind = i % 3
        sigma = float(rng.uniform(0.02, 0.2))
        if kind == 0:
            distributions[f"c{i}"] = GaussianDistribution(0.0, sigma)
        elif kind == 1:
            samples = rng.normal(0.0, sigma, 300)
            distributions[f"c{i}"] = EmpiricalDistribution.from_samples(samples, bins=64)
        else:
            distributions[f"c{i}"] = MixtureDistribution(
                [GaussianDistribution(-sigma, 0.5 * sigma), LaplaceDistribution(sigma, 0.4 * sigma)],
                [0.6, 0.4],
            )
    return distributions


def outlier_distributions(rng, num_clients):
    """A tight 2-6 ms bulk with ~3% symmetric outliers at +-0.6 s, the shape a
    probe-learned estimate takes: the deep ``p_safe`` quantile sits out in
    the outlier mass while the median-zero bulk keeps emissions flowing."""
    distributions = {}
    for i in range(num_clients):
        bulk = rng.normal(0.0, float(rng.uniform(0.002, 0.006)), 600)
        outliers = np.concatenate(
            [-0.6 + rng.normal(0.0, 0.05, 10), 0.6 + rng.normal(0.0, 0.05, 10)]
        )
        samples = np.concatenate([bulk, outliers])
        distributions[f"c{i}"] = EmpiricalDistribution.from_samples(
            samples - np.median(samples), bins=256
        )
    return distributions


def stream_run(distribution_factory, use_engine, seed, num_messages=60):
    rng = np.random.default_rng(seed)
    distributions = distribution_factory(rng, 6)
    loop = EventLoop()
    # modest convolution grids keep the many per-pair FFTs fast in CI; both
    # variants share the resolution so parity is unaffected
    config = TommyConfig(
        p_safe=0.99, completeness_mode="none", seed=7, convolution_points=512
    )
    sequencer = (OnlineTommySequencer if use_engine else ReferenceOnlineSequencer)(
        loop, distributions, config
    )
    t = 0.0
    for k in range(num_messages):
        t += float(rng.exponential(0.05))
        client = f"c{int(rng.integers(6))}"
        sigma = distributions[client].std
        message = TimestampedMessage(
            client_id=client,
            timestamp=t + float(rng.normal(0.0, sigma)),
            true_time=t,
            message_id=seed * 1_000_000 + 500_000 + k,
        )
        loop.schedule_at(t, sequencer.receive, message)
    loop.run(until=t + 50.0)
    sequencer.flush()
    return sequencer


@pytest.mark.parametrize(
    "factory,seed,num_messages",
    [
        (empirical_distributions, 0, 60),
        (empirical_distributions, 1, 60),
        (empirical_distributions, 2, 60),
        # mixture clients pay the reference path's uncached quantile
        # bisections, so the mixed runs stay small
        (mixed_distributions, 0, 30),
        (mixed_distributions, 1, 30),
        (outlier_distributions, 0, 60),
        (outlier_distributions, 1, 60),
        (outlier_distributions, 2, 60),
    ],
)
def test_empirical_stream_parity_with_zero_scalar_evaluations(factory, seed, num_messages):
    engine_run = stream_run(factory, True, seed, num_messages=num_messages)
    reference_run = stream_run(factory, False, seed, num_messages=num_messages)
    assert fingerprint(engine_run) == fingerprint(reference_run)
    stats = engine_run.engine_stats()
    assert stats.table_evaluations > 0
    assert stats.scalar_evaluations == 0
    assert engine_run.model.probability_evaluations == 0
    assert reference_run.model.probability_evaluations > 100


def test_first_tentative_group_equals_full_batching_head():
    rng = np.random.default_rng(11)
    model = PrecedenceModel()
    distributions = mixed_distributions(rng, 6)
    for client, distribution in distributions.items():
        model.register_client(client, distribution)
    engine = IncrementalPrecedenceEngine(model, threshold=0.75)
    assert engine.first_tentative_group() is None
    for k in range(40):
        client = f"c{int(rng.integers(6))}"
        engine.add_message(
            TimestampedMessage(client, float(rng.normal(0, 0.3)), message_id=700_000 + k)
        )
        first = [m.key for m in engine.first_tentative_group()]
        full = [[m.key for m in group] for group in engine.tentative_groups()]
        assert first == full[0]


def test_pair_table_cache_invalidation_rebuilds_tables():
    model = PrecedenceModel()
    rng = np.random.default_rng(2)
    model.register_client("a", EmpiricalDistribution.from_samples(rng.normal(0, 1, 200)))
    model.register_client("b", EmpiricalDistribution.from_samples(rng.normal(0, 2, 200)))
    stats = EngineStats()
    cache = PairTableCache(model, stats=stats)
    grid_before, cdf_before = cache.table("a", "b")
    assert cache.table("a", "b") is not None
    assert stats.pair_tables_built == 1  # second lookup was cached
    # refresh b: the model drops its pair difference; the cache must follow
    model.register_client("b", EmpiricalDistribution.from_samples(rng.normal(0.5, 1, 200)))
    cache.invalidate_client("b")
    grid_after, cdf_after = cache.table("a", "b")
    assert stats.pair_tables_built == 2
    assert not (
        grid_after.shape == grid_before.shape and np.array_equal(grid_after, grid_before)
    )


def test_cross_probability_matrix_bitwise_on_empirical_clients():
    rng = np.random.default_rng(5)
    model = PrecedenceModel()
    scalar_model = PrecedenceModel()
    for name, scale in (("a", 0.5), ("b", 1.0), ("g", 0.2)):
        if name == "g":
            distribution = GaussianDistribution(0.0, scale)
        else:
            distribution = EmpiricalDistribution.from_samples(rng.normal(0, scale, 200))
        model.register_client(name, distribution)
        scalar_model.register_client(name, distribution)
    messages_a = [
        TimestampedMessage(name, float(t), message_id=810_000 + 10 * t + i)
        for i, name in enumerate(("a", "g"))
        for t in range(3)
    ]
    messages_b = [
        TimestampedMessage("b", 0.3 * t, message_id=820_000 + t) for t in range(4)
    ]
    stats = EngineStats()
    matrix = cross_probability_matrix(messages_a, messages_b, model, stats=stats)
    for i, message_a in enumerate(messages_a):
        for j, message_b in enumerate(messages_b):
            assert matrix[i, j] == scalar_model.preceding_probability(message_a, message_b)
    assert stats.table_evaluations == len(messages_a) * len(messages_b)
    assert stats.scalar_evaluations == 0
