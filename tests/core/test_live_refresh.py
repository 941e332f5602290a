"""Live distribution refresh: engine cache invalidation correctness.

``update_client_distribution`` swaps a client's offset distribution while
messages are pending.  The engine must drop its cached Gaussian parameters,
pair-CDF tables and safe-emission quantiles and rebuild the affected matrix
rows so that the next tentative batching is exactly what the reference
recompute-everything path produces with the refreshed model.
"""

import numpy as np
import pytest
from online_reference import ReferenceOnlineSequencer

from repro.core.config import TommyConfig
from repro.core.online import OnlineTommySequencer
from repro.core.relation import LikelyHappenedBefore
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
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


def refreshing_run(use_engine, seed=3, num_clients=5, num_messages=50, refresh_every=10):
    """A timed stream that refreshes a rotating client mid-stream."""
    rng = np.random.default_rng(seed)
    distributions = {
        f"c{i}": EmpiricalDistribution.from_samples(
            rng.normal(0.0, float(rng.uniform(0.02, 0.2)), 200), bins=64
        )
        for i in range(num_clients)
    }
    loop = EventLoop()
    config = TommyConfig(
        p_safe=0.99, completeness_mode="none", seed=7, convolution_points=512
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
            timestamp=t + float(rng.normal(0.0, 0.1)),
            true_time=t,
            message_id=seed * 1_000_000 + 600_000 + k,
        )
        loop.schedule_at(t, sequencer.receive, message)
        if (k + 1) % refresh_every == 0:
            # refresh a rotating client with a fresh (different) estimate
            target = f"c{(k // refresh_every) % num_clients}"
            refreshed = EmpiricalDistribution.from_samples(
                rng.normal(float(rng.normal(0, 0.05)), float(rng.uniform(0.02, 0.3)), 200),
                bins=64,
            )
            loop.schedule_at(
                t, sequencer.update_client_distribution, target, refreshed
            )
    loop.run(until=t + 50.0)
    sequencer.flush()
    return sequencer


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_mid_stream_refresh_parity_engine_vs_reference(seed):
    engine_run = refreshing_run(True, seed=seed)
    reference_run = refreshing_run(False, seed=seed)
    assert engine_run.distribution_refreshes > 0
    assert fingerprint(engine_run) == fingerprint(reference_run)
    stats = engine_run.engine_stats()
    assert stats.rebuilds > 0  # refreshes hit pending messages
    assert stats.scalar_evaluations == 0


def test_refresh_rebuilds_matrix_and_quantiles_exactly():
    loop = EventLoop()
    rng = np.random.default_rng(9)
    distributions = {
        "a": EmpiricalDistribution.from_samples(rng.normal(0.0, 0.1, 200), bins=64),
        "b": EmpiricalDistribution.from_samples(rng.normal(0.0, 0.2, 200), bins=64),
    }
    config = TommyConfig(p_safe=0.9, completeness_mode="none", convolution_points=512)
    sequencer = OnlineTommySequencer(loop, distributions, config)
    messages = [
        TimestampedMessage("a", 100.0, message_id=910_001),
        TimestampedMessage("b", 100.05, message_id=910_002),
        TimestampedMessage("a", 100.2, message_id=910_003),
    ]
    for message in messages:
        sequencer.receive(message, arrival_time=0.0)
    engine = sequencer.engine
    safe_before = engine.safe_emission_time(messages[0], config.p_safe)

    refreshed = EmpiricalDistribution.from_samples(rng.normal(0.3, 0.5, 200), bins=64)
    sequencer.update_client_distribution("a", refreshed)

    # every maintained probability equals a from-scratch relation on the
    # refreshed model, bit for bit
    scratch = LikelyHappenedBefore.from_model(messages, sequencer.model)
    for key_a in engine.message_keys:
        for key_b in engine.message_keys:
            if key_a != key_b:
                assert engine.probability(key_a, key_b) == scratch.probability(key_a, key_b)
    # the quantile cache was invalidated: safe emission reflects the refresh
    safe_after = engine.safe_emission_time(messages[0], config.p_safe)
    expected = messages[0].timestamp - refreshed.quantile(1.0 - config.p_safe)
    assert safe_after == expected
    assert safe_after != safe_before


def test_update_requires_known_client_and_batch_variant_counts():
    loop = EventLoop()
    distributions = {
        "a": GaussianDistribution(0.0, 0.1),
        "b": GaussianDistribution(0.0, 0.2),
    }
    sequencer = OnlineTommySequencer(loop, distributions, TommyConfig())
    with pytest.raises(KeyError):
        sequencer.update_client_distribution("ghost", GaussianDistribution(0.0, 1.0))
    with pytest.raises(KeyError):
        sequencer.update_client_distributions({"ghost": GaussianDistribution(0.0, 1.0)})
    sequencer.update_client_distributions(
        {
            "a": GaussianDistribution(0.0, 0.3),
            "b": GaussianDistribution(0.1, 0.1),
        }
    )
    assert sequencer.distribution_refreshes == 2
    assert sequencer.result().metadata["distribution_refreshes"] == 2
