"""Tests for the per-client offset-distribution learner."""

import numpy as np
import pytest

from repro.distributions.parametric import GaussianDistribution
from repro.sync.learner import OffsetDistributionLearner
from repro.sync.probe import SyncProbe


def offset_probe(offset):
    """A probe whose NTP offset estimate equals ``offset`` exactly."""
    return SyncProbe(
        client_id="c",
        t1=100.0 + offset,
        t2=100.0005,
        t3=100.0005,
        t4=100.001 + offset,
        true_offset_forward=offset,
        true_offset_backward=offset,
    )


def test_learner_recovers_gaussian_parameters(rng):
    truth = GaussianDistribution(0.002, 0.0005)
    learner = OffsetDistributionLearner(window=4096, method="gaussian")
    for value in truth.sample(rng, size=3000):
        learner.observe_offset(float(value))
    estimate = learner.estimate()
    assert estimate.mean == pytest.approx(0.002, abs=1e-4)
    assert estimate.std == pytest.approx(0.0005, abs=1e-4)


def test_learner_consumes_probes():
    learner = OffsetDistributionLearner(window=64, method="gaussian")
    for offset in np.linspace(-0.001, 0.001, 32):
        learner.observe_probe(offset_probe(float(offset)))
    assert learner.observation_count == 32
    assert learner.probe_count == 32
    estimate = learner.estimate()
    assert estimate.mean == pytest.approx(0.0, abs=1e-4)


def test_window_discards_old_observations():
    learner = OffsetDistributionLearner(window=10, method="gaussian")
    for _ in range(10):
        learner.observe_offset(100.0)
    for _ in range(10):
        learner.observe_offset(0.0)
    assert learner.observation_count == 10
    assert learner.estimate().mean == pytest.approx(0.0, abs=1e-9)


def test_can_estimate_threshold():
    learner = OffsetDistributionLearner()
    assert not learner.can_estimate()
    for k in range(8):
        learner.observe_offset(float(k))
    assert learner.can_estimate()


def test_empirical_and_auto_methods_produce_estimates(rng):
    for method in ("empirical", "auto"):
        learner = OffsetDistributionLearner(window=256, method=method)
        for value in rng.normal(0.0, 1.0, size=200):
            learner.observe_offset(float(value))
        estimate = learner.estimate()
        assert estimate.mean == pytest.approx(0.0, abs=0.3)


def test_estimate_requires_observations():
    with pytest.raises(ValueError):
        OffsetDistributionLearner().estimate()


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        OffsetDistributionLearner(window=1)
    with pytest.raises(ValueError):
        OffsetDistributionLearner(method="bogus")


def test_rtt_filter_applies_across_the_window_not_per_probe():
    """Regression: ``observe_probe`` used to filter each probe in isolation
    (``offsets([probe])``), which always kept the probe and silently disabled
    low-RTT filtering.  The filter must act across the retained window."""
    from repro.sync.estimator import OffsetEstimator
    from repro.workloads.learned import synthesize_probe

    learner = OffsetDistributionLearner(
        window=64, method="gaussian", estimator=OffsetEstimator(best_fraction=0.5)
    )
    # 10 clean probes (offset ~0, small RTT) + 10 congested probes (offset 5,
    # huge RTT): the congested half must be excluded from the estimate
    for k in range(10):
        learner.observe_probe(synthesize_probe("c", offset=0.001 * k, round_trip=0.001))
    for k in range(10):
        learner.observe_probe(synthesize_probe("c", offset=5.0, round_trip=0.5))
    assert learner.probe_count == 20
    assert learner.observation_count == 10  # half retained
    offsets = learner.offsets()
    assert offsets.size == 10
    assert offsets.max() < 0.1  # no congested observation survived
    estimate = learner.estimate()
    assert abs(estimate.mean) < 0.1


def test_probe_window_bounds_retained_probes():
    from repro.workloads.learned import synthesize_probe

    learner = OffsetDistributionLearner(window=8, method="gaussian")
    for k in range(20):
        learner.observe_probe(synthesize_probe("c", offset=float(k), round_trip=0.001))
    # only the 8 most recent probes are retained
    assert learner.observation_count == 8
    assert learner.offsets().min() == 12.0


@pytest.mark.parametrize("method", ["gaussian", "empirical"])
@pytest.mark.parametrize("window", [16, 64, 256])
def test_window_forgets_the_old_regime_after_a_mean_shift(window, method):
    """After an offset jump the window first holds a mixture of both regimes;
    one window of probes later the estimate holds the new regime alone."""
    rng = np.random.default_rng(window)
    learner = OffsetDistributionLearner(window=window, method=method)
    for value in rng.normal(0.0, 1e-4, size=2 * window):
        learner.observe_offset(float(value))
    assert learner.estimate().mean == pytest.approx(0.0, abs=2e-4)
    for value in rng.normal(5e-3, 1e-4, size=window // 2):
        learner.observe_offset(float(value))
    mixed = learner.estimate()
    assert 1.5e-3 < mixed.mean < 3.5e-3 and mixed.std > 2e-3
    for value in rng.normal(5e-3, 1e-4, size=window // 2):
        learner.observe_offset(float(value))
    after = learner.estimate()
    assert after.mean == pytest.approx(5e-3, abs=2e-4)
    assert after.std < 5e-4
