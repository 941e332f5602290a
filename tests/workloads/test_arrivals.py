"""Tests for arrival processes."""

import numpy as np
import pytest

from repro.workloads.arrivals import BurstArrivals, PoissonArrivals, UniformGapArrivals


def test_uniform_gap_round_robins_clients(rng):
    arrivals = UniformGapArrivals(messages_per_client=2, gap=1.0)
    times = arrivals.generate(["a", "b"], rng)
    assert sorted(times) == ["a", "b"]
    assert len(times["a"]) == 2
    assert len(times["b"]) == 2
    merged = sorted(times["a"] + times["b"])
    gaps = np.diff(merged)
    assert np.allclose(gaps, 1.0)


def test_uniform_gap_zero_gap_still_strictly_increasing(rng):
    arrivals = UniformGapArrivals(messages_per_client=3, gap=0.0)
    times = arrivals.generate(["a", "b"], rng)
    merged = sorted(times["a"] + times["b"])
    assert all(later > earlier for earlier, later in zip(merged, merged[1:]))


def test_uniform_gap_jitter_varies_spacing(rng):
    arrivals = UniformGapArrivals(messages_per_client=10, gap=1.0, jitter_fraction=0.5)
    times = arrivals.generate(["a", "b", "c"], rng)
    merged = sorted(sum(times.values(), []))
    gaps = np.diff(merged)
    assert gaps.std() > 0


def test_uniform_gap_per_client_times_are_sorted(rng):
    arrivals = UniformGapArrivals(messages_per_client=5, gap=0.5, start_time=100.0)
    times = arrivals.generate(["a", "b"], rng)
    for client_times in times.values():
        assert client_times == sorted(client_times)
        assert client_times[0] >= 100.0


def test_uniform_gap_invalid_parameters():
    with pytest.raises(ValueError):
        UniformGapArrivals(messages_per_client=0, gap=1.0)
    with pytest.raises(ValueError):
        UniformGapArrivals(messages_per_client=1, gap=-1.0)
    with pytest.raises(ValueError):
        UniformGapArrivals(messages_per_client=1, gap=1.0, jitter_fraction=1.0)


def test_poisson_rate_controls_expected_count(rng):
    arrivals = PoissonArrivals(rate_per_client=50.0, horizon=10.0)
    times = arrivals.generate(["a"], rng)
    assert len(times["a"]) == pytest.approx(500, rel=0.2)
    assert all(0.0 < t <= 10.0 for t in times["a"])


def test_poisson_invalid_parameters():
    with pytest.raises(ValueError):
        PoissonArrivals(rate_per_client=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        PoissonArrivals(rate_per_client=1.0, horizon=0.0)


@pytest.mark.parametrize(
    "rate, horizon",
    [(1.0, float("nan")), (1.0, float("inf")), (float("inf"), 1.0), (float("nan"), 1.0)],
    ids=["nan-horizon", "inf-horizon", "inf-rate", "nan-rate"],
)
def test_poisson_rejects_non_finite_parameters(rate, horizon):
    # each of these used to make generate() loop forever: 1/inf draws 0.0
    # steps, and ``current > nan`` / ``current > inf`` is never true
    with pytest.raises(ValueError):
        PoissonArrivals(rate_per_client=rate, horizon=horizon)


def test_burst_every_client_reacts_after_the_event(rng):
    arrivals = BurstArrivals(event_time=5.0, reaction_median=0.001, reaction_sigma=0.3)
    times = arrivals.generate([f"c{k}" for k in range(20)], rng)
    assert len(times) == 20
    for client_times in times.values():
        assert len(client_times) == 1
        assert client_times[0] > 5.0


def test_burst_followups_extend_each_clients_burst(rng):
    arrivals = BurstArrivals(followups=3, followup_gap=0.001)
    times = arrivals.generate(["a"], rng)
    assert len(times["a"]) == 4
    assert times["a"] == sorted(times["a"])


def test_burst_invalid_parameters():
    with pytest.raises(ValueError):
        BurstArrivals(reaction_median=0.0)
    with pytest.raises(ValueError):
        BurstArrivals(followups=-1)
    with pytest.raises(ValueError):
        BurstArrivals(followup_gap=0.0)
