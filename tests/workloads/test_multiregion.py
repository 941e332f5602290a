"""Tests for multi-region scenario generation."""

import numpy as np
import pytest

from repro.core.config import TommyConfig
from repro.core.sequencer import TommySequencer
from repro.experiments.runner import evaluate_result
from repro.metrics.ras import rank_agreement_score
from repro.sequencers.truetime import TrueTimeSequencer
from repro.workloads.multiregion import (
    DEFAULT_REGIONS,
    RegionProfile,
    build_multiregion_scenario,
)


def test_every_client_is_placed_in_a_known_region():
    multi = build_multiregion_scenario(num_clients=30, seed=1)
    assert len(multi.region_of) == 30
    region_names = {region.name for region in multi.regions}
    assert set(multi.region_of.values()) <= region_names
    placed = sum(len(multi.clients_in(name)) for name in region_names)
    assert placed == 30


def test_region_clock_quality_differs_between_profiles():
    multi = build_multiregion_scenario(num_clients=60, seed=2)
    local_stds = [multi.client_distributions[c].std for c in multi.clients_in("local")]
    remote_stds = [multi.client_distributions[c].std for c in multi.clients_in("remote")]
    assert local_stds and remote_stds
    assert np.mean(remote_stds) > 10 * np.mean(local_stds)


def test_delay_models_follow_region_profiles(rng):
    multi = build_multiregion_scenario(num_clients=40, seed=3)
    local_clients = multi.clients_in("local")
    remote_clients = multi.clients_in("remote")
    assert local_clients and remote_clients
    local_delay = multi.delay_model_for(local_clients[0]).mean
    remote_delay = multi.delay_model_for(remote_clients[0]).mean
    assert remote_delay > 10 * local_delay


def test_generation_is_deterministic_per_seed():
    a = build_multiregion_scenario(num_clients=20, seed=5)
    b = build_multiregion_scenario(num_clients=20, seed=5)
    assert a.region_of == b.region_of
    assert [m.timestamp for m in a.scenario.messages] == [m.timestamp for m in b.scenario.messages]


def test_weights_bias_placement():
    heavy_local = (
        RegionProfile(name="local", clock_std=20e-6, weight=9.0),
        RegionProfile(name="remote", clock_std=2e-3, weight=1.0),
    )
    multi = build_multiregion_scenario(num_clients=100, regions=heavy_local, seed=7)
    assert len(multi.clients_in("local")) > len(multi.clients_in("remote"))


def test_tommy_orders_multiregion_burst_at_least_as_well_as_truetime():
    multi = build_multiregion_scenario(num_clients=30, seed=11)
    messages = list(multi.scenario.messages)
    tommy = TommySequencer(multi.client_distributions, TommyConfig(threshold=0.6))
    truetime = TrueTimeSequencer(multi.client_distributions)
    tommy_score = rank_agreement_score(tommy.sequence(messages), messages).score
    truetime_score = rank_agreement_score(truetime.sequence(messages), messages).score
    assert tommy_score >= truetime_score


def test_strict_batching_is_at_least_as_conservative_as_adjacent():
    multi = build_multiregion_scenario(num_clients=40, seed=19)
    messages = list(multi.scenario.messages)
    distributions = multi.client_distributions
    sequencers = {
        "truetime": TrueTimeSequencer(distributions),
        "adjacent": TommySequencer(distributions, TommyConfig(threshold=0.6)),
        "strict": TommySequencer(
            distributions, TommyConfig(threshold=0.6, batching_mode="strict")
        ),
    }
    rows = {
        name: evaluate_result(name, sequencer.sequence(messages), messages).as_row()
        for name, sequencer in sequencers.items()
    }
    assert {
        name: (row["ras"], row["incorrect_pairs"], row["batches"]) for name, row in rows.items()
    } == {"truetime": (0, 0, 1), "adjacent": (272, 213, 13), "strict": (0, 0, 1)}
    assert rows["adjacent"]["ras"] >= rows["truetime"]["ras"]
    assert rows["strict"]["ras"] >= rows["truetime"]["ras"]
    assert rows["strict"]["incorrect_pairs"] <= rows["adjacent"]["incorrect_pairs"]
    assert rows["strict"]["batches"] <= rows["adjacent"]["batches"]


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        build_multiregion_scenario(num_clients=0)
    with pytest.raises(ValueError):
        build_multiregion_scenario(num_clients=5, regions=())
    with pytest.raises(ValueError):
        RegionProfile(name="", clock_std=1e-3)
    with pytest.raises(ValueError):
        RegionProfile(name="x", clock_std=-1.0)
    with pytest.raises(ValueError):
        RegionProfile(name="x", clock_std=1e-3, delay_median=0.0)
    with pytest.raises(ValueError):
        RegionProfile(name="x", clock_std=1e-3, weight=0.0)
