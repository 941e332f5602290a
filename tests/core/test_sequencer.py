"""Tests for the offline Tommy sequencer."""

import pytest

from repro.core.config import TommyConfig
from repro.core.sequencer import TommySequencer
from repro.distributions.parametric import GaussianDistribution
from repro.metrics.ras import rank_agreement_score
from repro.sequencers.oracle import OracleSequencer
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.conftest import make_message


def gaussian_clients(sigmas):
    return {client: GaussianDistribution(0.0, sigma) for client, sigma in sigmas.items()}


def test_well_separated_messages_are_totally_ordered():
    sequencer = TommySequencer(gaussian_clients({"a": 0.1, "b": 0.1, "c": 0.1}))
    messages = [make_message("a", 0.0), make_message("b", 10.0), make_message("c", 20.0)]
    result = sequencer.sequence(messages)
    assert result.batch_sizes == (1, 1, 1)
    ordered = result.messages_in_rank_order()
    assert [m.client_id for m in ordered] == ["a", "b", "c"]
    assert result.metadata["transitive"] is True
    assert result.metadata["was_cyclic"] is False


def test_ambiguous_messages_share_a_batch():
    sequencer = TommySequencer(gaussian_clients({"a": 5.0, "b": 5.0}))
    messages = [make_message("a", 0.0), make_message("b", 0.5)]
    result = sequencer.sequence(messages)
    assert result.batch_count == 1
    assert result.batch_sizes == (2,)


def test_threshold_controls_granularity():
    clients = gaussian_clients({"a": 1.0, "b": 1.0, "c": 1.0})
    messages = [make_message("a", 0.0), make_message("b", 1.5), make_message("c", 3.0)]
    fine = TommySequencer(clients, TommyConfig(threshold=0.55)).sequence(messages)
    coarse = TommySequencer(clients, TommyConfig(threshold=0.95)).sequence(messages)
    assert fine.batch_count >= coarse.batch_count


def test_high_uncertainty_client_pulls_others_into_its_batch():
    """Appendix C static view: with strict batching one noisy client merges
    two messages that would otherwise be confidently separable."""
    clients = gaussian_clients({"steady": 0.05, "noisy": 5.0})
    messages = [
        make_message("steady", 100.0, true_time=100.0),
        make_message("noisy", 100.6, true_time=100.2),
        make_message("steady", 100.3, true_time=100.3),
    ]
    strict = TommySequencer(clients, TommyConfig(batching_mode="strict")).sequence(messages)
    ranks = strict.rank_of()
    assert ranks[messages[0].key] == ranks[messages[1].key] == ranks[messages[2].key]
    # the paper's adjacent rule (§3.4) separates the two steady-client messages
    adjacent = TommySequencer(clients, TommyConfig(batching_mode="adjacent")).sequence(messages)
    assert adjacent.batch_count >= strict.batch_count


def test_unregistered_client_raises():
    sequencer = TommySequencer(gaussian_clients({"a": 1.0}))
    with pytest.raises(KeyError):
        sequencer.sequence([make_message("a", 0.0), make_message("unknown", 1.0)])


def test_register_client_after_construction():
    sequencer = TommySequencer()
    sequencer.register_client("a", GaussianDistribution(0.0, 1.0))
    sequencer.register_client("b", GaussianDistribution(0.0, 1.0))
    result = sequencer.sequence([make_message("a", 0.0), make_message("b", 10.0)])
    assert result.batch_count == 2


def test_empty_input_gives_empty_result():
    assert TommySequencer().sequence([]).batch_count == 0


def test_duplicate_messages_rejected():
    sequencer = TommySequencer(gaussian_clients({"a": 1.0}))
    message = make_message("a", 0.0)
    with pytest.raises(ValueError):
        sequencer.sequence([message, message])


def test_metadata_reports_linear_order_and_boundaries():
    sequencer = TommySequencer(gaussian_clients({"a": 0.1, "b": 0.1}))
    messages = [make_message("a", 0.0), make_message("b", 5.0)]
    result = sequencer.sequence(messages)
    assert result.metadata["linear_order"] == [messages[0].key, messages[1].key]
    assert len(result.metadata["boundary_probabilities"]) == 1
    assert result.metadata["batch_sizes"] == [1, 1]


def test_tommy_beats_oracle_agreement_of_wfo_under_heterogeneous_noise():
    """Tommy's ordering should agree with ground truth at least as well as a
    naive timestamp sort when one client has a strongly biased clock."""
    clients = {
        "biased": GaussianDistribution(5.0, 0.5),
        "clean-1": GaussianDistribution(0.0, 0.5),
        "clean-2": GaussianDistribution(0.0, 0.5),
    }
    messages = []
    for index, true_time in enumerate([0.0, 2.0, 4.0, 6.0, 8.0, 10.0]):
        client = ["biased", "clean-1", "clean-2"][index % 3]
        offset = 5.0 if client == "biased" else 0.0
        messages.append(make_message(client, true_time + offset, true_time=true_time))
    tommy_result = TommySequencer(clients, TommyConfig(threshold=0.6)).sequence(messages)
    tommy_ras = rank_agreement_score(tommy_result, messages)

    from repro.sequencers.wfo import WaitsForOneSequencer

    wfo_ras = rank_agreement_score(WaitsForOneSequencer().sequence(messages), messages)
    assert tommy_ras.score >= wfo_ras.score


def test_scenario_end_to_end_better_than_truetime_on_small_gaps():
    scenario = build_scenario(
        ScenarioConfig(
            num_clients=30,
            arrivals=UniformGapArrivals(messages_per_client=1, gap=5.0),
            distribution_factory=lambda i, rng: GaussianDistribution(0.0, 30.0),
            seed=2,
        )
    )
    messages = list(scenario.messages)
    tommy = TommySequencer(scenario.client_distributions, TommyConfig())
    tommy_score = rank_agreement_score(tommy.sequence(messages), messages).score

    from repro.sequencers.truetime import TrueTimeSequencer

    truetime = TrueTimeSequencer(scenario.client_distributions)
    truetime_score = rank_agreement_score(truetime.sequence(messages), messages).score
    assert tommy_score >= truetime_score


@pytest.mark.parametrize(
    "num_clients,batch_sizes,correct_pairs,incorrect_pairs",
    [(50, (10, 21, 16, 1, 2), 846, 3), (150, (1, 23, 68, 34, 11, 13), 7925, 25)],
)
def test_wide_burst_is_partitioned_into_ranked_batches(
    num_clients, batch_sizes, correct_pairs, incorrect_pairs
):
    # one message per client, 10 apart, under 30 of clock error: the offline
    # pipeline places every message in exactly one batch, ranks contiguous
    scenario = build_scenario(
        ScenarioConfig(
            num_clients=num_clients,
            arrivals=UniformGapArrivals(messages_per_client=1, gap=10.0, jitter_fraction=0.2),
            distribution_factory=lambda i, rng: GaussianDistribution(0.0, 30.0),
            seed=13,
        )
    )
    messages = list(scenario.messages)
    result = TommySequencer(scenario.client_distributions, TommyConfig()).sequence(messages)
    assert result.message_count == num_clients
    placed = [message.key for batch in result.batches for message in batch.messages]
    assert len(placed) == len(set(placed)) == num_clients
    assert set(placed) == {message.key for message in messages}
    assert [batch.rank for batch in result.batches] == list(range(result.batch_count))
    assert result.batch_sizes == batch_sizes
    breakdown = rank_agreement_score(result, messages)
    assert (breakdown.correct_pairs, breakdown.incorrect_pairs) == (correct_pairs, incorrect_pairs)
