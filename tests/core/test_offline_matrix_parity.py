"""Offline ``TommySequencer`` against the materialised-graph pipeline.

``TommySequencer.sequence_relation`` orients the relation into a direction
matrix and linearises it the way the online engine does.  The oracle is the
pipeline it replaced (``tests/reference/graph_reference.py``): build the
``networkx`` tournament, ``resolve_cycles`` on it, take its topological order
and ``form_batches``.  Every metadata value must be ``repr``-equal, the batches
identical and the sequencer's generator left in the oracle's state — on
random relations with exact ties, near ties and coarse rounding, on the
Appendix B matrix, and on whole populations sequenced through ``sequence()``.
"""

import numpy as np
import pytest
from batching_reference import form_batches
from graph_reference import TournamentGraph, resolve_cycles
from hypothesis import given, settings
from hypothesis import strategies as st
from test_appendix_b import APPENDIX_B_MATRIX

from repro.core.config import TommyConfig
from repro.core.cycles import CYCLE_POLICIES
from repro.core.relation import LikelyHappenedBefore
from repro.core.sequencer import TommySequencer
from repro.distributions.mixtures import MixtureDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.experiments.figure5 import _gaussian_factory
from repro.network.message import TimestampedMessage
from repro.workloads.arrivals import UniformGapArrivals
from repro.workloads.scenario import ScenarioConfig, build_scenario
from tests.conftest import make_message

FAMILIES = ("uniform", "ties", "rounded", "noisy")
MODES = ("adjacent", "strict")
TIE_EPSILONS = (0.0, 0.02)


def graph_metadata(relation, config, rng):
    """``(metadata, batches)`` of the graph pipeline, drawing from ``rng``."""
    tournament = TournamentGraph.from_relation(relation, tie_epsilon=config.tie_epsilon)
    transitive = tournament.is_transitive_tournament()
    resolution = resolve_cycles(tournament.graph, config.cycle_policy, rng=rng)
    order = tournament.topological_order()
    outcome = form_batches(order, relation, config.threshold, mode=config.batching_mode)
    metadata = {
        "sequencer": "tommy",
        "threshold": config.threshold,
        "transitive": transitive,
        "was_cyclic": resolution.was_cyclic,
        "cycle_policy": resolution.policy,
        "removed_edges": len(resolution.removed_edges),
        "removed_probability_mass": resolution.removed_probability_mass,
        "tie_count": tournament.tie_count,
        "linear_order": [key for key in order],
        "boundary_probabilities": list(outcome.boundary_probabilities),
        "batch_sizes": list(outcome.batch_sizes),
    }
    return metadata, outcome.batches


def assert_matches_graph(result, sequencer, relation):
    """Compare a finished ``sequencer`` run with the oracle on ``relation``."""
    config = sequencer.config
    rng = np.random.default_rng(config.seed if config.seed is not None else 0)
    metadata, batches = graph_metadata(relation, config, rng)
    assert repr(result.metadata) == repr(metadata)
    assert repr(result.batches) == repr(batches)
    assert sequencer._rng.bit_generator.state == rng.bit_generator.state
    return metadata["was_cyclic"]


def random_relation(family, n, rng):
    """A complementary relation whose key order is not its insertion order."""
    messages = [
        TimestampedMessage(
            client_id=f"c{int(rng.integers(3))}", timestamp=0.0, true_time=0.0, message_id=int(m)
        )
        for m in rng.permutation(n)
    ]
    if family == "uniform":
        forward = rng.random((n, n))
    elif family == "ties":
        # exact 0.5, near ties inside tie_epsilon and certain pairs
        forward = rng.choice([0.0, 0.3, 0.49, 0.5, 0.51, 0.7, 1.0], size=(n, n))
    elif family == "rounded":
        forward = np.round(rng.random((n, n)), 1)
    else:
        time = np.arange(n) + rng.normal(0.0, 0.8, n)
        gap = time[None, :] - time[:, None]
        forward = np.clip(0.5 + 0.4 * gap + rng.normal(0.0, 0.3, (n, n)), 0.0, 1.0)
    probabilities = {}
    for i in range(n):
        for j in range(i + 1, n):
            p = float(forward[i, j])
            probabilities[(messages[i].key, messages[j].key)] = p
            probabilities[(messages[j].key, messages[i].key)] = 1.0 - p
    return LikelyHappenedBefore(messages, probabilities)


def run_configuration(relation, policy, tie_epsilon, mode, threshold, seed):
    config = TommyConfig(
        threshold=threshold,
        cycle_policy=policy,
        tie_epsilon=tie_epsilon,
        batching_mode=mode,
        seed=seed,
    )
    sequencer = TommySequencer(config=config)
    result = sequencer.sequence_relation(relation)
    return assert_matches_graph(result, sequencer, relation)


@pytest.mark.parametrize("family", FAMILIES)
def test_seeded_sweep_matches_the_graph_pipeline(family):
    cyclic = 0
    for seed in range(25):
        rng = np.random.default_rng([seed, FAMILIES.index(family), 27])
        relation = random_relation(family, int(rng.integers(3, 13)), rng)
        threshold = float(rng.choice([0.55, 0.75, 0.9]))
        for policy in CYCLE_POLICIES:
            for tie_epsilon in TIE_EPSILONS:
                for mode in MODES:
                    cyclic += run_configuration(relation, policy, tie_epsilon, mode, threshold, seed)
    assert cyclic >= 20  # the sweep is about the cyclic path


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 14),
    st.sampled_from(CYCLE_POLICIES),
    st.sampled_from(TIE_EPSILONS),
    st.sampled_from(MODES),
    st.sampled_from([0.5, 0.6, 0.75, 0.95]),
    st.integers(0, 2**32 - 1),
)
def test_any_relation_matches_the_graph_pipeline(
    family, n, policy, tie_epsilon, mode, threshold, seed
):
    relation = random_relation(family, n, np.random.default_rng(seed))
    run_configuration(relation, policy, tie_epsilon, mode, threshold, seed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", CYCLE_POLICIES)
def test_appendix_b_matches_the_graph_pipeline(policy, mode):
    messages = [make_message(label, float(k)) for k, label in enumerate("ABCD")]
    relation = LikelyHappenedBefore.from_matrix(messages, APPENDIX_B_MATRIX)
    assert not run_configuration(relation, policy, 0.0, mode, 0.75, None)


def sequence_population(distributions, messages, config):
    sequencer = TommySequencer(distributions, config)
    result = sequencer.sequence(messages)
    relation = TommySequencer(distributions, config).relation_for(messages)
    return assert_matches_graph(result, sequencer, relation), result


def test_figure5_population_matches_the_graph_pipeline():
    scenario = build_scenario(
        ScenarioConfig(
            num_clients=40,
            arrivals=UniformGapArrivals(messages_per_client=1, gap=5.0, jitter_fraction=0.2),
            distribution_factory=_gaussian_factory(40.0, 0.5),
            seed=7 + 40000 + 85,
        )
    )
    cyclic, result = sequence_population(
        scenario.client_distributions, list(scenario.messages), TommyConfig(threshold=0.75)
    )
    assert not cyclic  # Appendix A: Gaussian errors give a transitive tournament
    assert result.batch_count > 1


@pytest.mark.parametrize("policy", CYCLE_POLICIES)
def test_intransitive_population_matches_the_graph_pipeline(policy):
    # skewed mixtures: pairwise medians differ, so the tournament can cycle
    cyclic = 0
    for seed in range(4):
        rng = np.random.default_rng([seed, 5])
        distributions = {}
        for i in range(4):
            weight = float(rng.uniform(0.1, 0.9))
            distributions[f"c{i}"] = MixtureDistribution(
                [
                    GaussianDistribution(float(rng.uniform(-0.5, 0.0)), 0.03),
                    GaussianDistribution(float(rng.uniform(0.0, 0.5)), 0.2),
                ],
                [weight, 1.0 - weight],
            )
        messages = [
            TimestampedMessage(
                client_id=f"c{int(rng.integers(4))}",
                timestamp=float(rng.normal(0.0, 0.2)),
                message_id=k,
            )
            for k in range(20)
        ]
        config = TommyConfig(
            probability_method="fft", convolution_points=128, cycle_policy=policy, seed=seed
        )
        cyclic += sequence_population(distributions, messages, config)[0]
    assert cyclic >= 2

