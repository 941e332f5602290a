"""Tests for cycle-breaking policies on intransitive relations."""

import networkx as nx
import numpy as np
import pytest
from graph_reference import (
    TournamentGraph,
    break_cycles_greedy,
    break_cycles_stochastic,
    eades_linear_arrangement,
    remove_backward_edges,
    resolve_cycles,
)

from repro.core.relation import LikelyHappenedBefore
from tests.conftest import make_message


def cyclic_tournament():
    """Three-message rock-paper-scissors cycle with one weak edge."""
    messages = [make_message("a", 0.0), make_message("b", 1.0), make_message("c", 2.0)]
    matrix = [
        [0.0, 0.9, 0.2],
        [0.1, 0.0, 0.8],
        [0.8, 0.2, 0.0],
    ]
    relation = LikelyHappenedBefore.from_matrix(messages, matrix)
    return TournamentGraph.from_relation(relation), messages


def test_greedy_removes_lowest_probability_cycle_edge():
    tournament, messages = cyclic_tournament()
    resolution = break_cycles_greedy(tournament.graph)
    assert resolution.was_cyclic
    assert resolution.policy == "greedy"
    assert len(resolution.removed_edges) == 1
    # weakest edge in the cycle is c -> a with probability 0.8 vs 0.9/0.8... the
    # minimum-probability edge among the cycle's edges is removed
    removed = resolution.removed_edges[0]
    assert removed.probability == pytest.approx(0.8)
    assert nx.is_directed_acyclic_graph(tournament.graph)


def test_greedy_on_acyclic_graph_is_noop():
    messages = [make_message("a", 0.0), make_message("b", 1.0)]
    relation = LikelyHappenedBefore.from_matrix(messages, [[0.0, 0.9], [0.1, 0.0]])
    tournament = TournamentGraph.from_relation(relation)
    resolution = break_cycles_greedy(tournament.graph)
    assert not resolution.was_cyclic
    assert resolution.removed_edges == ()


def test_stochastic_policy_yields_acyclic_graph():
    tournament, _ = cyclic_tournament()
    resolution = break_cycles_stochastic(tournament.graph, np.random.default_rng(0))
    assert resolution.was_cyclic
    assert nx.is_directed_acyclic_graph(tournament.graph)
    assert len(resolution.removed_edges) >= 1


def test_stochastic_policy_varies_with_rng_over_many_rounds():
    removed_probabilities = set()
    for seed in range(30):
        tournament, _ = cyclic_tournament()
        resolution = break_cycles_stochastic(tournament.graph, np.random.default_rng(seed))
        removed_probabilities.add(round(resolution.removed_edges[0].probability, 3))
    # over many rounds different edges get removed (stochastic fairness)
    assert len(removed_probabilities) > 1


def test_eades_arrangement_covers_all_nodes():
    tournament, messages = cyclic_tournament()
    order = eades_linear_arrangement(tournament.graph)
    assert sorted(order) == sorted(message.key for message in messages)


def test_remove_backward_edges_makes_graph_acyclic():
    tournament, _ = cyclic_tournament()
    order = eades_linear_arrangement(tournament.graph)
    resolution = remove_backward_edges(tournament.graph, order)
    assert nx.is_directed_acyclic_graph(tournament.graph)
    assert resolution.policy == "eades"


def test_resolve_cycles_dispatches_policies():
    for policy in ("greedy", "stochastic", "eades"):
        tournament, _ = cyclic_tournament()
        resolution = resolve_cycles(tournament.graph, policy, rng=np.random.default_rng(1))
        assert nx.is_directed_acyclic_graph(tournament.graph)
        assert resolution.policy == policy


def test_resolve_cycles_unknown_policy_rejected():
    tournament, _ = cyclic_tournament()
    with pytest.raises(ValueError):
        resolve_cycles(tournament.graph, "bogus")


def test_removed_probability_mass_accumulates():
    tournament, _ = cyclic_tournament()
    resolution = break_cycles_greedy(tournament.graph)
    assert resolution.removed_probability_mass == pytest.approx(
        sum(edge.probability for edge in resolution.removed_edges)
    )
