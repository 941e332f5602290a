"""Tests for tournament construction and linear-order extraction."""

import pytest
from graph_reference import TournamentGraph

from repro.core.probability import PrecedenceModel
from repro.core.relation import LikelyHappenedBefore
from repro.distributions.parametric import GaussianDistribution
from tests.conftest import make_message


def relation_from_matrix(matrix, clients=None):
    n = len(matrix)
    clients = clients or [f"c{k}" for k in range(n)]
    messages = [make_message(clients[k], float(k)) for k in range(n)]
    return LikelyHappenedBefore.from_matrix(messages, matrix), messages


def test_tournament_keeps_one_edge_per_pair():
    relation, _ = relation_from_matrix(
        [
            [0.0, 0.85, 0.65],
            [0.15, 0.0, 0.72],
            [0.35, 0.28, 0.0],
        ]
    )
    tournament = TournamentGraph.from_relation(relation)
    assert tournament.node_count == 3
    assert tournament.edge_count == 3
    assert tournament.tie_count == 0


def test_kept_edges_have_the_higher_probability():
    relation, messages = relation_from_matrix([[0.0, 0.2], [0.8, 0.0]])
    tournament = TournamentGraph.from_relation(relation)
    assert tournament.graph.has_edge(messages[1].key, messages[0].key)
    assert not tournament.graph.has_edge(messages[0].key, messages[1].key)
    assert tournament.probability(messages[1].key, messages[0].key) == pytest.approx(0.8)


def test_transitive_tournament_detected_and_topologically_ordered():
    relation, messages = relation_from_matrix(
        [
            [0.0, 0.85, 0.65, 0.92],
            [0.15, 0.0, 0.72, 0.68],
            [0.35, 0.28, 0.0, 0.80],
            [0.08, 0.32, 0.20, 0.0],
        ]
    )
    tournament = TournamentGraph.from_relation(relation)
    assert tournament.is_acyclic()
    assert tournament.is_transitive_tournament()
    order = tournament.topological_order()
    assert order == [messages[0].key, messages[1].key, messages[2].key, messages[3].key]
    assert tournament.hamiltonian_order() == order
    assert tournament.cycles() == []


def test_cyclic_relation_detected():
    relation, _ = relation_from_matrix(
        [
            [0.0, 0.9, 0.1],
            [0.1, 0.0, 0.9],
            [0.9, 0.1, 0.0],
        ]
    )
    tournament = TournamentGraph.from_relation(relation)
    assert not tournament.is_acyclic()
    assert not tournament.is_transitive_tournament()
    assert len(tournament.cycles()) >= 1
    with pytest.raises(ValueError):
        tournament.topological_order()


def test_tie_counting_and_deterministic_orientation():
    relation, messages = relation_from_matrix([[0.0, 0.5], [0.5, 0.0]])
    tournament = TournamentGraph.from_relation(relation, tie_epsilon=0.01)
    assert tournament.tie_count == 1
    assert tournament.edge_count == 1
    source, target = list(tournament.graph.edges)[0]
    assert source <= target  # deterministic orientation by key


def test_adjacent_probabilities_follow_relation():
    relation, messages = relation_from_matrix(
        [
            [0.0, 0.85, 0.65],
            [0.15, 0.0, 0.72],
            [0.35, 0.28, 0.0],
        ]
    )
    tournament = TournamentGraph.from_relation(relation)
    order = tournament.topological_order()
    assert tournament.adjacent_probabilities(order) == [0.85, 0.72]


def test_topological_order_from_model_sorts_by_effective_timestamp():
    model = PrecedenceModel()
    for client in ("a", "b", "c"):
        model.register_client(client, GaussianDistribution(0.0, 1.0))
    messages = [make_message("a", 5.0), make_message("b", 1.0), make_message("c", 3.0)]
    relation = LikelyHappenedBefore.from_model(messages, model)
    tournament = TournamentGraph.from_relation(relation)
    order = tournament.topological_order()
    assert order == [messages[1].key, messages[2].key, messages[0].key]


def test_edges_view_returns_pair_probabilities():
    relation, _ = relation_from_matrix([[0.0, 0.7], [0.3, 0.0]])
    tournament = TournamentGraph.from_relation(relation)
    edges = tournament.edges()
    assert len(edges) == 1
    assert edges[0].probability == pytest.approx(0.7)
