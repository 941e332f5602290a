"""Reproduction of the paper's Appendix B worked example (experiment APPB).

Four messages A, B, C, D with the given pairwise preceding probabilities must
produce the tournament A->B->C->D, the unique topological order A, B, C, D,
and with threshold 0.75 the batches {A}, {B, C}, {D}.
"""

import pytest
from batching_reference import form_batches
from graph_reference import TournamentGraph

from repro.core.config import TommyConfig
from repro.core.relation import LikelyHappenedBefore
from repro.core.sequencer import TommySequencer
from tests.conftest import make_message

APPENDIX_B_MATRIX = [
    # A      B      C      D
    [0.00, 0.85, 0.65, 0.92],  # A
    [0.15, 0.00, 0.72, 0.68],  # B
    [0.35, 0.28, 0.00, 0.80],  # C
    [0.08, 0.32, 0.20, 0.00],  # D
]


@pytest.fixture
def appendix_b_relation():
    messages = [make_message(label, float(k)) for k, label in enumerate("ABCD")]
    return LikelyHappenedBefore.from_matrix(messages, APPENDIX_B_MATRIX), messages


def test_tournament_edges_match_the_paper(appendix_b_relation):
    relation, messages = appendix_b_relation
    a, b, c, d = (message.key for message in messages)
    tournament = TournamentGraph.from_relation(relation)
    expected_edges = {
        (a, b): 0.85,
        (a, c): 0.65,
        (a, d): 0.92,
        (b, c): 0.72,
        (b, d): 0.68,
        (c, d): 0.80,
    }
    actual = {(edge.source, edge.target): edge.probability for edge in tournament.edges()}
    assert actual == pytest.approx(expected_edges)


def test_linear_order_is_a_b_c_d(appendix_b_relation):
    relation, messages = appendix_b_relation
    tournament = TournamentGraph.from_relation(relation)
    assert tournament.is_transitive_tournament()
    assert tournament.topological_order() == [message.key for message in messages]


def test_batches_at_threshold_075_are_a_bc_d(appendix_b_relation):
    relation, messages = appendix_b_relation
    tournament = TournamentGraph.from_relation(relation)
    outcome = form_batches(tournament.topological_order(), relation, threshold=0.75)
    labels = [[message.client_id for message in batch.messages] for batch in outcome.batches]
    assert labels == [["A"], ["B", "C"], ["D"]]


def test_higher_threshold_merges_more_messages(appendix_b_relation):
    relation, messages = appendix_b_relation
    tournament = TournamentGraph.from_relation(relation)
    order = tournament.topological_order()
    coarse = form_batches(order, relation, threshold=0.9)
    fine = form_batches(order, relation, threshold=0.6)
    # adjacent probabilities are 0.85, 0.72, 0.80: none exceed 0.9, all exceed 0.6
    assert coarse.batch_count == 1
    assert fine.batch_count == 4


def test_sequencer_entry_point_reproduces_the_batches(appendix_b_relation):
    relation, messages = appendix_b_relation
    sequencer = TommySequencer(config=TommyConfig(threshold=0.75))
    result = sequencer.sequence_relation(relation)
    assert [batch.size for batch in result.batches] == [1, 2, 1]
    ranks = result.rank_of()
    a, b, c, d = (message.key for message in messages)
    assert ranks[a] == 0
    assert ranks[b] == ranks[c] == 1
    assert ranks[d] == 2
