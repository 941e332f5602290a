"""Tests for threshold batching (paper §3.4)."""

import numpy as np
import pytest
from batching_reference import _strict_boundary_strengths, form_batches

from repro.core.relation import LikelyHappenedBefore
from tests.conftest import make_message


def relation_and_order(matrix):
    messages = [make_message(f"c{k}", float(k)) for k in range(len(matrix))]
    relation = LikelyHappenedBefore.from_matrix(messages, matrix)
    order = [message.key for message in messages]
    return relation, order, messages


def test_boundary_inserted_only_above_threshold():
    matrix = [
        [0.0, 0.85, 0.6, 0.55],
        [0.15, 0.0, 0.72, 0.6],
        [0.4, 0.28, 0.0, 0.80],
        [0.45, 0.4, 0.20, 0.0],
    ]
    relation, order, messages = relation_and_order(matrix)
    outcome = form_batches(order, relation, threshold=0.75)
    assert outcome.batch_sizes == (1, 2, 1)
    assert outcome.boundary_probabilities == (0.85, 0.72, 0.80)


def test_low_threshold_approaches_total_order():
    matrix = [
        [0.0, 0.6, 0.6],
        [0.4, 0.0, 0.6],
        [0.4, 0.4, 0.0],
    ]
    relation, order, _ = relation_and_order(matrix)
    outcome = form_batches(order, relation, threshold=0.55)
    assert outcome.batch_sizes == (1, 1, 1)
    assert outcome.singleton_fraction == 1.0


def test_high_threshold_collapses_into_one_batch():
    matrix = [
        [0.0, 0.8, 0.8],
        [0.2, 0.0, 0.8],
        [0.2, 0.2, 0.0],
    ]
    relation, order, _ = relation_and_order(matrix)
    outcome = form_batches(order, relation, threshold=0.9)
    assert outcome.batch_count == 1
    assert outcome.largest_batch == 3


def test_batches_preserve_order_and_assign_consecutive_ranks():
    matrix = [
        [0.0, 0.9, 0.9],
        [0.1, 0.0, 0.9],
        [0.1, 0.1, 0.0],
    ]
    relation, order, messages = relation_and_order(matrix)
    outcome = form_batches(order, relation, threshold=0.75)
    assert [batch.rank for batch in outcome.batches] == [0, 1, 2]
    flattened = [message.key for batch in outcome.batches for message in batch.messages]
    assert flattened == order


def test_empty_order_gives_empty_outcome():
    relation, order, _ = relation_and_order([[0.0, 0.6], [0.4, 0.0]])
    outcome = form_batches([], relation, threshold=0.75)
    assert outcome.batch_count == 0
    assert outcome.largest_batch == 0
    assert outcome.singleton_fraction == 0.0


def test_single_message_is_one_singleton_batch():
    relation, order, messages = relation_and_order([[0.0, 0.6], [0.4, 0.0]])
    outcome = form_batches(order[:1], relation, threshold=0.75)
    assert outcome.batch_sizes == (1,)


def test_invalid_threshold_rejected():
    relation, order, _ = relation_and_order([[0.0, 0.6], [0.4, 0.0]])
    with pytest.raises(ValueError):
        form_batches(order, relation, threshold=0.3)
    with pytest.raises(ValueError):
        form_batches(order, relation, threshold=1.0)


def test_invalid_mode_rejected():
    relation, order, _ = relation_and_order([[0.0, 0.6], [0.4, 0.0]])
    with pytest.raises(ValueError):
        form_batches(order, relation, threshold=0.75, mode="fuzzy")


def test_strict_mode_merges_across_uncertain_non_adjacent_pair():
    """Appendix C shape: adjacent rule splits after the first message, the
    strict rule keeps everything together because the (0, 2) pair is weak."""
    matrix = [
        [0.0, 0.99, 0.60],
        [0.01, 0.0, 0.55],
        [0.40, 0.45, 0.0],
    ]
    relation, order, _ = relation_and_order(matrix)
    adjacent = form_batches(order, relation, threshold=0.75, mode="adjacent")
    strict = form_batches(order, relation, threshold=0.75, mode="strict")
    assert adjacent.batch_sizes == (1, 2)
    assert strict.batch_sizes == (3,)


def test_strict_mode_equals_adjacent_when_all_pairs_confident():
    matrix = [
        [0.0, 0.9, 0.95],
        [0.1, 0.0, 0.9],
        [0.05, 0.1, 0.0],
    ]
    relation, order, _ = relation_and_order(matrix)
    adjacent = form_batches(order, relation, threshold=0.75, mode="adjacent")
    strict = form_batches(order, relation, threshold=0.75, mode="strict")
    assert adjacent.batch_sizes == strict.batch_sizes == (1, 1, 1)


def test_strict_boundary_strengths_are_minima_over_straddling_pairs():
    matrix = [
        [0.0, 0.9, 0.7],
        [0.1, 0.0, 0.8],
        [0.3, 0.2, 0.0],
    ]
    relation, order, _ = relation_and_order(matrix)
    strict = form_batches(order, relation, threshold=0.75, mode="strict")
    # boundary 0: min(p(0,1), p(0,2)) = 0.7 ; boundary 1: min(p(0,2), p(1,2)) = 0.7
    assert strict.boundary_probabilities == pytest.approx((0.7, 0.7))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_strict_boundary_strengths_pinned_on_randomized_order(seed):
    """Regression for the suffix-minimum rewrite: the strengths of every
    boundary on a randomized order must equal the brute-force minimum over
    all straddling pairs, and the resulting strict batching must match."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 14))
    upper = rng.uniform(0.0, 1.0, size=(n, n))
    matrix = np.where(np.triu(np.ones((n, n)), 1) > 0, upper, 1.0 - upper.T)
    np.fill_diagonal(matrix, 0.0)
    messages = [make_message(f"c{k}", float(k)) for k in range(n)]
    relation = LikelyHappenedBefore.from_matrix(messages, matrix.tolist())
    order = [message.key for message in messages]
    rng.shuffle(order)

    strengths = _strict_boundary_strengths(order, relation)
    brute_force = [
        min(
            relation.probability(order[i], order[j])
            for i in range(k + 1)
            for j in range(k + 1, n)
        )
        for k in range(n - 1)
    ]
    assert strengths == brute_force  # exact, not approx: same floats, same minima

    outcome = form_batches(order, relation, threshold=0.6, mode="strict")
    flattened = [message.key for batch in outcome.batches for message in batch.messages]
    assert flattened == list(order)
    assert outcome.boundary_probabilities == tuple(brute_force)
