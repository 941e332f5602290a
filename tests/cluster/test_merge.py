"""Tests for the probabilistic cross-shard merger."""

import numpy as np
import pytest

from merge_reference import batch_precedence

from repro.cluster.merge import (
    CertaintyWindows,
    StreamingMerger,
    _merge_from_matrix,
    merge_fingerprint,
    merge_streams,
)
from repro.core.probability import PrecedenceModel
from repro.distributions.empirical import EmpiricalDistribution
from repro.distributions.parametric import GaussianDistribution
from repro.network.message import SequencedBatch, TimestampedMessage


def make_message(client, timestamp, true_time=None):
    return TimestampedMessage(
        client_id=client, timestamp=timestamp, true_time=timestamp if true_time is None else true_time
    )


def model_for(clients, sigma=1.0):
    model = PrecedenceModel()
    for client in clients:
        model.register_client(client, GaussianDistribution(0.0, sigma))
    return model


def batch(rank, *messages, emitted_at=None):
    return SequencedBatch(rank=rank, messages=tuple(messages), emitted_at=emitted_at)


def test_single_shard_stream_passes_through_unchanged():
    model = model_for(["a"])
    stream = [batch(0, make_message("a", 0.0)), batch(1, make_message("a", 10.0))]
    outcome = merge_streams([stream], model)
    assert outcome.merged_cross_shard == 0
    assert outcome.cross_pairs_evaluated == 0
    assert outcome.result.batch_count == 2
    assert [b.messages for b in outcome.result.batches] == [s.messages for s in stream]


def test_confident_cross_shard_batches_interleave_correctly():
    model = model_for(["a", "b"], sigma=0.5)
    shard0 = [batch(0, make_message("a", 0.0)), batch(1, make_message("a", 100.0))]
    shard1 = [batch(0, make_message("b", 50.0))]
    outcome = merge_streams([shard0, shard1], model, threshold=0.75)
    assert outcome.result.batch_count == 3
    timestamps = [b.messages[0].timestamp for b in outcome.result.batches]
    assert timestamps == [0.0, 50.0, 100.0]
    assert outcome.merged_cross_shard == 0


def test_uncertain_cross_shard_batches_coalesce():
    # timestamps 0 and 0.1 with sigma 10 clocks: far below any confidence
    model = model_for(["a", "b"], sigma=10.0)
    shard0 = [batch(0, make_message("a", 0.0))]
    shard1 = [batch(0, make_message("b", 0.1))]
    outcome = merge_streams([shard0, shard1], model, threshold=0.75)
    assert outcome.result.batch_count == 1
    assert outcome.merged_cross_shard == 1
    assert outcome.result.batches[0].size == 2


def test_same_shard_batches_never_coalesce():
    # the shard separated them; the merger must respect that even when the
    # batch-level probability is far from confident
    model = model_for(["a"], sigma=10.0)
    stream = [batch(0, make_message("a", 0.0)), batch(1, make_message("a", 0.1))]
    outcome = merge_streams([stream], model, threshold=0.75)
    assert outcome.result.batch_count == 2


def test_batch_precedence_is_complementary_and_mean_pooled():
    model = model_for(["a", "b"], sigma=1.0)
    batch_a = batch(0, make_message("a", 0.0), make_message("a", 1.0))
    batch_b = batch(0, make_message("b", 2.0))
    forward = batch_precedence(batch_a, batch_b, model)
    backward = batch_precedence(batch_b, batch_a, model)
    assert forward == pytest.approx(1.0 - backward)
    expected = (
        model.preceding_probability_for("a", 0.0, "b", 2.0)
        + model.preceding_probability_for("a", 1.0, "b", 2.0)
    ) / 2.0
    assert forward == pytest.approx(expected)


def test_within_shard_order_survives_adversarial_timestamps():
    # shard 0 confidently emitted a@10 before a@0 from its own evidence; a
    # third-party b@5 then forms a cycle (a@10 -> a@0 -> b@5 -> a@10) that
    # cycle-breaking must resolve without ever inverting the shard's order
    model = model_for(["a", "b"], sigma=0.5)
    shard0 = [batch(0, make_message("a", 10.0)), batch(1, make_message("a", 0.0))]
    shard1 = [batch(0, make_message("b", 5.0))]
    outcome = merge_streams([shard0, shard1], model, threshold=0.75)
    ranks = outcome.result.rank_of()
    key_first = shard0[0].messages[0].key
    key_second = shard0[1].messages[0].key
    assert ranks[key_first] < ranks[key_second]
    assert outcome.cycles_broken >= 1  # the adversarial pair forced a cycle


def test_empty_input_yields_empty_result():
    model = model_for([])
    outcome = merge_streams([], model)
    assert outcome.result.batch_count == 0
    assert outcome.merged_cross_shard == 0
    outcome = merge_streams([[], []], model)
    assert outcome.result.batch_count == 0


def test_merge_is_deterministic():
    model = model_for(["a", "b", "c"], sigma=3.0)
    shard0 = [batch(0, make_message("a", 0.0)), batch(1, make_message("a", 4.0))]
    shard1 = [batch(0, make_message("b", 1.0)), batch(1, make_message("b", 5.0))]
    shard2 = [batch(0, make_message("c", 2.0))]
    first = merge_streams(
        [shard0, shard1, shard2], model_for(["a", "b", "c"], sigma=3.0), seed=5
    )
    second = merge_streams(
        [shard0, shard1, shard2], model_for(["a", "b", "c"], sigma=3.0), seed=5
    )
    fingerprint = lambda outcome: [
        (b.rank, tuple(m.key for m in b.messages)) for b in outcome.result.batches
    ]
    assert fingerprint(first) == fingerprint(second)


def test_repeated_stochastic_merges_are_equal():
    # the cycle a@10 -> a@0 -> b@5 -> a@10 with near-even cross-shard edges:
    # the stochastic policy's victim depends on the draw, so a generator that
    # lived on the merger made the second merge differ from the first.  The
    # generator is seeded per call, exactly like StreamingMerger.result().
    model = model_for(["a", "b"], sigma=4.0)
    settings = {"cycle_policy": "stochastic", "seed": 0}
    shard0 = [batch(0, make_message("a", 10.0)), batch(1, make_message("a", 0.0))]
    shard1 = [batch(0, make_message("b", 5.0))]
    first = merge_streams([shard0, shard1], model, **settings)
    assert first.cycles_broken >= 1
    for _ in range(3):
        again = merge_streams([shard0, shard1], model, **settings)
        assert merge_fingerprint(again) == merge_fingerprint(first)
    streaming = StreamingMerger(model, num_shards=2, **settings)
    for shard, observed in [(1, shard1[0]), (0, shard0[0]), (0, shard0[1])]:
        streaming.observe_batch(shard, observed)
    assert merge_fingerprint(streaming.result()) == merge_fingerprint(first)
    assert merge_fingerprint(streaming.result()) == merge_fingerprint(first)


def test_threshold_validation():
    with pytest.raises(ValueError):
        StreamingMerger(model_for(["a"]), threshold=0.4)
    with pytest.raises(ValueError):
        StreamingMerger(model_for(["a"]), threshold=1.0)
    with pytest.raises(ValueError):
        merge_streams([], model_for(["a"]), threshold=0.4)


def test_window_pruning_matches_kernel_saturation_exactly():
    # batches far outside each other's certainty windows resolve to 0/1 by
    # window pruning; the kernel itself must saturate to the same floats, so
    # pruning can never change the merged order
    model = model_for(["a", "b"], sigma=0.001)
    near = batch(0, make_message("a", 0.0))
    far = batch(0, make_message("b", 100.0))
    windows = CertaintyWindows(model)
    assert windows.radius("a") + windows.radius("b") < 100.0
    # the kernel value for the pruned pair is exactly the pruned constant
    assert batch_precedence(near, far, model) == 1.0
    assert batch_precedence(far, near, model) == 0.0
    outcome = merge_streams([[near], [far]], model, threshold=0.75)
    assert outcome.cross_pairs_pruned == 1
    assert outcome.cross_pairs_evaluated == 0
    assert outcome.result.metadata["cross_pairs_pruned"] == 1
    timestamps = [b.messages[0].timestamp for b in outcome.result.batches]
    assert timestamps == [0.0, 100.0]


def test_window_pruning_exact_for_empirical_tables():
    # grid-backed pairs saturate at the difference-CDF grid ends; the
    # certainty radius must land pruned pairs beyond them
    rng = np.random.default_rng(3)
    model = PrecedenceModel()
    model.register_client(
        "a", EmpiricalDistribution.from_samples(rng.normal(0.0, 0.005, 800), bins=64)
    )
    model.register_client(
        "b", EmpiricalDistribution.from_samples(rng.normal(0.001, 0.008, 800), bins=64)
    )
    early = batch(0, make_message("a", 0.0))
    late = batch(0, make_message("b", 10.0))
    assert batch_precedence(early, late, model) == 1.0
    outcome = merge_streams([[early], [late]], model, threshold=0.75)
    assert outcome.cross_pairs_pruned == 1
    assert [b.messages[0].client_id for b in outcome.result.batches] == ["a", "b"]


def test_certainty_windows_pick_up_distribution_refreshes():
    model = model_for(["a"], sigma=0.001)
    windows = CertaintyWindows(model)
    tight = windows.radius("a")
    model.register_client("a", GaussianDistribution(0.0, 1.0))
    assert windows.radius("a") > tight


def test_infinite_support_disables_pruning():
    class Unbounded(GaussianDistribution):
        def support(self, coverage=1.0 - 1e-9):
            return (-float("inf"), float("inf"))

    model = PrecedenceModel()
    model.register_client("a", Unbounded(0.0, 0.001))
    model.register_client("b", GaussianDistribution(0.0, 0.001))
    outcome = merge_streams(
        [[batch(0, make_message("a", 0.0))], [batch(0, make_message("b", 100.0))]],
        model,
        threshold=0.75,
    )
    assert outcome.cross_pairs_pruned == 0
    assert outcome.cross_pairs_evaluated == 1


def test_three_shard_interleaving_coalesces_with_explicit_certainty():
    # a 3-shard interleaving whose merged order chains batches from all
    # three shards through the coalescing walk: every cross-shard adjacency
    # must find its recorded probability (no silent defaults)
    model = model_for(["a", "b", "c"], sigma=5.0)
    shard0 = [batch(0, make_message("a", 0.0)), batch(1, make_message("a", 1.0))]
    shard1 = [batch(0, make_message("b", 0.4))]
    shard2 = [batch(0, make_message("c", 0.7))]
    outcome = merge_streams([shard0, shard1, shard2], model, threshold=0.9)
    assert outcome.merged_cross_shard >= 2
    total = sum(b.size for b in outcome.result.batches)
    assert total == 4
    # determinism across repeated merges of fresh mergers
    again = merge_streams(
        [shard0, shard1, shard2], model_for(["a", "b", "c"], sigma=5.0), threshold=0.9
    )
    assert [tuple(m.key for m in b.messages) for b in outcome.result.batches] == [
        tuple(m.key for m in b.messages) for b in again.result.batches
    ]


def test_missing_cross_shard_probability_is_a_hard_error():
    # the coalescing walk asserts cross-shard lookups exist instead of
    # silently defaulting to confident like the pre-kernel implementation
    streams = [[batch(0, make_message("a", 0.0))], [batch(0, make_message("b", 0.1))]]
    matrix = np.full((2, 2), np.nan)  # cross pair never priced
    with pytest.raises(AssertionError, match="no precedence recorded"):
        _merge_from_matrix(
            streams,
            matrix,
            threshold=0.75,
            cycle_policy="greedy",
            rng=np.random.default_rng(0),
            cross_pairs_evaluated=0,
            cross_pairs_pruned=0,
            start=0.0,
        )


def test_ranks_are_contiguous_and_metadata_populated():
    model = model_for(["a", "b"], sigma=2.0)
    shard0 = [batch(0, make_message("a", t)) for t in (0.0, 10.0, 20.0)]
    shard1 = [batch(0, make_message("b", t)) for t in (5.0, 15.0)]
    outcome = merge_streams([shard0, shard1], model, threshold=0.75)
    assert [b.rank for b in outcome.result.batches] == list(range(outcome.result.batch_count))
    meta = outcome.result.metadata
    assert meta["shards"] == 2
    assert meta["cross_pairs_evaluated"] == 6
    assert meta["merge_wall_seconds"] >= 0
