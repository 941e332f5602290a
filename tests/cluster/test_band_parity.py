"""The merger's band computations against their dense oracles.

Two computations used to pay for the full square and now read only the
certainty-window band:

* the Kahn pass of ``result()`` runs off the windows and the pair store —
  pruned degrees by ``searchsorted``, pruned predecessors by per-shard floors,
  band edges as CSR arrays.  It must return the order of the dense pass in
  ``tests/reference/linearise_reference.py`` and stall exactly when that pass
  stalls; on a stall, the cycle breaker reading weights through the store
  must remove what it removes over the float weight square;
* the block flush enumerates only each row's window.  It must store the
  pairs of the full ``window_rule`` masks (``tests/reference/merge_reference.py``)
  in the same order, and count and attribute the same totals.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from linearise_reference import _dense_direction, _dense_kept_order, _lexicographic_order
from merge_reference import reference_flush
from test_linearise_parity import make_streams
from test_streaming_merge import build_model, build_streams, random_interleaving, with_budget

from repro.cluster.merge import (
    CertaintyWindows,
    StreamingMerger,
    _Band,
    _band_order,
    _kept_order,
    _NodeLayout,
)
from repro.cluster.tree import MergeTopology
from repro.core.cycles import CYCLE_POLICIES

WINDOWS = ("spread", "identical", "touching", "wide")
FORWARDS = ("uniform", "ties", "confident")


def random_band(shard_lengths, windows, forwards, rng):
    """Shard-major windows and a store holding exactly their band.

    ``spread`` windows drift forward along each shard with noise (pruned
    pairs both ways, and within-shard inversions that close cycles through
    the chain); ``identical`` draws every window from three (equal floors,
    equal out-degrees); ``touching`` puts windows on a grid where one's
    ``latest`` is exactly the next one's ``earliest`` (a band pair, not a
    pruned one); ``wide`` overlaps everything (nothing prunes).
    """
    shard = np.repeat(np.arange(len(shard_lengths)), shard_lengths)
    index = np.concatenate([np.arange(length) for length in shard_lengths]).astype(float)
    n = shard.size
    if windows == "spread":
        center = index + rng.normal(0.0, 0.8, n)
        radius = rng.uniform(0.0, 1.2, n)
    elif windows == "identical":
        choice = rng.integers(3, size=n)
        center, radius = np.array([0.0, 1.0, 5.0])[choice], np.array([0.5, 1.0, 0.5])[choice]
    elif windows == "touching":
        center, radius = index + rng.integers(-1, 2, n), np.full(n, 0.5)
    else:
        center, radius = rng.normal(0.0, 0.1, n), np.full(n, 100.0)
    earliest, latest = center - radius, center + radius
    a, b = np.triu_indices(n, k=1)
    keep = (shard[a] != shard[b]) & ~((earliest[b] > latest[a]) | (earliest[a] > latest[b]))
    a, b = a[keep], b[keep]
    if forwards == "uniform":
        forward = rng.random(a.size)
    elif forwards == "ties":
        forward = rng.choice([0.0, 0.3, 0.5, 0.7, 1.0], size=a.size)
    else:
        forward = np.clip(0.5 + 0.5 * (center[b] - center[a]) + rng.normal(0, 0.2, a.size), 0, 1)
    # the store lists pairs in flush order, not by key
    shuffle = rng.permutation(a.size)
    return earliest, latest, a[shuffle], b[shuffle], forward[shuffle]


def check_band_pass(shard_lengths, windows, forwards, policy, seed):
    """Band pass vs dense pass; returns (stalled, some equal out-degrees)."""
    rng = np.random.default_rng(seed)
    layout = _NodeLayout(make_streams(shard_lengths))
    n = len(layout.nodes)
    earliest, latest, pair_a, pair_b, forward = random_band(shard_lengths, windows, forwards, rng)
    band = _Band.of(earliest, latest, pair_a * n + pair_b, forward)

    edge, chain_out, _ = _dense_direction(layout, earliest, latest, pair_a, pair_b, forward)
    out_degree = edge.sum(axis=1) + chain_out
    expected = _lexicographic_order(layout, edge, out_degree)
    assert _band_order(layout, band) == expected

    order_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    order, removed = _kept_order(layout, band, policy, order_rng)
    reference = _dense_kept_order(
        layout, earliest, latest, pair_a, pair_b, forward, policy, reference_rng
    )
    assert (order, removed) == reference
    assert order_rng.bit_generator.state == reference_rng.bit_generator.state
    assert sorted(order) == list(range(n))
    return expected is None, np.unique(out_degree).size < n


@settings(max_examples=150, deadline=None)
@given(
    shard_lengths=st.lists(st.integers(0, 7), min_size=1, max_size=5),
    windows=st.sampled_from(WINDOWS),
    forwards=st.sampled_from(FORWARDS),
    policy=st.sampled_from(CYCLE_POLICIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_kahn_pass_is_the_dense_pass(shard_lengths, windows, forwards, policy, seed):
    check_band_pass(shard_lengths, windows, forwards, policy, seed)


@pytest.mark.parametrize("windows", WINDOWS)
def test_band_kahn_pass_seeded_sweep(windows):
    stalls = ties = 0
    for seed in range(60):
        rng = np.random.default_rng([seed, WINDOWS.index(windows)])
        # a single shard, trailing empty shards and everything between
        shard_lengths = rng.integers(0, 8, size=int(rng.integers(1, 6))).tolist()
        if seed % 10 == 0:
            shard_lengths += [0, 0]
        stalled, tied = check_band_pass(
            shard_lengths, windows, FORWARDS[seed % 3], CYCLE_POLICIES[seed % 3], seed
        )
        stalls += stalled
        ties += tied
    # not vacuous: the sweep reaches the cyclic path and equal out-degrees
    assert stalls >= 5 and ties >= 30


def test_one_shard_band_pass_is_the_chain():
    layout = _NodeLayout(make_streams([5, 0, 0]))
    unbounded = np.full(5, np.inf)
    empty = np.zeros(0, dtype=np.int64)
    band = _Band.of(-unbounded, unbounded, empty, np.zeros(0))
    assert _band_order(layout, band) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------- block flush
def record_flushes(checks):
    """Patch ``_price_from`` to check every flush against the full masks."""
    price_from = StreamingMerger._price_from

    def checked(self, first):
        pair_a, pair_b, pruned, band = reference_flush(self, first)
        stored = self._stored
        totals = (self._cross_pairs_evaluated, self._cross_pairs_pruned)
        deltas = price_from(self, first)
        assert np.array_equal(self._pair_a[stored : self._stored], pair_a)
        assert np.array_equal(self._pair_b[stored : self._stored], pair_b)
        assert self._cross_pairs_evaluated - totals[0] == int(band.sum())
        assert self._cross_pairs_pruned - totals[1] == int(pruned.sum())
        checks.append((first, pruned, band))
        return deltas

    return mock.patch.object(StreamingMerger, "_price_from", checked)


def reference_report(checks, shard, topology):
    """``node_report()`` counts from the recorded ``(first, pruned, band)`` masks."""
    if topology is None:
        return [tuple(sum(int(check[kind].sum()) for check in checks) for kind in (1, 2))]
    counts = np.zeros((2, len(topology.nodes)), dtype=np.int64)
    for first, *masks in checks:
        for kind, mask in enumerate(masks):
            index, other = np.nonzero(mask)
            counts[kind] += topology.attribute(shard[first + index], shard[other])
    return [
        (int(counts[0, node.node_id]), int(counts[1, node.node_id]))
        for node in topology.interior_nodes
    ]


def build_topology(kind, num_shards):
    if kind is None:
        return None
    region_map = {shard: (f"region-{shard % 3}",) for shard in range(num_shards)}
    return MergeTopology.build(kind, num_shards, fanout=2, region_map=region_map)


def on_grid(streams, step):
    """The streams with every timestamp rounded to a multiple of ``step``."""
    return [
        [
            dataclasses.replace(
                batch,
                messages=tuple(
                    dataclasses.replace(message, timestamp=round(message.timestamp / step) * step)
                    for message in batch.messages
                ),
            )
            for batch in stream
        ]
        for stream in streams
    ]


def check_flush(seed, num_shards, kind, mixed, budget, gap, touching=False):
    """``touching`` gives every client radius 0.25 and rounds the timestamps
    to multiples of 0.5, so windows meet exactly at their ends."""
    rng = np.random.default_rng(seed)
    model, shard_clients = build_model(num_shards, 2, rng, 0.5 if mixed else 0.0)
    streams = build_streams(shard_clients, int(rng.integers(3, 9)), rng, gap=gap)
    radius = contextlib.nullcontext()
    if touching:
        streams = on_grid(streams, 0.5)
        radius = mock.patch.object(CertaintyWindows, "radius", lambda self, client_id: 0.25)
    topology = build_topology(kind, num_shards)
    checks = []
    with with_budget(budget), record_flushes(checks), radius:
        streaming = StreamingMerger(model, seed=0, num_shards=num_shards, topology=topology)
        for shard, batch in random_interleaving(streams, rng):
            streaming.observe_batch(shard, batch)
        report = streaming.node_report()
    assert checks
    shard = streaming._shard[: streaming.node_count]
    expected = reference_report(checks, shard, topology)
    assert [(row["pruned_pairs"], row["kernel_pairs"]) for row in report] == expected
    return sum(int(check[1].sum()) for check in checks), streaming


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    num_shards=st.integers(1, 6),
    kind=st.sampled_from([None, "flat", "binary", "region"]),
    mixed=st.booleans(),
    budget=st.sampled_from([1, 7, 97, 1 << 18]),
    gap=st.sampled_from([0.015, 0.1]),
)
def test_band_flush_is_the_full_mask_flush(seed, num_shards, kind, mixed, budget, gap):
    check_flush(seed, num_shards, kind, mixed, budget, gap)


@pytest.mark.parametrize("kind", [None, "flat", "binary", "region"])
def test_band_flush_seeded_sweep(kind):
    pruned = stored = 0
    for seed in range(6):
        budget = (1, 97, 1 << 18)[seed % 3]
        flushed, streaming = check_flush(300 + seed, 4, kind, seed % 2 == 1, budget, 0.1)
        pruned += flushed
        stored += streaming.stored_pairs
    assert pruned > 0 and stored > 0  # both sides of the rule were exercised


@pytest.mark.parametrize("kind", [None, "binary"])
def test_band_flush_on_windows_that_touch(kind):
    # a window whose running maximum *equals* the row's earliest starts the
    # band: touching windows overlap (band), they are not pruned
    touching = 0
    for seed in range(4):
        _, streaming = check_flush(500 + seed, 3, kind, False, (1, 97)[seed % 2], 0.5, True)
        count = streaming.node_count
        shard = streaming._shard[:count]
        meet = streaming._earliest[:count][None, :] == streaming._latest[:count][:, None]
        touching += int((meet & (shard[:, None] != shard[None, :])).sum())
    assert touching > 0


def test_one_shard_flush_enumerates_no_pair():
    rng = np.random.default_rng(9)
    model, shard_clients = build_model(1, 3, rng)
    streams = build_streams(shard_clients, 40, rng)
    windows = []
    window_from = StreamingMerger._window_from

    def recording(self, first):
        window = window_from(self, first)
        windows.append(window[0].size)
        return window

    with with_budget(97), mock.patch.object(StreamingMerger, "_window_from", recording):
        streaming = StreamingMerger(model, num_shards=1)
        for batch in streams[0]:
            streaming.observe_batch(0, batch)
        outcome = streaming.result()
    assert len(windows) > 1 and set(windows) == {0}
    assert (outcome.cross_pairs_evaluated, outcome.cross_pairs_pruned) == (0, 0)
    assert outcome.result.batch_count == 40
