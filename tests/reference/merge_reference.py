"""The reference oracle for cross-shard pair pricing.

For every cross-shard node pair: the engine's pairwise probability matrix of
the two message tuples, reduced by two sequential ``np.add.reduceat`` sums.
No window rule, no pair lists, no chunking, no caches shared with the code
under test — so equality with the production matrix re-proves, on every test
input, both the kernel's reduction order and the soundness of pruning (a
pruned entry must be the float the kernel would have saturated to).

``reference_flush`` is the block flush as it was before it enumerated only
the band's window: every pending row against every observed node as full
``window_rule`` masks.  ``batch_precedence`` is one batch pair's mean over
the engine's matrix, and ``offline_priced`` hands back the merger that
``merge_streams`` priced.
"""

from unittest import mock

import numpy as np

from repro.cluster.merge import StreamingMerger, merge_streams, window_rule
from repro.core.engine import cross_probability_matrix


def batch_precedence(batch_a, batch_b, model, tables=None):
    """``P(batch_a before batch_b)`` at batch granularity.

    The mean over message cross pairs of the pairwise preceding probability:
    the mean (rather than min or max) keeps the batch-level relation
    complementary, which the tournament construction requires.  ``tables``
    is a :class:`~repro.core.engine.PairTableCache` to read through, such as
    a merger's own.
    """
    matrix = cross_probability_matrix(batch_a.messages, batch_b.messages, model, tables=tables)
    if matrix.size == 0:
        return 0.5
    return float(matrix.mean())


def offline_priced(streams, model, **settings):
    """The :class:`StreamingMerger` that ``merge_streams(streams, model,
    **settings)`` priced and linearised, taken from its ``_linearise`` call."""
    mergers = []
    linearise = StreamingMerger._linearise

    def capture(self, start):
        mergers.append(self)
        return linearise(self, start)

    with mock.patch.object(StreamingMerger, "_linearise", capture):
        merge_streams(streams, model, **settings)
    return mergers[0]


def reference_forward_matrix(streams, model):
    """Shard-major ``P(a before b)`` matrix; NaN within a shard."""
    nodes = [(shard, batch) for shard, stream in enumerate(streams) for batch in stream]
    matrix = np.full((len(nodes), len(nodes)), np.nan)
    for a, (shard_a, batch_a) in enumerate(nodes):
        for b, (shard_b, batch_b) in enumerate(nodes):
            if shard_a < shard_b:
                pairs = cross_probability_matrix(batch_a.messages, batch_b.messages, model)
                row_totals = np.add.reduceat(pairs, [0], axis=1)
                total = np.add.reduceat(row_totals, [0], axis=0)[0, 0]
                matrix[a, b] = total / pairs.size
                matrix[b, a] = 1.0 - matrix[a, b]
    return matrix


def reference_flush(streaming, first):
    """What a flush of nodes ``first..`` must store and count, from full masks.

    Returns ``(pair_a, pair_b, pruned, band)``: the band pairs in the order
    ``np.nonzero`` lists the mask (row-major), oriented lower shard first,
    and the ``(rows, nodes)`` masks of the pruned and the band candidates.
    """
    count = streaming.node_count
    rows = np.arange(first, count)
    shard = streaming._shard[:count]
    earliest, latest = streaming._earliest[:count], streaming._latest[:count]
    candidates = (shard[None, :] != shard[rows, None]) & (np.arange(count)[None, :] < rows[:, None])
    before, after, band = window_rule(earliest[rows], latest[rows], earliest, latest)
    band &= candidates
    index, other = np.nonzero(band)
    node = rows[index]
    flipped = shard[other] < shard[node]
    pair_a = np.where(flipped, other, node)
    pair_b = np.where(flipped, node, other)
    return pair_a, pair_b, (before | after) & candidates, band
