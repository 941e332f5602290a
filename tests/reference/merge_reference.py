"""The reference oracle for cross-shard pair pricing.

For every cross-shard node pair: the engine's pairwise probability matrix of
the two message tuples, reduced by two sequential ``np.add.reduceat`` sums.
No window rule, no pair lists, no chunking, no caches shared with the code
under test — so equality with the production matrix re-proves, on every test
input, both the kernel's reduction order and the soundness of pruning (a
pruned entry must be the float the kernel would have saturated to).

``reference_flush`` is the block flush as it was before it enumerated only
the band's window: every pending row against every observed node as full
``window_rule`` masks.
"""

import numpy as np

from repro.cluster.merge import window_rule
from repro.core.engine import cross_probability_matrix


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
