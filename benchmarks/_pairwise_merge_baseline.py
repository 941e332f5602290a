"""Frozen copy of the pre-flattened-kernel pairwise cross-shard merger.

This is the implementation `repro.cluster.merge` shipped before the
flattened batch-precedence kernel replaced it: one
``cross_probability_matrix`` call per cross-shard batch pair (an
``O(S^2 B^2)`` Python loop), a networkx graph rebuilt from scratch per
merge, and ``matrix.mean()`` per pair.  ``benchmarks/test_bench_merge.py``
uses it as the wall-clock and merged-order baseline; do not "fix" or
optimise it.
"""


from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from graph_reference import resolve_cycles
from repro.core.engine import EngineStats, PairTableCache, cross_probability_matrix
from repro.core.probability import PrecedenceModel
from repro.distributions.base import OffsetDistribution
from repro.network.message import SequencedBatch
from repro.sequencers.base import SequencingResult

#: A batch node: (shard index, position of the batch in that shard's stream).
BatchNode = Tuple[int, int]


@dataclass(frozen=True)
class MergeOutcome:
    """Result of one cross-shard merge pass."""

    result: SequencingResult
    merged_cross_shard: int
    cross_pairs_evaluated: int
    cycles_broken: int
    wall_seconds: float

    @property
    def batch_count(self) -> int:
        """Number of cluster-wide batches after merging."""
        return self.result.batch_count


class CrossShardMerger:
    """Merges per-shard emitted batches into one cluster-wide fair order."""

    def __init__(
        self,
        model: PrecedenceModel,
        threshold: float = 0.75,
        cycle_policy: str = "greedy",
        seed: int = 0,
    ) -> None:
        if not 0.5 <= threshold < 1.0:
            raise ValueError(f"threshold must be in [0.5, 1), got {threshold!r}")
        self._model = model
        self._threshold = float(threshold)
        self._cycle_policy = cycle_policy
        self._rng = np.random.default_rng(seed)
        self._engine_stats = EngineStats()
        # difference-CDF tables shared across every batch_precedence call, so
        # empirical/learned client pairs convolve once per pair, not per batch
        self._tables = PairTableCache(model, stats=self._engine_stats)

    @property
    def threshold(self) -> float:
        """Cross-shard boundary confidence threshold."""
        return self._threshold

    @property
    def model(self) -> PrecedenceModel:
        """The cluster-wide precedence model (all clients registered)."""
        return self._model

    def register_client(self, client_id: str, distribution: OffsetDistribution) -> None:
        """Register or refresh a client's distribution on the merge model.

        Drops the cached difference-CDF tables involving the client so the
        next merge prices its cross-shard pairs with the new distribution.
        """
        self._model.register_client(client_id, distribution)
        self._tables.invalidate_client(client_id)

    # ---------------------------------------------------------- probabilities
    @property
    def engine_stats(self) -> EngineStats:
        """Counters for the vectorized cross-pair computations performed."""
        return self._engine_stats

    def batch_precedence(self, batch_a: SequencedBatch, batch_b: SequencedBatch) -> float:
        """``P(batch_a generated before batch_b)`` at batch granularity.

        The mean over message cross pairs of the pairwise preceding
        probability (one vectorized engine evaluation of the cross matrix).
        The mean (rather than min or max) keeps the batch-level relation
        complementary, which the tournament construction requires.
        """
        matrix = cross_probability_matrix(
            batch_a.messages,
            batch_b.messages,
            self._model,
            stats=self._engine_stats,
            tables=self._tables,
        )
        if matrix.size == 0:
            return 0.5
        return float(matrix.mean())

    # ----------------------------------------------------------------- merge
    def merge(self, shard_batches: Sequence[Sequence[SequencedBatch]]) -> MergeOutcome:
        """Merge per-shard batch streams into one cluster-wide order.

        ``shard_batches[s]`` is shard ``s``'s emitted batches in rank order.
        Deterministic for fixed inputs and seed.
        """
        start = time.perf_counter()
        streams = [list(batches) for batches in shard_batches]
        nodes: List[BatchNode] = [
            (shard, index) for shard, stream in enumerate(streams) for index in range(len(stream))
        ]
        if not nodes:
            empty = SequencingResult(batches=(), metadata={"sequencer": "cluster-merge"})
            return MergeOutcome(
                result=empty,
                merged_cross_shard=0,
                cross_pairs_evaluated=0,
                cycles_broken=0,
                wall_seconds=time.perf_counter() - start,
            )

        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        probabilities: Dict[Tuple[BatchNode, BatchNode], float] = {}

        # within-shard emission order is certain
        for shard, stream in enumerate(streams):
            for index in range(len(stream) - 1):
                graph.add_edge((shard, index), (shard, index + 1), probability=1.0)

        # cross-shard pairs: batch-level likely-happened-before
        cross_pairs = 0
        for shard_a in range(len(streams)):
            for shard_b in range(shard_a + 1, len(streams)):
                for index_a, batch_a in enumerate(streams[shard_a]):
                    for index_b, batch_b in enumerate(streams[shard_b]):
                        node_a: BatchNode = (shard_a, index_a)
                        node_b: BatchNode = (shard_b, index_b)
                        forward = self.batch_precedence(batch_a, batch_b)
                        cross_pairs += 1
                        probabilities[(node_a, node_b)] = forward
                        probabilities[(node_b, node_a)] = 1.0 - forward
                        if forward >= 0.5:
                            graph.add_edge(node_a, node_b, probability=float(forward))
                        else:
                            graph.add_edge(node_b, node_a, probability=float(1.0 - forward))

        resolution = resolve_cycles(graph, self._cycle_policy, rng=self._rng)
        out_degree = dict(graph.out_degree())
        order: List[BatchNode] = list(
            nx.lexicographical_topological_sort(
                graph, key=lambda node: (-out_degree.get(node, 0), node)
            )
        )

        # probabilistic coalescing: a cross-shard boundary needs confidence
        groups: List[List[BatchNode]] = []
        merged_cross_shard = 0
        for node in order:
            if groups:
                previous = groups[-1][-1]
                cross = previous[0] != node[0]
                confident = probabilities.get((previous, node), 1.0) > self._threshold
                if cross and not confident:
                    groups[-1].append(node)
                    merged_cross_shard += 1
                    continue
            groups.append([node])

        batches: List[SequencedBatch] = []
        for rank, group in enumerate(groups):
            messages = tuple(
                message
                for shard, index in group
                for message in streams[shard][index].messages
            )
            emitted = [
                streams[shard][index].emitted_at
                for shard, index in group
                if streams[shard][index].emitted_at is not None
            ]
            batches.append(
                SequencedBatch(
                    rank=rank,
                    messages=messages,
                    emitted_at=max(emitted) if emitted else None,
                )
            )

        wall = time.perf_counter() - start
        result = SequencingResult(
            batches=tuple(batches),
            metadata={
                "sequencer": "cluster-merge",
                "shards": len(streams),
                "threshold": self._threshold,
                "cycle_policy": self._cycle_policy,
                "merged_cross_shard": merged_cross_shard,
                "cross_pairs_evaluated": cross_pairs,
                "cycles_broken": len(resolution.removed_edges),
                "merge_wall_seconds": wall,
            },
        )
        return MergeOutcome(
            result=result,
            merged_cross_shard=merged_cross_shard,
            cross_pairs_evaluated=cross_pairs,
            cycles_broken=len(resolution.removed_edges),
            wall_seconds=wall,
        )
