"""The reference oracle for cyclic cross-shard linearisation.

``_resolve_order_via_graph`` and ``_resolve_cycles_protected`` are the
materialised-graph path ``repro.cluster.merge`` used before
:func:`repro.core.cycles.break_cycles` replaced it, moved here verbatim: a
:mod:`networkx` graph over every node and every kept edge, cycles found by
``nx.find_cycle`` and the order taken by
``nx.lexicographical_topological_sort``.  ``tests/cluster/test_linearise_parity.py``
requires the matrix breaker to return the same order, remove the same number
of edges and leave the generator in the same state.
"""

from typing import Dict, List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.cluster.merge import BatchNode
from repro.core.cycles import eades_linear_arrangement
from repro.network.message import SequencedBatch


def _resolve_cycles_protected(
    graph: nx.DiGraph,
    cycle_policy: str,
    rng: np.random.Generator,
    protected: frozenset,
) -> int:
    """Break cycles like :func:`resolve_cycles`, never removing protected edges.

    The within-shard chain edges encode order the shard already *committed*
    by emitting; a cycle may never be resolved by inverting them.  Each
    policy replays the unprotected implementation's choice (including its
    RNG consumption) and only deviates when the original victim would have
    been a protected edge — a case that previously produced an invalid
    linearisation.  Every cycle contains at least one cross-shard edge (the
    chains themselves are acyclic), so a removable candidate always exists.

    Returns the number of removed edges; mutates ``graph`` in place.
    """
    if nx.is_directed_acyclic_graph(graph):
        return 0
    removed = 0
    if cycle_policy == "eades":
        order = eades_linear_arrangement(graph)
        position = {node: index for index, node in enumerate(order)}
        for source, target in list(graph.edges):
            if position[source] > position[target] and (source, target) not in protected:
                graph.remove_edge(source, target)
                removed += 1
        # a protected backward edge can leave residual cycles: fall through
        # to the protected greedy loop below to finish the job
    while True:
        try:
            cycle = [
                (source, target)
                for source, target, _direction in nx.find_cycle(graph, orientation="original")
            ]
        except nx.NetworkXNoCycle:
            break
        if cycle_policy == "stochastic":
            weights = np.asarray(
                [1.0 - float(graph.edges[edge]["probability"]) + 1e-6 for edge in cycle],
                dtype=float,
            )
            weights = weights / weights.sum()
            victim = cycle[int(rng.choice(len(cycle), p=weights))]
        else:
            victim = min(cycle, key=lambda edge: graph.edges[edge]["probability"])
        if victim in protected:
            candidates = [edge for edge in cycle if edge not in protected]
            victim = min(candidates, key=lambda edge: graph.edges[edge]["probability"])
        graph.remove_edge(*victim)
        removed += 1
    return removed


def _resolve_order_via_graph(
    streams: Sequence[Sequence[SequencedBatch]],
    nodes: Sequence[BatchNode],
    node_ids: Dict[BatchNode, int],
    forward_matrix: np.ndarray,
    cycle_policy: str,
    rng: np.random.Generator,
) -> Tuple[List[BatchNode], int]:
    """Reference path for cyclic tournaments: materialise and resolve.

    Node and edge insertion replays the original pairwise merger verbatim
    (within-shard chains first, then cross pairs in shard-major order), so
    cycle detection, cycle-breaking and the topological tie-break walk the
    graph exactly like the frozen reference implementation — except that
    within-shard chain edges are protected from cycle breaking (the frozen
    path could invert a shard's committed emission order when a saturated
    cycle made a chain edge the removal victim, which the coalescing stage
    rejects as an invariant violation).
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    chain_edges = []
    for shard, stream in enumerate(streams):
        for index in range(len(stream) - 1):
            graph.add_edge((shard, index), (shard, index + 1), probability=1.0)
            chain_edges.append(((shard, index), (shard, index + 1)))
    num_shards = len(streams)
    for shard_a in range(num_shards):
        for shard_b in range(shard_a + 1, num_shards):
            for index_a in range(len(streams[shard_a])):
                node_a: BatchNode = (shard_a, index_a)
                id_a = node_ids[node_a]
                for index_b in range(len(streams[shard_b])):
                    node_b: BatchNode = (shard_b, index_b)
                    forward = forward_matrix[id_a, node_ids[node_b]]
                    if forward >= 0.5:
                        graph.add_edge(node_a, node_b, probability=float(forward))
                    else:
                        graph.add_edge(node_b, node_a, probability=float(1.0 - forward))
    cycles_broken = _resolve_cycles_protected(
        graph, cycle_policy, rng, frozenset(chain_edges)
    )
    out_degree = dict(graph.out_degree())
    order = list(
        nx.lexicographical_topological_sort(
            graph, key=lambda node: (-out_degree.get(node, 0), node)
        )
    )
    return order, cycles_broken
