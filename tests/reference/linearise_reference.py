"""The reference oracles for cross-shard linearisation.

``_resolve_order_via_graph`` and ``_resolve_cycles_protected`` are the
materialised-graph path ``repro.cluster.merge`` used before
:func:`repro.core.cycles.break_cycles` replaced it, moved here verbatim: a
:mod:`networkx` graph over every node and every kept edge, cycles found by
``nx.find_cycle`` and the order taken by
``nx.lexicographical_topological_sort``.  ``tests/cluster/test_linearise_parity.py``
requires the matrix breaker to return the same order, remove the same number
of edges and leave the generator in the same state.

``_lexicographic_order`` and ``_dense_kept_order`` are the dense matrix path
the merger took before its Kahn pass read the windows and the pair store
directly, moved here verbatim: the direction matrix of every kept edge as
N x N bools, the weights ``break_cycles`` reads as N x N floats.
``tests/cluster/test_band_parity.py`` requires the band pass to return the
same order, stall on the same inputs and remove the same edges.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from graph_reference import eades_linear_arrangement

from repro.cluster.merge import BatchNode
from repro.core.cycles import RemovedEdge, break_cycles
from repro.network.message import SequencedBatch


def _lexicographic_order(layout, edge: np.ndarray, out_degree: np.ndarray) -> Optional[List[int]]:
    """Kahn's algorithm with the reference lexicographical tie-break.

    ``edge[u][v]`` holds the directed cross-shard kept edges; the
    within-shard emission chains are modelled implicitly: only the earliest
    unplaced batch of each shard is ever a candidate.  Returns node ids in
    order, or ``None`` when the graph is cyclic.  The candidate choice
    minimises ``(-out_degree, node)``.
    """
    node_shard, shard_lengths, nodes = layout.node_shard, layout.shard_lengths, layout.nodes
    num_shards = len(shard_lengths)
    bases: List[int] = []
    base = 0
    for length in shard_lengths:
        bases.append(base)
        base += length
    next_index = [0] * num_shards
    indegree = edge.sum(axis=0).astype(np.int64)
    order: List[int] = []
    total = len(nodes)
    for _ in range(total):
        best_id = -1
        best_key: Optional[Tuple[int, BatchNode]] = None
        for shard in range(num_shards):
            if next_index[shard] >= shard_lengths[shard]:
                continue
            head = bases[shard] + next_index[shard]
            if indegree[head]:
                continue
            key = (-int(out_degree[head]), nodes[head])
            if best_key is None or key < best_key:
                best_key = key
                best_id = head
        if best_id < 0:
            return None  # cyclic: some unplaced head still has predecessors
        order.append(best_id)
        next_index[node_shard[best_id]] += 1
        indegree[edge[best_id]] -= 1
    return order


def _dense_direction(layout, earliest, latest, pair_a, pair_b, forward):
    """``(edge, chain_out, weights)`` of windows plus a store, as squares.

    ``pair_a < pair_b`` (shard-major ids) are the stored pairs; every other
    cross-shard pair is pruned and its windows say its direction.
    """
    cross_upper = layout.node_shard[:, None] < layout.node_shard[None, :]
    wins = earliest[None, :] > latest[:, None]
    wins &= cross_upper
    wins[pair_a, pair_b] = forward >= 0.5
    edge = wins | (cross_upper ^ wins).T
    n = len(layout.nodes)
    chain_out = np.zeros(n, dtype=np.int64)
    for base, length in zip(np.cumsum([0] + layout.shard_lengths), layout.shard_lengths):
        if length > 1:
            chain_out[base : base + length - 1] = 1
    weights = np.ones((n, n))
    weights[pair_a, pair_b], weights[pair_b, pair_a] = forward, 1.0 - forward
    return edge, chain_out, weights


def _dense_kept_order(
    layout, earliest, latest, pair_a, pair_b, forward, cycle_policy, rng
) -> Tuple[Optional[List[int]], List[RemovedEdge]]:
    """The merged order off the dense squares: Kahn, and on a stall
    ``break_cycles`` over the float weight square and Kahn again."""
    edge, chain_out, weights = _dense_direction(layout, earliest, latest, pair_a, pair_b, forward)
    order = _lexicographic_order(layout, edge, edge.sum(axis=1) + chain_out)
    if order is not None:
        return order, []
    chain_next = np.where(chain_out > 0, np.arange(chain_out.size) + 1, -1)
    removed = break_cycles(edge, weights, cycle_policy, rng, first_successor=chain_next)
    return _lexicographic_order(layout, edge, edge.sum(axis=1) + chain_out), removed


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
