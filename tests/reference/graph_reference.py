"""The reference oracle for tournament linearisation: the materialised graph.

:class:`TournamentGraph` and the graph-taking cycle breakers below are the
offline pipeline ``repro.core`` ran before the engine's direction-matrix path
(:func:`repro.core.engine.tournament_order`) replaced it, moved here
verbatim: a :mod:`networkx` graph with one kept edge per message pair, cycles
found by ``nx.find_cycle``, the order taken by
``nx.lexicographical_topological_sort``.  Three policies break cycles:

* :func:`break_cycles_greedy` — repeatedly remove the lowest-probability edge
  that participates in a cycle (a deterministic approximation of the minimum
  feedback arc set, biased toward ignoring the least-confident precedences).
* :func:`break_cycles_stochastic` — remove a random cycle edge with
  probability proportional to ``1 - p``; over many sequencing rounds no
  client's confident precedences are systematically discarded, realising the
  "stochastic fairness" direction the paper sketches.
* :func:`eades_linear_arrangement` — the Eades–Lin–Smyth greedy linear
  arrangement; edges pointing backwards in that arrangement form a feedback
  arc set.

``tests/core/test_offline_matrix_parity.py`` requires offline
``TommySequencer`` to return what this pipeline returns — the same metadata
and the same generator state — and ``tests/cluster/test_linearise_parity.py``
requires the same of the engine's use of :func:`repro.core.cycles.break_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.cycles import check_policy
from repro.core.relation import LikelyHappenedBefore, MessageKey, PairProbability


@dataclass
class TournamentGraph:
    """Directed tournament over message keys with probability edge weights."""

    graph: nx.DiGraph
    relation: LikelyHappenedBefore
    tie_count: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------- factories
    @classmethod
    def from_relation(
        cls, relation: LikelyHappenedBefore, tie_epsilon: float = 0.0
    ) -> "TournamentGraph":
        """Keep, for every unordered pair, the direction with probability >= 0.5.

        Probabilities within ``tie_epsilon`` of 0.5 are counted as ties and
        oriented deterministically (by message key) so the result remains a
        tournament, as the paper's construction requires.
        """
        graph = nx.DiGraph()
        keys = relation.message_keys
        graph.add_nodes_from(keys)
        ties = 0
        for index_i in range(len(keys)):
            for index_j in range(index_i + 1, len(keys)):
                key_i, key_j = keys[index_i], keys[index_j]
                forward = relation.probability(key_i, key_j)
                backward = 1.0 - forward
                if abs(forward - 0.5) <= tie_epsilon:
                    ties += 1
                    source, target, weight = (
                        (key_i, key_j, forward) if key_i <= key_j else (key_j, key_i, backward)
                    )
                elif forward > backward:
                    source, target, weight = key_i, key_j, forward
                else:
                    source, target, weight = key_j, key_i, backward
                graph.add_edge(source, target, probability=float(weight))
        return cls(graph=graph, relation=relation, tie_count=ties)

    # --------------------------------------------------------------- queries
    @property
    def node_count(self) -> int:
        """Number of messages (nodes)."""
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        """Number of kept directed edges (``n*(n-1)/2`` for a tournament)."""
        return self.graph.number_of_edges()

    def probability(self, source: MessageKey, target: MessageKey) -> float:
        """Probability annotating the kept edge ``source -> target``."""
        return float(self.graph.edges[source, target]["probability"])

    def edges(self) -> List[PairProbability]:
        """All kept edges as :class:`PairProbability` records."""
        return [
            PairProbability(source=source, target=target, probability=float(data["probability"]))
            for source, target, data in self.graph.edges(data=True)
        ]

    def is_acyclic(self) -> bool:
        """True when the kept-edge graph has no directed cycles."""
        return nx.is_directed_acyclic_graph(self.graph)

    def is_transitive_tournament(self) -> bool:
        """True when the kept-edge relation is transitive.

        For a tournament, transitivity is equivalent to acyclicity, but we
        verify the triple condition directly so the method also works on
        graphs from which cycle-breaking removed edges.
        """
        for a in self.graph.nodes:
            for b in self.graph.successors(a):
                for c in self.graph.successors(b):
                    if c != a and not self.graph.has_edge(a, c) and self.graph.has_edge(c, a):
                        return False
        return self.is_acyclic()

    def cycles(self, limit: Optional[int] = 32) -> List[List[MessageKey]]:
        """A sample of directed cycles (empty when acyclic)."""
        if self.is_acyclic():
            return []
        found = []
        for cycle in nx.simple_cycles(self.graph):
            found.append(list(cycle))
            if limit is not None and len(found) >= limit:
                break
        return found

    # --------------------------------------------------------- linear orders
    def topological_order(self) -> List[MessageKey]:
        """A topological order of the (acyclic) kept-edge graph.

        For a transitive tournament this order is unique (the Hamiltonian
        path); ties introduced by removed edges are broken by descending
        out-degree, then by message key, for determinism.
        """
        if not self.is_acyclic():
            raise ValueError("graph is cyclic; apply a cycle-breaking policy first")
        out_degree = dict(self.graph.out_degree())
        return list(
            nx.lexicographical_topological_sort(
                self.graph, key=lambda node: (-out_degree.get(node, 0), node)
            )
        )

    def hamiltonian_order(self) -> List[MessageKey]:
        """Linear order by descending out-degree (score sequence).

        For a transitive tournament this equals the unique topological order;
        it is also a reasonable heuristic arrangement for near-transitive
        tournaments and is used by tests as a cross-check.
        """
        out_degree = dict(self.graph.out_degree())
        return sorted(self.graph.nodes, key=lambda node: (-out_degree.get(node, 0), node))

    def adjacent_probabilities(self, order: Sequence[MessageKey]) -> List[float]:
        """Preceding-probabilities of adjacent pairs along ``order``.

        Uses the relation's probability (not the possibly-removed edge), so
        the batching stage sees a probability for every adjacent pair even
        after cycle-breaking.
        """
        probabilities = []
        for earlier, later in zip(order, order[1:]):
            probabilities.append(self.relation.probability(earlier, later))
        return probabilities


# ---------------------------------------------------------- cycle breaking
@dataclass(frozen=True)
class CycleResolution:
    """Outcome of a cycle-breaking pass."""

    removed_edges: Tuple[PairProbability, ...]
    policy: str
    was_cyclic: bool

    @property
    def removed_probability_mass(self) -> float:
        """Sum of probabilities of the removed (ignored) edges."""
        return float(sum(edge.probability for edge in self.removed_edges))


def _find_cycle(graph: nx.DiGraph) -> Optional[List[Tuple[MessageKey, MessageKey]]]:
    try:
        return [(u, v) for u, v, _direction in nx.find_cycle(graph, orientation="original")]
    except nx.NetworkXNoCycle:
        return None


def break_cycles_greedy(graph: nx.DiGraph) -> CycleResolution:
    """Remove the minimum-probability edge of some cycle until acyclic.

    Mutates ``graph`` in place and returns the removed edges.
    """
    removed: List[PairProbability] = []
    was_cyclic = not nx.is_directed_acyclic_graph(graph)
    while True:
        cycle = _find_cycle(graph)
        if cycle is None:
            break
        weakest = min(cycle, key=lambda edge: graph.edges[edge]["probability"])
        probability = float(graph.edges[weakest]["probability"])
        graph.remove_edge(*weakest)
        removed.append(
            PairProbability(source=weakest[0], target=weakest[1], probability=probability)
        )
    return CycleResolution(removed_edges=tuple(removed), policy="greedy", was_cyclic=was_cyclic)


def break_cycles_stochastic(graph: nx.DiGraph, rng: np.random.Generator) -> CycleResolution:
    """Remove a randomly chosen edge of each cycle, biased toward low probability.

    Each cycle edge is selected with probability proportional to ``1 - p``
    (plus a small floor so certain edges are never impossible to remove),
    yielding long-run stochastic fairness across repeated sequencing rounds.
    """
    removed: List[PairProbability] = []
    was_cyclic = not nx.is_directed_acyclic_graph(graph)
    while True:
        cycle = _find_cycle(graph)
        if cycle is None:
            break
        weights = np.asarray(
            [1.0 - float(graph.edges[edge]["probability"]) + 1e-6 for edge in cycle], dtype=float
        )
        weights = weights / weights.sum()
        index = int(rng.choice(len(cycle), p=weights))
        victim = cycle[index]
        probability = float(graph.edges[victim]["probability"])
        graph.remove_edge(*victim)
        removed.append(PairProbability(source=victim[0], target=victim[1], probability=probability))
    return CycleResolution(removed_edges=tuple(removed), policy="stochastic", was_cyclic=was_cyclic)


def eades_linear_arrangement(graph: nx.DiGraph) -> List[MessageKey]:
    """Eades–Lin–Smyth greedy linear arrangement of a directed graph.

    Produces an ordering of the nodes such that the set of edges pointing
    backwards (from a later to an earlier node) is a small feedback arc set.
    The input graph is not modified.
    """
    working = graph.copy()
    left: List[MessageKey] = []
    right: List[MessageKey] = []
    while working.number_of_nodes():
        # peel off sinks to the right
        progressed = True
        while progressed:
            progressed = False
            sinks = [node for node in working.nodes if working.out_degree(node) == 0]
            for sink in sorted(sinks):
                right.append(sink)
                working.remove_node(sink)
                progressed = True
            sources = [node for node in working.nodes if working.in_degree(node) == 0]
            for source in sorted(sources):
                left.append(source)
                working.remove_node(source)
                progressed = True
        if not working.number_of_nodes():
            break
        # pick the node maximising out-degree minus in-degree
        best = max(
            working.nodes,
            key=lambda node: (working.out_degree(node) - working.in_degree(node), node),
        )
        left.append(best)
        working.remove_node(best)
    return left + list(reversed(right))


def remove_backward_edges(graph: nx.DiGraph, order: List[MessageKey]) -> CycleResolution:
    """Remove every edge pointing backwards with respect to ``order``."""
    position: Dict[MessageKey, int] = {node: index for index, node in enumerate(order)}
    was_cyclic = not nx.is_directed_acyclic_graph(graph)
    removed: List[PairProbability] = []
    for source, target in list(graph.edges):
        if position[source] > position[target]:
            probability = float(graph.edges[source, target]["probability"])
            graph.remove_edge(source, target)
            removed.append(PairProbability(source=source, target=target, probability=probability))
    return CycleResolution(removed_edges=tuple(removed), policy="eades", was_cyclic=was_cyclic)


def resolve_cycles(
    graph: nx.DiGraph, policy: str, rng: Optional[np.random.Generator] = None
) -> CycleResolution:
    """Apply the configured cycle-breaking ``policy`` to ``graph`` in place."""
    check_policy(policy)
    if nx.is_directed_acyclic_graph(graph):
        return CycleResolution(removed_edges=(), policy=policy, was_cyclic=False)
    if policy == "greedy":
        return break_cycles_greedy(graph)
    if policy == "stochastic":
        if rng is None:
            rng = np.random.default_rng(0)
        return break_cycles_stochastic(graph, rng)
    order = eades_linear_arrangement(graph)
    return remove_backward_edges(graph, order)
