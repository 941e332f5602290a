"""Tournament graph construction and linear-order extraction (paper §3.4).

Every message is a node; between each pair of nodes the direction with the
higher preceding-probability is kept (the paper assumes no exact ties; we
break ties deterministically and count them).  When the probabilities are
transitive the tournament is a *transitive tournament* with a unique
Hamiltonian path / topological order.  Otherwise the graph contains cycles
and a cycle-breaking policy from :mod:`repro.core.cycles` is applied first.

This is the offline pipeline's graph (:class:`~repro.core.sequencer.TommySequencer`
and the ``use_engine=False`` reference rung).  :mod:`networkx` is imported
when a graph is first built or queried, so importing the package — and running
the online engine or the cross-shard merger, which work on direction
matrices — does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.relation import LikelyHappenedBefore, MessageKey, PairProbability

if TYPE_CHECKING:
    import networkx as nx


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
        import networkx as nx

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
        import networkx as nx

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
        import networkx as nx

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
        import networkx as nx

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
