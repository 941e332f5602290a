"""Cycle breaking for intransitive likely-happened-before relations.

The paper (§3.4) observes that the likely-happened-before relation is not
necessarily transitive, so the kept-edge tournament may be cyclic and a
minimum feedback arc set is NP-hard to find.  :func:`break_cycles` makes a
boolean *direction matrix* acyclic in place under one of three practical
policies (:data:`CYCLE_POLICIES`):

* ``"greedy"`` — repeatedly remove the lowest-probability edge of the cycle
  a depth-first walk finds (a deterministic approximation of the minimum
  feedback arc set, biased toward ignoring the least-confident precedences).
* ``"stochastic"`` — remove a random cycle edge with probability
  proportional to ``1 - p``; over many sequencing rounds no client's
  confident precedences are systematically discarded, realising the
  "stochastic fairness" direction the paper sketches.
* ``"eades"`` — the Eades–Lin–Smyth greedy linear arrangement; edges pointing
  backwards in that arrangement form a feedback arc set.

The offline sequencer, the online engine (both through
:func:`repro.core.engine.tournament_order`) and the cross-shard merger all
call it; it needs numpy only.

It removes exactly the edges the paper's graph pipeline removes
(``tests/reference/graph_reference.py`` keeps that pipeline, on a
:mod:`networkx` graph, as the oracle).  Which cycle ``networkx.find_cycle``
reports depends only on where its depth-first walk starts and in which
order it tries a node's successors.  The graph is built with nodes in
matrix-index order, then every kept edge pair by pair in ascending index
order, so the walk starts at the lowest unfinished index and a node's
successors come in ascending index order, preceded (in the merger) by the
node's within-shard chain successor, whose edge was inserted before any
cross-shard pair.  That is a scan of the node's matrix row from a per-node
cursor.  The walk reports the first edge that returns to the active path;
edges into finished nodes change nothing, so the scan skips them instead of
visiting them.  The victim is then chosen from the cycle's probabilities by
the same expressions in the same order, so ties, floats and generator draws
all agree (``tests/reference/linearise_reference.py`` keeps the graph form
of the merger's linearisation as the oracle).
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

#: The cycle-breaking policies every entry point accepts.
CYCLE_POLICIES = ("greedy", "stochastic", "eades")


def check_policy(policy: str) -> None:
    """Raise ``ValueError`` unless ``policy`` names a cycle-breaking policy."""
    if policy not in CYCLE_POLICIES:
        raise ValueError(f"unknown cycle policy {policy!r}")


class RemovedEdge(NamedTuple):
    """One edge :func:`break_cycles` cleared, by matrix index."""

    source: int
    target: int
    probability: float
    #: edges on the cycle the victim was picked from; 0 for an edge removed
    #: for pointing backwards in the Eades arrangement
    cycle_length: int


def _next_successor(
    edge: np.ndarray, first_successor: np.ndarray, finished: np.ndarray, node: int, cursor: int
) -> Tuple[int, int]:
    """``node``'s first unfinished successor from ``cursor`` on, and the cursor
    past it (``-1`` when there is none).

    A node's successors are its ``first_successor`` (cursor ``-1``) and then
    its matrix row in ascending index order.  Scanning the row from the
    cursor keeps the walk's memory O(nodes) whatever the depth of its path.
    """
    if cursor < 0:
        chained = int(first_successor[node])
        if chained >= 0 and not finished[chained]:
            return chained, 0
        cursor = 0
    unfinished = edge[node, cursor:] & ~finished[cursor:]
    step = int(unfinished.argmax()) if unfinished.size else 0
    if not unfinished.size or not unfinished[step]:
        return -1, edge.shape[0]
    return cursor + step, cursor + step + 1


def _find_cycle_nodes(edge: np.ndarray, first_successor: np.ndarray) -> Optional[List[int]]:
    """The cycle ``networkx.find_cycle`` reports, as its nodes in path order.

    The cycle's edges are consecutive nodes plus last -> first.  ``None``
    when the graph is acyclic.
    """
    finished = np.zeros(edge.shape[0], dtype=bool)
    for start in range(edge.shape[0]):
        if finished[start]:
            continue
        path = [start]
        on_path = {start}
        cursors = [-1]  # per path node: where its untried successors begin
        while path:
            node = path[-1]
            head, cursors[-1] = _next_successor(edge, first_successor, finished, node, cursors[-1])
            if head < 0:
                cursors.pop()
                path.pop()
                on_path.discard(node)
                finished[node] = True
                continue
            if head in on_path:
                return path[path.index(head) :]
            path.append(head)
            on_path.add(head)
            cursors.append(-1)
    return None


def _eades_positions(
    edge: np.ndarray, first_successor: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """Each node's place in the Eades–Lin–Smyth arrangement, on degree vectors.

    Sinks peel off to the right and sources to the left, each sweep in
    ``rank`` order; when neither is left, the node with the largest
    out-degree minus in-degree (the highest ``rank`` among equals) goes left.
    """
    n = edge.shape[0]
    edge = edge.copy()
    chained = np.flatnonzero(first_successor >= 0)
    edge[chained, first_successor[chained]] = True
    out_degree = edge.sum(axis=1)
    in_degree = edge.sum(axis=0)
    alive = np.ones(n, dtype=bool)
    left: List[int] = []
    right: List[int] = []

    def peel(nodes: np.ndarray, side: List[int]) -> None:
        nodes = nodes[np.argsort(rank[nodes])]
        side.extend(nodes.tolist())
        alive[nodes] = False
        out_degree[:] -= edge[:, nodes].sum(axis=1)
        in_degree[:] -= edge[nodes, :].sum(axis=0)

    while alive.any():
        progressed = True
        while progressed:
            progressed = False
            for degree, side in ((out_degree, right), (in_degree, left)):
                nodes = np.flatnonzero(alive & (degree == 0))
                if nodes.size:
                    peel(nodes, side)
                    progressed = True
        candidates = np.flatnonzero(alive)
        if not candidates.size:
            break
        surplus = out_degree[candidates] - in_degree[candidates]
        best = candidates[surplus == surplus.max()]
        peel(best[[np.argmax(rank[best])]], left)
    position = np.empty(n, dtype=np.int64)
    position[left + right[::-1]] = np.arange(n)
    return position


def break_cycles(
    edge: np.ndarray,
    probability: np.ndarray,
    policy: str,
    rng: np.random.Generator,
    first_successor: Optional[np.ndarray] = None,
    rank: Optional[np.ndarray] = None,
) -> List[RemovedEdge]:
    """Make the direction matrix ``edge`` acyclic in place under ``policy``.

    ``edge[u, v]`` is a kept edge ``u -> v`` and ``probability[u, v]`` its
    weight.  ``first_successor[u]`` (``-1`` for none) is one more edge out of
    ``u`` that is not in ``edge``: it has probability 1, is tried before the
    others and is never removed — the merger's within-shard chain, order a
    shard already committed by emitting.  Every cycle has an edge that is
    in ``edge`` as long as those extra edges are themselves acyclic.
    ``rank`` orders the nodes wherever the Eades arrangement breaks a tie
    (default: the matrix index).

    Removes what the graph pipeline removes from the equivalent graph,
    drawing from ``rng`` identically; when a policy's victim is a
    ``first_successor`` edge, the cycle's weakest removable edge goes
    instead.  Returns the removed edges in removal order.
    """
    check_policy(policy)
    if first_successor is None:
        first_successor = np.full(edge.shape[0], -1)
    removed: List[RemovedEdge] = []
    if policy == "eades":
        if rank is None:
            rank = np.arange(edge.shape[0])
        position = _eades_positions(edge, first_successor, rank)
        backward = edge & (position[:, None] > position[None, :])
        for source, target in zip(*np.nonzero(backward)):
            removed.append(
                RemovedEdge(int(source), int(target), float(probability[source, target]), 0)
            )
        edge[backward] = False
        # a never-removed backward edge can leave a cycle: the loop finishes it
    while True:
        cycle = _find_cycle_nodes(edge, first_successor)
        if cycle is None:
            return removed
        sources = np.asarray(cycle)
        targets = np.roll(sources, -1)
        fixed = first_successor[sources] == targets
        weight = np.where(fixed, 1.0, probability[sources, targets])
        if policy == "stochastic":
            odds = 1.0 - weight + 1e-6
            victim = int(rng.choice(len(cycle), p=odds / odds.sum()))
        else:
            victim = int(np.argmin(weight))
        if fixed[victim]:
            victim = int(np.argmin(np.where(fixed, np.inf, weight)))
        source, target = int(sources[victim]), int(targets[victim])
        edge[source, target] = False
        removed.append(RemovedEdge(source, target, float(weight[victim]), len(cycle)))
