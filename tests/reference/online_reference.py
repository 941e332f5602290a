"""The reference oracle for online sequencing: recompute everything per check.

``ReferenceOnlineSequencer`` is :class:`~repro.core.online.OnlineTommySequencer`
with the original recompute-everything path its incremental engine
replaced, moved here verbatim: every emission check rebuilds the relation
from the scalar model, the ``networkx`` tournament
(``graph_reference.TournamentGraph``), its cycle resolution and the strict
batching, and reads safe-emission quantiles off the model instead of a
cache.  The engine still receives every arrival and removal, but nothing
reads its order, so it never draws from the shared generator.
``completeness_scan`` is the O(known clients) completeness test the
sequencer's cached floor replaced.  The engine parity tests require the
production sequencer to emit what this one emits, down to generator states
and event-loop counters.
"""

from typing import List, Optional, Sequence, Tuple

from batching_reference import form_batches
from graph_reference import TournamentGraph, resolve_cycles

from repro.core.online import OnlineTommySequencer
from repro.core.relation import LikelyHappenedBefore
from repro.network.message import TimestampedMessage


class ReferenceOnlineSequencer(OnlineTommySequencer):
    """:class:`OnlineTommySequencer` on the recompute-everything path."""

    def _tentative_groups(self) -> List[List[TimestampedMessage]]:
        if not self._pending:
            return []
        return self._reference_tentative_groups()

    def _first_tentative_group(self) -> Optional[List[TimestampedMessage]]:
        if not self._pending:
            return None
        groups = self._reference_tentative_groups()
        return groups[0] if groups else None

    def _reference_tentative_groups(self) -> List[List[TimestampedMessage]]:
        relation = LikelyHappenedBefore.from_model(list(self._pending.values()), self._model)
        tournament = TournamentGraph.from_relation(relation, tie_epsilon=self._config.tie_epsilon)
        resolve_cycles(tournament.graph, self._config.cycle_policy, rng=self._rng)
        order = tournament.topological_order()
        outcome = form_batches(order, relation, self._config.threshold, mode="strict")
        return [list(batch.messages) for batch in outcome.batches]

    def _bounds(self, candidate: Sequence[TimestampedMessage]) -> Tuple[float, float]:
        safe_time = self.safe_emission_time(candidate)
        horizon = max(message.timestamp for message in candidate)
        return safe_time, horizon

    def safe_emission_time(self, batch: Sequence[TimestampedMessage]) -> float:
        if not batch:
            raise ValueError("cannot compute a safe emission time for an empty batch")
        return max(
            self._model.safe_emission_time(message, self._config.p_safe) for message in batch
        )


def completeness_scan(sequencer: OnlineTommySequencer, batch_horizon: float) -> bool:
    """Whether every known client has been heard from at ``batch_horizon`` or later."""
    return all(
        sequencer._latest_client_timestamp.get(client_id, -float("inf")) >= batch_horizon
        for client_id in sequencer._known_clients
    )
