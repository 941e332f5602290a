"""Exactly-once intake gate, shared by frozen and live ingestion paths.

:class:`IntakeDedupeGate` is the cluster-boundary dedup rule extracted from
:class:`~repro.cluster.sharded.ShardedSequencer` so that the live ingestion
edge (:mod:`repro.edge` / :class:`repro.runtime.live.LiveDispatcher`) can make
admit/reject decisions *synchronously at submit time* — an acked admission is
a promise the message will be sequenced exactly once — while the sharded
cluster keeps the same gate behind its public ``receive*`` wrappers.

Contract (identical to the pre-extraction behaviour, pinned by
``tests/cluster/test_dedupe_gauge.py``):

* a ``(client_id, message_id)`` key is admitted at most once;
* heartbeats are idempotent and always pass, but their sequence numbers
  advance the per-client delivery horizon;
* with horizon pruning enabled (the default), keys whose sequence number
  falls strictly below the per-client horizon are released from the seen
  set — on ordered (FIFO per-client) channels they can never legitimately
  recur, so re-deliveries in the pruned region are rejected by the horizon
  comparison alone and the retained set stays bounded by the in-flight
  window;
* telemetry surface: ``cluster.duplicates_suppressed`` /
  ``cluster.dedupe_keys_pruned`` counters, ``cluster.dedupe_seen_keys``
  gauge, and a ``gate``/``duplicate_suppressed`` lifecycle event per
  rejection.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.network.message import Heartbeat, TimestampedMessage
from repro.obs import Telemetry, resolve


class IntakeDedupeGate:
    """Exactly-once admission gate keyed on ``(client_id, message_id)``.

    The gate is transport-agnostic: the sharded cluster consults it inside
    its ``receive*`` wrappers, and the live dispatcher consults it once per
    socket-delivered frame before routing.  Internal re-routing and failover
    replay must *not* pass through the gate — a replayed pending message was
    already admitted once and must reach its new owner.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        prune_horizon: bool = True,
        telemetry: Optional[Telemetry] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._enabled = bool(enabled)
        self._prune = bool(prune_horizon)
        self._obs = resolve(telemetry)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._seen_keys: Set[Tuple[str, int]] = set()
        self._horizon: Dict[str, int] = {}
        self._retained: Dict[str, List[Tuple[int, Tuple[str, int]]]] = {}
        self._keys_pruned = 0
        self._duplicates = 0

    # ------------------------------------------------------------- properties
    @property
    def enabled(self) -> bool:
        """Whether the gate rejects anything at all (disabled gates admit everything)."""
        return self._enabled

    @property
    def duplicates_suppressed(self) -> int:
        """Messages rejected by the gate so far."""
        return self._duplicates

    @property
    def keys_pruned(self) -> int:
        """Seen keys released by the delivery-horizon pruning rule so far."""
        return self._keys_pruned

    @property
    def seen_key_count(self) -> int:
        """Current size of the retained seen-key set."""
        return len(self._seen_keys)

    # ------------------------------------------------------------------ logic
    def _note_duplicate(self, item: TimestampedMessage) -> None:
        self._duplicates += 1
        if self._obs.enabled:
            self._obs.count("cluster.duplicates_suppressed")
            self._obs.event(
                "gate",
                "duplicate_suppressed",
                self._clock(),
                client_id=item.client_id,
                sequence=int(item.sequence_number),
            )

    def advance_horizon(self, client_id: str, sequence: int) -> None:
        """Raise ``client_id``'s delivery horizon and prune keys below it.

        A key whose sequence number is strictly below the horizon can never
        be delivered again on an ordered channel, so its set entry is
        released; later re-deliveries in the pruned region are rejected by
        the horizon comparison alone.
        """
        current = self._horizon.get(client_id)
        if current is not None and sequence <= current:
            return
        self._horizon[client_id] = sequence
        retained = self._retained.get(client_id)
        if not retained:
            return
        keep = [entry for entry in retained if entry[0] >= sequence]
        pruned = len(retained) - len(keep)
        if pruned:
            for seq, key in retained:
                if seq < sequence:
                    self._seen_keys.discard(key)
            self._retained[client_id] = keep
            self._keys_pruned += pruned
            if self._obs.enabled:
                self._obs.count("cluster.dedupe_keys_pruned", pruned)
                self._obs.gauge("cluster.dedupe_seen_keys", len(self._seen_keys))

    def is_duplicate(self, item: Union[TimestampedMessage, Heartbeat]) -> bool:
        """Return ``True`` when ``item`` must be rejected (messages only).

        Heartbeats are idempotent and pass through (but their sequence
        numbers advance the delivery horizon — a heartbeat clearing sequence
        s proves every earlier send was delivered).
        """
        if not self._enabled:
            return False
        if isinstance(item, Heartbeat):
            if self._prune and item.sequence_number:
                self.advance_horizon(item.client_id, int(item.sequence_number))
            return False
        if not isinstance(item, TimestampedMessage):
            return False
        sequence = int(item.sequence_number)
        horizon = self._horizon.get(item.client_id)
        if self._prune and horizon is not None and sequence < horizon:
            # pruned region: every first delivery below the horizon already
            # happened (FIFO), so this can only be a re-delivery
            self._note_duplicate(item)
            return True
        if item.key in self._seen_keys:
            self._note_duplicate(item)
            return True
        self._seen_keys.add(item.key)
        if self._prune:
            self._retained.setdefault(item.client_id, []).append((sequence, item.key))
            if horizon is None or sequence > horizon:
                self.advance_horizon(item.client_id, sequence)
        if self._obs.enabled:
            self._obs.gauge("cluster.dedupe_seen_keys", len(self._seen_keys))
        return False

    def admit(self, item: Union[TimestampedMessage, Heartbeat]) -> bool:
        """Convenience inverse of :meth:`is_duplicate` for submit-time acks."""
        return not self.is_duplicate(item)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of the gate's counters (registry ``SnapshotSource`` shape)."""
        return {
            "enabled": int(self._enabled),
            "duplicates_suppressed": self._duplicates,
            "seen_keys": len(self._seen_keys),
            "keys_pruned": self._keys_pruned,
        }
