"""Cluster wiring: per-shard transport fan-in and scenario replay.

Two ways to drive a :class:`~repro.cluster.sharded.ShardedSequencer`:

* :class:`ClusterTransport` — the live path: one
  :class:`~repro.network.transport.Transport` per shard on the shared loop;
  every client endpoint (clock, channel, heartbeats) is created on its owner
  shard's transport, and each shard's sequencer endpoint fans arrivals into
  that shard via :meth:`ShardedSequencer.receive_at` (so failover rerouting
  still applies).
* :func:`replay_scenario` / :func:`replay_messages` — the evaluation path:
  schedule an offline :class:`~repro.workloads.scenario.Scenario`'s messages
  as arrival events at their ground-truth generation times.  The target only
  needs a ``receive(item, arrival_time)`` method, so the same replay drives a
  bare :class:`~repro.core.online.OnlineTommySequencer` and a cluster
  identically — which is what makes the 1-shard equivalence property testable,
  and what lets the real-process backend replay a single shard's slice of a
  workload bit-identically to the sim cluster (:mod:`repro.runtime.procs`
  passes the *global* closing-heartbeat instant into ``heartbeat_time`` /
  ``heartbeat_timestamp`` so every worker closes at the same horizon).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Protocol, Union

import numpy as np

from repro.clocks.local import LocalClock
from repro.cluster.sharded import ShardedSequencer
from repro.network.link import DelayModel
from repro.network.message import Heartbeat, TimestampedMessage
from repro.network.transport import ClientEndpoint, Transport
from repro.obs.telemetry import Telemetry
from repro.runtime.base import Scheduler, clock_of

if TYPE_CHECKING:  # imported lazily: workloads.chaos drives this harness
    from repro.workloads.scenario import Scenario


class Receiver(Protocol):
    """Anything message arrivals can be fanned into."""

    def receive(
        self, item: Union[TimestampedMessage, Heartbeat], arrival_time: Optional[float] = None
    ) -> None: ...


class ClusterTransport:
    """One Transport per shard, each fanning into its shard's sequencer."""

    def __init__(
        self,
        loop: Scheduler,
        cluster: ShardedSequencer,
        rng_factory: Callable[[str], np.random.Generator],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._loop = loop
        self._cluster = cluster
        self._transports: List[Transport] = []
        for shard_index in range(cluster.num_shards):
            transport = Transport(loop, rng_factory, telemetry=telemetry)
            transport.sequencer.on_arrival(self._fan_in(shard_index))
            self._transports.append(transport)

    def _fan_in(self, shard_index: int):
        def deliver(item: Union[TimestampedMessage, Heartbeat], arrival_time: float) -> None:
            self._cluster.receive_at(shard_index, item, arrival_time)

        return deliver

    @property
    def cluster(self) -> ShardedSequencer:
        """The cluster being fed."""
        return self._cluster

    def transport_of(self, shard_index: int) -> Transport:
        """The per-shard transport carrying that shard's client traffic."""
        return self._transports[shard_index]

    def add_client(
        self,
        client_id: str,
        clock: LocalClock,
        delay_model: Optional[DelayModel] = None,
        ordered: bool = True,
        heartbeat_interval: Optional[float] = None,
        drop_probability: float = 0.0,
    ) -> ClientEndpoint:
        """Create a client endpoint on its owner shard's transport."""
        shard = self._cluster.router.shard_of(client_id)
        return self._transports[shard].add_client(
            client_id,
            clock,
            delay_model=delay_model,
            ordered=ordered,
            heartbeat_interval=heartbeat_interval,
            drop_probability=drop_probability,
        )

    def clients(self) -> Dict[str, ClientEndpoint]:
        """All client endpoints across every shard transport."""
        merged: Dict[str, ClientEndpoint] = {}
        for transport in self._transports:
            merged.update(transport.clients)
        return merged

    def install_chaos(self, controller) -> int:
        """Install chaos fault hooks on every shard transport's channels.

        Delegates to :meth:`repro.network.transport.Transport.install_chaos`
        per shard and attaches the cluster to the controller so shard-crash
        faults can act on it.  Returns the number of channels hooked.
        """
        controller.attach_cluster(self._cluster)
        return sum(transport.install_chaos(controller) for transport in self._transports)


def replay_messages(
    scheduler: Scheduler,
    target: Receiver,
    messages: List[TimestampedMessage],
    client_ids: Iterable[str],
    delay: float = 0.0,
    heartbeat_time: Optional[float] = None,
    heartbeat_timestamp: Optional[float] = None,
) -> List[TimestampedMessage]:
    """Schedule pre-sorted ``messages`` as arrivals on ``scheduler``.

    Each message arrives at ``true_time + delay``.  When ``heartbeat_time``
    and ``heartbeat_timestamp`` are given, every client in ``client_ids``
    additionally sends one closing heartbeat at that instant with that
    beacon timestamp, so the heartbeat completeness rule (Q2) lets the
    sequencer emit everything it can before the caller's final flush.

    This is the replay primitive both execution backends share: the sim
    backend replays a whole scenario; the real-process backend replays one
    shard's slice per worker while pinning the heartbeat instant/beacon to
    the *global* values so the completeness horizon closes identically.

    Returns the replayed messages in arrival order.
    """
    if delay < 0:
        raise ValueError("delay must be non-negative")
    clock = clock_of(scheduler)
    for message in messages:
        scheduler.schedule_at(
            max(message.true_time + delay, clock.now()), target.receive, message
        )
    if heartbeat_time is not None and heartbeat_timestamp is not None:
        for client_id in sorted(client_ids):
            heartbeat = Heartbeat(
                client_id=client_id, timestamp=heartbeat_timestamp, true_time=heartbeat_time
            )
            scheduler.schedule_at(heartbeat_time, target.receive, heartbeat)
    return messages


def replay_scenario(
    loop: Scheduler,
    target: Receiver,
    scenario: Scenario,
    delay: float = 0.0,
    final_heartbeats: bool = True,
    heartbeat_slack: float = 1e-3,
) -> List[TimestampedMessage]:
    """Schedule ``scenario``'s messages as arrivals on ``loop``.

    Convenience wrapper over :func:`replay_messages` that derives the
    closing-heartbeat instant and beacon from the scenario itself.

    Returns the replayed messages in arrival order.
    """
    messages = scenario.messages_by_true_time()
    heartbeat_time: Optional[float] = None
    heartbeat_timestamp: Optional[float] = None
    if final_heartbeats and messages:
        heartbeat_time = (
            max(message.true_time for message in messages) + delay + heartbeat_slack
        )
        heartbeat_timestamp = max(message.timestamp for message in messages) + heartbeat_slack
    return replay_messages(
        loop,
        target,
        messages,
        scenario.client_ids,
        delay=delay,
        heartbeat_time=heartbeat_time,
        heartbeat_timestamp=heartbeat_timestamp,
    )
