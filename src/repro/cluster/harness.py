"""Cluster wiring: per-shard transport fan-in for the chaos harness.

:class:`ClusterTransport` drives a
:class:`~repro.cluster.sharded.ShardedSequencer` over simulated networks: one
:class:`~repro.network.transport.Transport` per shard on the shared loop;
every client endpoint (clock, channel, heartbeats) is created on its owner
shard's transport, and each shard's sequencer endpoint fans arrivals into
that shard via :meth:`ShardedSequencer.receive_at` (so failover rerouting
still applies).  Its one caller is ``repro.workloads.chaos``.

Frozen workloads do not come through here: every runtime replays them as
waves on the one shard host (:mod:`repro.runtime.host`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.clocks.local import LocalClock
from repro.cluster.sharded import ShardedSequencer
from repro.network.link import DelayModel
from repro.network.message import Heartbeat, TimestampedMessage
from repro.network.transport import ClientEndpoint, Transport
from repro.obs.telemetry import Telemetry
from repro.runtime.base import Scheduler


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
