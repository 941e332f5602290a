"""Client-to-sequencer transport: endpoints, heartbeats and fan-in.

A :class:`Transport` wires a set of :class:`ClientEndpoint` objects to a
single :class:`SequencerEndpoint` through per-client channels.  Clients send
timestamped messages and periodic heartbeats; the sequencer endpoint fans all
arrivals into a receiver callback (normally an online sequencer).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.clocks.local import LocalClock
from repro.network.channel import Channel, OrderedChannel, UnorderedChannel
from repro.network.link import ConstantDelay, DelayModel
from repro.network.message import Heartbeat, TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.simulation.entity import Entity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Scheduler

ArrivalCallback = Callable[[Union[TimestampedMessage, Heartbeat], float], None]


class SequencerEndpoint(Entity):
    """The sequencer-side endpoint that receives every client's traffic."""

    def __init__(self, loop: Scheduler, name: str = "sequencer") -> None:
        super().__init__(loop, name)
        self._on_arrival: Optional[ArrivalCallback] = None
        self._arrivals: List[Any] = []

    @property
    def arrivals(self) -> List[Any]:
        """All items received so far, in arrival order."""
        return list(self._arrivals)

    def messages(self) -> List[TimestampedMessage]:
        """Only the timestamped messages received so far, in arrival order."""
        return [item for item in self._arrivals if isinstance(item, TimestampedMessage)]

    def on_arrival(self, callback: ArrivalCallback) -> None:
        """Register a callback invoked as ``callback(item, arrival_time)``."""
        self._on_arrival = callback

    def receive(self, item: Union[TimestampedMessage, Heartbeat]) -> None:
        """Entry point wired into the per-client channels."""
        self._arrivals.append(item)
        if self._on_arrival is not None:
            self._on_arrival(item, self.now)


class ClientEndpoint(Entity):
    """A client: owns a local clock and a channel to the sequencer."""

    def __init__(
        self,
        loop: Scheduler,
        client_id: str,
        clock: LocalClock,
        channel: Channel,
        heartbeat_interval: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(loop, client_id)
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive when given")
        self._client_id = client_id
        self._clock = clock
        self._channel = channel
        self._heartbeat_interval = heartbeat_interval
        self._obs = resolve(telemetry)
        self._sequence_number = 0
        self._sent_messages: List[TimestampedMessage] = []
        self._heartbeats_sent = 0
        self._heartbeat_running = False

    @property
    def client_id(self) -> str:
        """Stable client identifier."""
        return self._client_id

    @property
    def clock(self) -> LocalClock:
        """This client's local clock."""
        return self._clock

    @property
    def sent_messages(self) -> List[TimestampedMessage]:
        """Messages sent so far (with ground-truth fields populated)."""
        return list(self._sent_messages)

    @property
    def heartbeats_sent(self) -> int:
        """Number of heartbeats sent so far."""
        return self._heartbeats_sent

    def send(self, payload: Any = None) -> TimestampedMessage:
        """Timestamp ``payload`` with the local clock and transmit it."""
        reading = self._clock.read()
        self._sequence_number += 1
        message = TimestampedMessage(
            client_id=self._client_id,
            timestamp=reading.reported,
            true_time=reading.true_time,
            payload=payload,
            sequence_number=self._sequence_number,
        )
        self._sent_messages.append(message)
        if self._obs.enabled:
            self._obs.stage("client_send", message, self.now)
        self._channel.send(message)
        return message

    def send_heartbeat(self) -> Heartbeat:
        """Send a single heartbeat carrying the current local-clock reading."""
        reading = self._clock.read()
        self._sequence_number += 1
        heartbeat = Heartbeat(
            client_id=self._client_id,
            timestamp=reading.reported,
            true_time=reading.true_time,
            sequence_number=self._sequence_number,
        )
        self._heartbeats_sent += 1
        self._channel.send(heartbeat)
        return heartbeat

    def start_heartbeats(self) -> None:
        """Begin sending heartbeats every ``heartbeat_interval`` seconds."""
        if self._heartbeat_interval is None:
            raise ValueError(f"client {self._client_id} has no heartbeat interval configured")
        if self._heartbeat_running:
            return
        self._heartbeat_running = True
        self.call_after(self._heartbeat_interval, self._heartbeat_tick)

    def stop_heartbeats(self) -> None:
        """Stop sending periodic heartbeats (models a failed client)."""
        self._heartbeat_running = False

    def _heartbeat_tick(self) -> None:
        if not self._heartbeat_running:
            return
        self.send_heartbeat()
        self.call_after(self._heartbeat_interval, self._heartbeat_tick)


class Transport:
    """Factory wiring N clients to one sequencer endpoint."""

    def __init__(
        self,
        loop: Scheduler,
        rng_factory: Callable[[str], np.random.Generator],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._loop = loop
        self._rng_factory = rng_factory
        self._telemetry = telemetry
        self._sequencer = SequencerEndpoint(loop)
        self._clients: Dict[str, ClientEndpoint] = {}
        self._channels: Dict[str, Channel] = {}

    @property
    def sequencer(self) -> SequencerEndpoint:
        """The shared sequencer-side endpoint."""
        return self._sequencer

    @property
    def clients(self) -> Dict[str, ClientEndpoint]:
        """Mapping from client id to its endpoint."""
        return dict(self._clients)

    def channel_for(self, client_id: str) -> Channel:
        """The channel carrying ``client_id``'s traffic to the sequencer."""
        return self._channels[client_id]

    def install_chaos(self, controller: Any) -> int:
        """Install ``controller``'s per-client fault hooks on every channel.

        ``controller`` is a :class:`~repro.chaos.controller.ChaosController`
        (anything exposing ``channel_hook(client_id)``).  Clients added
        *after* this call are not hooked — wire clients first, then arm
        chaos.  Returns the number of channels hooked.
        """
        for client_id, channel in self._channels.items():
            channel.set_fault_hook(controller.channel_hook(client_id))
        return len(self._channels)

    def add_client(
        self,
        client_id: str,
        clock: LocalClock,
        delay_model: Optional[DelayModel] = None,
        ordered: bool = True,
        heartbeat_interval: Optional[float] = None,
    ) -> ClientEndpoint:
        """Create a client endpoint plus its channel to the sequencer."""
        if client_id in self._clients:
            raise ValueError(f"duplicate client id {client_id!r}")
        delay_model = delay_model if delay_model is not None else ConstantDelay(0.0)
        channel_cls = OrderedChannel if ordered else UnorderedChannel
        channel = channel_cls(
            self._loop,
            f"chan:{client_id}",
            delay_model,
            self._rng_factory(f"channel:{client_id}"),
            self._sequencer.receive,
            telemetry=self._telemetry,
        )
        client = ClientEndpoint(
            self._loop,
            client_id,
            clock,
            channel,
            heartbeat_interval=heartbeat_interval,
            telemetry=self._telemetry,
        )
        self._clients[client_id] = client
        self._channels[client_id] = channel
        return client
