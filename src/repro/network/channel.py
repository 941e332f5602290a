"""Point-to-point channels with configurable delivery semantics.

``OrderedChannel`` models a TCP-like connection: per-sender FIFO delivery is
preserved even when sampled delays would reorder messages (a later message is
held until earlier ones have been delivered).  ``UnorderedChannel`` delivers
each message independently after its sampled delay, so reordering is
possible.  The online sequencer's completeness rule (paper §3.5, Q2) is only
sound on ordered channels, which tests exercise explicitly.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.network.link import DelayModel
from repro.network.message import TimestampedMessage
from repro.obs.telemetry import Telemetry, resolve
from repro.simulation.entity import Entity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.base import Scheduler

DeliveryCallback = Callable[[Any], None]

#: Chaos hook signature: ``hook(item, now)`` returns a decision object with
#: ``drop`` / ``copies`` / ``extra_delay`` / ``not_before`` attributes (see
#: :class:`repro.chaos.controller.FaultDecision`) or ``None`` for no fault.
FaultHook = Callable[[Any, float], Optional[Any]]


class Channel(Entity, abc.ABC):
    """A unidirectional channel from one sender to one receiver callback."""

    def __init__(
        self,
        loop: Scheduler,
        name: str,
        delay_model: DelayModel,
        rng: np.random.Generator,
        deliver: DeliveryCallback,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__(loop, name)
        self._delay_model = delay_model
        self._rng = rng
        self._deliver = deliver
        self._obs = resolve(telemetry)
        self._fault_hook: Optional[FaultHook] = None
        self._sent = 0
        self._delivered = 0
        self._fault_dropped = 0
        self._fault_copies = 0

    @property
    def sent(self) -> int:
        """Messages accepted for transmission."""
        return self._sent

    @property
    def delivered(self) -> int:
        """Messages delivered to the receiver callback."""
        return self._delivered

    @property
    def fault_dropped(self) -> int:
        """Messages dropped by the fault hook (the only loss a channel has)."""
        return self._fault_dropped

    @property
    def fault_copies(self) -> int:
        """Extra deliveries injected by fault-hook duplication."""
        return self._fault_copies

    def set_fault_hook(self, hook: Optional[FaultHook]) -> None:
        """Install (or clear) the chaos fault hook consulted on every send.

        Without a hook the send path consumes exactly the same RNG draws as
        before the hook existed, so fault-free runs stay bit-identical.
        """
        self._fault_hook = hook

    def send(self, item: Any) -> None:
        """Transmit ``item``; it is delivered (or dropped) asynchronously."""
        self._sent += 1
        decision = self._fault_hook(item, self.now) if self._fault_hook is not None else None
        if decision is not None and decision.drop:
            self._fault_dropped += 1
            if self._obs.enabled:
                self._obs.count("channel.fault_dropped")
            return
        copies = 1 if decision is None else max(int(decision.copies), 1)
        self._fault_copies += copies - 1
        if copies > 1 and self._obs.enabled:
            self._obs.count("channel.fault_copies", copies - 1)
        for _ in range(copies):
            delay = max(float(self._delay_model.sample(self._rng)), 0.0)
            if decision is not None:
                delay += max(float(decision.extra_delay), 0.0)
                if decision.not_before is not None:
                    delay = max(delay, float(decision.not_before) - self.now)
            self._enqueue(item, delay)

    @abc.abstractmethod
    def _enqueue(self, item: Any, delay: float) -> None:
        """Schedule delivery of ``item`` after ``delay`` seconds."""

    def _do_deliver(self, item: Any) -> None:
        self._delivered += 1
        if self._obs.enabled and isinstance(item, TimestampedMessage):
            self._obs.stage("channel_deliver", item, self.now)
        self._deliver(item)


class UnorderedChannel(Channel):
    """UDP-like channel: each message is delivered after its own delay."""

    def _enqueue(self, item: Any, delay: float) -> None:
        self.call_after(delay, self._do_deliver, item)


class OrderedChannel(Channel):
    """TCP-like channel: per-sender FIFO order is preserved.

    Delivery time of message ``k`` is ``max(send_k + delay_k, delivery_{k-1})``
    which models head-of-line blocking of an in-order byte stream.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._last_delivery_time = -float("inf")

    def _enqueue(self, item: Any, delay: float) -> None:
        target = max(self.now + delay, self._last_delivery_time)
        # strictly increase delivery time so FIFO order is unambiguous
        if target <= self._last_delivery_time:
            target = np.nextafter(self._last_delivery_time, float("inf"))
        self._last_delivery_time = target
        self.call_at(target, self._do_deliver, item)
