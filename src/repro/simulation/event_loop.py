"""A deterministic discrete-event simulation loop.

The event loop is the heart of the simulation substrate.  Events are
scheduled at an absolute *true time* and executed in non-decreasing time
order.  Ties are broken deterministically by a monotonically increasing
sequence number so that two runs with the same seed produce the same
execution order.

The heap holds ``(time, priority, seq, event)`` tuples rather than the
events themselves: ``seq`` is unique, so ``heapq`` settles every comparison
on the first three fields in C and never reaches the :class:`Event`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


@dataclass
class Event:
    """A single scheduled event: the handle :meth:`EventLoop.schedule_at` returns.

    The loop executes events in ``(time, priority, seq)`` order; the heap
    keys its entries on those fields, so events themselves never compare.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    kwargs: dict = field(compare=False, default_factory=dict)
    cancelled: bool = field(compare=False, default=False)
    label: str = field(compare=False, default="")

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        self.cancelled = True


class LoopClock:
    """Read-only handle onto an :class:`EventLoop`'s simulated time.

    Satisfies the :class:`repro.runtime.base.ClockHandle` protocol, so
    harness/workload code can read time without holding the loop itself.
    """

    __slots__ = ("_loop",)

    def __init__(self, loop: "EventLoop") -> None:
        self._loop = loop

    def now(self) -> float:
        """Current simulated time of the underlying loop."""
        return self._loop.now


class EventLoop:
    """Priority-queue based discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial simulation time (true time, seconds).

    Examples
    --------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule_at(1.5, fired.append, "a")
    >>> _ = loop.schedule_at(0.5, fired.append, "b")
    >>> loop.run()
    >>> fired
    ['b', 'a']
    >>> loop.now
    1.5
    """

    #: Minimum queue length before lazy-cancelled events are compacted away.
    COMPACTION_MIN_QUEUE = 64

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._cancelled_pending = 0
        self._stats: Dict[str, int] = {
            "scheduled": 0,
            "cancelled": 0,
            "executed": 0,
            "compactions": 0,
        }

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation (true) time in seconds."""
        return self._now

    @property
    def clock(self) -> LoopClock:
        """Read-only clock handle onto this loop's simulated time (cached)."""
        handle = self.__dict__.get("_clock")
        if handle is None:
            handle = self.__dict__["_clock"] = LoopClock(self)
        return handle

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including not-yet-reaped cancelled ones)."""
        return len(self._queue)

    def stats(self) -> Dict[str, int]:
        """Return scheduling statistics (scheduled / cancelled / executed / compactions)."""
        return dict(self._stats)

    def as_dict(self) -> Dict[str, int]:
        """Alias of :meth:`stats` — the common stats-snapshot protocol.

        Lets the loop be attached directly as a
        :class:`repro.obs.MetricsRegistry` source alongside the other
        ``as_dict()`` stats objects (engine / chaos / refresh).
        """
        return self.stats()

    # ------------------------------------------------------------- scheduling
    def schedule_at(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` at absolute time ``when``.

        Scheduling in the past (or at NaN, which no heap order can place)
        raises :class:`SimulationError`; scheduling at exactly the current
        time is allowed and runs after the event that is currently executing.
        """
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule event at {when:.9f}, time is already {self._now:.9f}"
            )
        at = float(when)
        seq = next(self._seq)
        event = Event(
            time=at,
            priority=priority,
            seq=seq,
            callback=callback,
            args=args,
            kwargs=kwargs,
            label=label,
        )
        heapq.heappush(self._queue, (at, priority, seq, event))
        self._stats["scheduled"] += 1
        return event

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` at ``now + delay`` (``delay`` must be >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(
            self._now + delay, callback, *args, priority=priority, label=label, **kwargs
        )

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (lazy removal).

        Cancellation only marks the event; the heap entry is reaped when it
        reaches the front — except that once cancelled events make up more
        than half of a non-trivial queue the whole heap is compacted, so an
        arrival burst that cancels and reschedules one check per arrival
        cannot grow the heap beyond ~2x its live size.
        """
        if not event.cancelled:
            event.cancel()
            self._stats["cancelled"] += 1
            self._cancelled_pending += 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (
            len(self._queue) >= self.COMPACTION_MIN_QUEUE
            and 2 * self._cancelled_pending > len(self._queue)
        ):
            self._queue = [entry for entry in self._queue if not entry[3].cancelled]
            heapq.heapify(self._queue)
            self._cancelled_pending = 0
            self._stats["compactions"] += 1

    # -------------------------------------------------------------- execution
    def step(self) -> Optional[Event]:
        """Execute the next pending event and return it.

        Returns ``None`` when the queue is empty.  Cancelled events are
        silently discarded.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[3]
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            if event.time < self._now:
                raise SimulationError("event queue time went backwards")
            self._now = event.time
            event.callback(*event.args, **event.kwargs)
            self._stats["executed"] += 1
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue is drained, ``until`` is reached, or ``max_events``.

        Returns the number of events executed by this call.  When ``until``
        is given, time is advanced to ``until`` even if the queue drains
        earlier, matching the convention of most DES frameworks.
        """
        if self._running:
            raise SimulationError("event loop is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while self._queue and not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                next_event = self._peek()
                if next_event is None:
                    break
                if until is not None and next_event.time > until:
                    break
                if self.step() is not None:
                    executed += 1
            if until is not None and until > self._now and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return executed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def _peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without removing it."""
        while self._queue and self._queue[0][3].cancelled:
            heapq.heappop(self._queue)
            self._cancelled_pending -= 1
        return self._queue[0][3] if self._queue else None

    def next_event_time(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` when idle."""
        event = self._peek()
        return event.time if event is not None else None
