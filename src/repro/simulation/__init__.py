"""Discrete-event simulation kernel used by every other substrate.

The kernel is deliberately small and deterministic: a priority-queue driven
event loop (:class:`EventLoop`), simulated entities (:class:`Entity`) and a
seed-managed random source (:class:`RandomSource`).  Lifecycle tracing lives
in :mod:`repro.obs`.  All time values are floats in seconds of
*true* (reference) time; simulated clocks that drift or are offset from true
time live in :mod:`repro.clocks`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.simulation.event_loop": ("Event", "EventLoop", "SimulationError"),
        "repro.simulation.entity": ("Entity",),
        "repro.simulation.random_source": ("RandomSource",),
    },
)

__all__ = [
    "Event",
    "EventLoop",
    "SimulationError",
    "Entity",
    "RandomSource",
]
