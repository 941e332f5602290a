"""Clock models.

The omniscient observer's global clock (paper Definition 1, footnote 2) is
the event loop's own time.  A :class:`LocalClock` is a client's clock:
its reading at true time ``t`` is ``t + offset(t)`` where the offset is drawn
from the client's offset distribution, optionally augmented by a slowly
varying drift process (:mod:`repro.clocks.drift`) and read jitter modelling
host data-path latency (paper §5, "Host-network variability").
:class:`TrueTimeClock` provides the Spanner-style bounded-uncertainty
interval API used by the TrueTime baseline sequencer.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.clocks.drift": (
            "ConstantDrift",
            "DriftModel",
            "NoDrift",
            "RandomWalkDrift",
            "SteppedDrift",
        ),
        "repro.clocks.local": ("ClockReading", "LocalClock"),
        "repro.clocks.truetime": ("TrueTimeClock", "TrueTimeInterval"),
    },
)

__all__ = [
    "DriftModel",
    "NoDrift",
    "ConstantDrift",
    "RandomWalkDrift",
    "SteppedDrift",
    "ClockReading",
    "LocalClock",
    "TrueTimeClock",
    "TrueTimeInterval",
]
