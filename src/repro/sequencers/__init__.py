"""Baseline sequencers.

These are the comparison points the paper discusses:

* :class:`FifoSequencer` — ranks by arrival order (the classical sequencer,
  Figure 4's equal-wire setting makes this fair, a cloud network does not),
* :class:`WaitsForOneSequencer` — WFO (Figure 2, used by Onyx): waits for
  one message from every client, repeatedly releasing the smallest
  timestamp; fair only when clock error is negligible,
* :class:`TrueTimeSequencer` — the Spanner-TrueTime emulation used as the
  baseline in the paper's evaluation (§4): interval ``[T-3sigma, T+3sigma]``
  per message, overlapping intervals share a rank.

The omniscient observer is not a sequencer here: :mod:`repro.metrics.ras`
scores every order against the messages' ``true_time`` directly.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sequencers.base": ("OfflineSequencer", "SequencingResult"),
        "repro.sequencers.fifo": ("FifoSequencer",),
        "repro.sequencers.wfo": ("WaitsForOneSequencer",),
        "repro.sequencers.truetime": ("TrueTimeSequencer",),
    },
)

__all__ = [
    "OfflineSequencer",
    "SequencingResult",
    "FifoSequencer",
    "WaitsForOneSequencer",
    "TrueTimeSequencer",
]
