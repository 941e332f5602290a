"""Network substrate: messages, delay models, channels and transports.

The sequencer only cares about *when* messages arrive and whether per-client
delivery is ordered, so the network substrate models exactly that: links with
configurable delay/jitter distributions (:mod:`repro.network.link`), ordered
(TCP-like) and unordered (UDP-like) channels (:mod:`repro.network.channel`),
and a client-to-sequencer transport with heartbeats
(:mod:`repro.network.transport`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.network.message": ("Heartbeat", "SequencedBatch", "TimestampedMessage"),
        "repro.network.link": (
            "ConstantDelay",
            "DelayModel",
            "GammaDelay",
            "LogNormalDelay",
            "UniformJitterDelay",
        ),
        "repro.network.channel": ("Channel", "OrderedChannel", "UnorderedChannel"),
        "repro.network.transport": ("ClientEndpoint", "SequencerEndpoint", "Transport"),
    },
)

__all__ = [
    "TimestampedMessage",
    "Heartbeat",
    "SequencedBatch",
    "DelayModel",
    "ConstantDelay",
    "UniformJitterDelay",
    "LogNormalDelay",
    "GammaDelay",
    "Channel",
    "OrderedChannel",
    "UnorderedChannel",
    "ClientEndpoint",
    "SequencerEndpoint",
    "Transport",
]
